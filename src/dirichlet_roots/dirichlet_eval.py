"""Fast, numerically careful evaluation of weighted cosine/sine Dirichlet sums.

Two evaluators, cross-checked in the tests:

* direct: one point at a time, exact trig arguments, compensated (Shewchuk)
  summation via math.fsum.  Reference-quality, used for single points, for
  bisection refinement and as the grid kernel's test oracle.
* grid kernel (oscillating_sums): rows of values on the uniform t-grids
  t_i = start + (i + f)*step for one or more fractions f, as a type-1
  nonuniform FFT (exponential-of-semicircle spreading onto a fine grid,
  one FFT, kernel deconvolution), O(terms + grid log grid) per row and
  fraction.  Each coefficient row gives the complex sums
  sum_n c_n exp(i t log n), so one transform returns its cosine sums (the
  real part) and its sine sums (the imaginary part).  Error below about
  3e-13 of the row's coefficient L1 mass, plus the eps |t| ||c_n log n||_2
  by which any evaluator's rounded phases t log n differ.  Every fraction
  enters by a ramp on the spread grid.  One spreading pass serves every
  fraction: where all points lie in turn 0 (Gauss-Legendre node streams)
  as it is, and where they span several turns (stratified EK) as one
  segment per turn, which each fraction's grid adds up with its factor of
  whole turns.  As in FINUFFT's plan interface, the point layout and the
  deconvolution factors are built once per point set and grid, and cached.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import CoefficientSample, Interval, NumericalError, Part, PolynomialSpec

__all__ = [
    "WeightTable",
    "make_weight_table",
    "eval_polynomial",
    "u_moment",
    "log_moment_sum",
]
# The grid kernel oscillating_sums is left out: perfbench traces the names
# here and reads each call's result, and a generator works after it returns.

# Grid-kernel spreading: exponential-of-semicircle kernel of _SPREAD_WIDTH
# fine cells with shape beta = 2.30 * width, on a fine grid of at least
# twice as many cells as output modes.  Width 16 keeps the error at the
# 1e-13 level of the row's L1 mass (width 12: about 5e-11).  Spreading
# runs one GEMM per tile of cells, about sqrt(_TILE_BALANCE * cells /
# (rows * points)) cells wide: that balances the fixed cost of a GEMM call
# against the work of its dense kernel block, which grows with
# rows * points * (tile + width).  A tile covers at most _TILE_CELLS cells
# and _TILE_POINTS points, which bounds the block's memory.
_SPREAD_WIDTH = 16
_SPREAD_BETA = 2.30 * _SPREAD_WIDTH
_TILE_CELLS = 256
_TILE_POINTS = 4096
_TILE_BALANCE = 100_000
_GROUP_ELEMS = 500_000  # strength entries (rows x terms) per term block: _spread_rows
# Points per kernel call on a long grid (_chunks: Monte Carlo's grid points,
# deterministic EK's panels), which bounds a chunk's memory at any T (README).
_CHUNK_PANELS = 2**17


@dataclass(frozen=True)
class WeightTable:
    """Per-spec amplitude tables, precomputed once and shared read-only.

    weights[n-1] = (log n)^k / n^sigma; squared_weights squares them anew
    on each read.  The m0/m2 scalars are the t = 0 moment sums
    sum w_n^2 (log n)^j, j = 0 and 2, accumulated with math.fsum.
    """

    spec: PolynomialSpec
    logs: np.ndarray
    weights: np.ndarray
    m0: float = field(init=False)
    m2: float = field(init=False)

    @property
    def squared_weights(self) -> np.ndarray:
        return self.weights * self.weights

    def __post_init__(self) -> None:
        for arr in (self.logs, self.weights):
            arr.setflags(write=False)
        sq = self.squared_weights
        object.__setattr__(self, "m0", math.fsum(sq))
        object.__setattr__(self, "m2", math.fsum(sq * self.logs**2))


def make_weight_table(spec: PolynomialSpec) -> WeightTable:
    """The spec's WeightTable; a NumericalError if M_0 + M_2 overflows (large k)."""
    n = np.arange(1, spec.n_terms + 1, dtype=np.float64)
    logs = np.log(n)  # log n computed directly per n; exactness over speed
    with np.errstate(over="ignore", invalid="ignore"):
        weights = logs**spec.k / n**spec.sigma  # 0**0 = 1 covers n=1 at k=0
        del n  # so the sums below and the table's m0/m2 peak at four N-length arrays
        if not math.isfinite(np.sum(weights * weights * (1.0 + logs * logs))):
            raise NumericalError(f"the squared weights (log n)^(2k) / n^(2 sigma) overflow "
                                 f"at k = {spec.k}, T = {spec.T!r}", spec)
    return WeightTable(spec=spec, logs=logs, weights=weights)


def eval_polynomial(sample: CoefficientSample, table: WeightTable, t: float) -> float:
    """S(t) = sum_n X_n w_n cos(t log n) (sin for the sine part), fsum-accumulated."""
    if sample.spec != table.spec:
        raise ValueError("sample and weight table were built for different specs")
    phases = t * table.logs
    osc = np.cos(phases) if table.spec.part is Part.COSINE else np.sin(phases)
    return math.fsum(sample.values * table.weights * osc)


def _spread_kernel(x: np.ndarray) -> np.ndarray:
    """Exponential-of-semicircle kernel at offsets x in fine-grid cells, computed in place in x."""
    x *= 2.0 / _SPREAD_WIDTH  # a power of two: exactly 2 x / width
    np.sqrt(np.maximum(np.subtract(1.0, np.square(x, out=x), out=x), 0.0, out=x), out=x)
    return np.exp(np.multiply(np.subtract(x, 1.0, out=x), _SPREAD_BETA, out=x), out=x)


class _Plan(NamedTuple):
    """Spreading layout of one point set; every array has one entry per point."""

    terms: np.ndarray   # indices n with logs[n] != 0, sorted by fine cell
    frac: np.ndarray    # each point's position in its fine cell
    offset: np.ndarray  # its first entry in its span's kernel block, row-major
    tile: int           # fine cells per tile
    spans: tuple        # (a, b, f): points a .. b - 1, one GEMM onto buffer column f on
    widest: int         # points in the largest span
    first: int          # the whole turn of cell 0; cells count on through the later turns


@lru_cache(maxsize=8)
def _cached_plan(logs: bytes, step: float, count: int, tile: int) -> _Plan:
    """The _Plan of the points step * logs, for count modes, in tiles of tile cells.

    A point x = 2 pi k + 2 pi p / nf (whole turns k, fine-grid position p)
    lies in cell (k - first) nf + floor(p): cells 0 .. nf - 1 where every
    point lies in turn 0, and one segment of nf cells per turn otherwise.
    Keyed by the content of logs, so every call on one point set (chunks,
    trial blocks) shares one plan; each term block has its own, up to 8.
    """
    logs = np.frombuffer(logs)
    nf, w = _fine_length(count), _SPREAD_WIDTH
    turns, pos = np.divmod(step * logs, 2.0 * math.pi)
    pos *= nf / (2.0 * math.pi)
    cell = np.floor(pos).astype(np.intp)
    frac = pos - cell
    cell += turns.astype(np.intp) * nf  # a p that rounds up to nf is cell 0 of the next turn
    terms = np.flatnonzero(logs != 0.0)
    terms = terms[np.argsort(cell[terms], kind="stable")]
    cell, frac = cell[terms], frac[terms]
    first = int(cell[0]) // nf if cell.size else 0
    cell -= first * nf
    offset, spans = cell % tile, []
    runs = np.flatnonzero(np.diff(cell // tile)) + 1
    for lo, hi in zip(np.r_[0, runs], np.r_[runs, cell.size]):
        for a in range(lo, hi, _TILE_POINTS):
            b = min(hi, a + _TILE_POINTS)
            offset[a:b] += (tile + w) * np.arange(b - a)
            spans.append((int(a), int(b), int(cell[a] // tile * tile) + 1))
    for arr in (terms, frac, offset):
        arr.setflags(write=False)  # shared by every caller of the cache
    return _Plan(terms, frac, offset, tile, tuple(spans),
                 max((b - a for a, b, _ in spans), default=0), first)


def _spread(strengths: np.ndarray, plan: _Plan, nf: int, fine, spans: tuple,
            shift: int = 0) -> np.ndarray:
    """Add the points of the plan's spans, spread, into fine (new and zeroed if None).

    strengths holds the real parts of the point strengths over their
    imaginary parts (2 * rows real rows, points in plan order); fine is
    complex with rows rows and holds fine cell m at m + w/2 - shift (the
    new grid: nf + tile + w columns, shift 0).  A point at cell + frac
    covers fine cells cell + 1 - w/2 + k, k < w, and each span is one dense
    GEMM: strengths times a (points x (tile + w)) kernel block.  One zeroed
    block serves every span: its entries are set before the GEMM and zeroed
    after it.  Kernel weights exist for the spans' points only, scatter indices per span.
    """
    lo, hi = (spans[0][0], spans[-1][1]) if spans else (0, 0)
    rows, w, tile = strengths.shape[0] // 2, _SPREAD_WIDTH, plan.tile
    block = np.zeros(plan.widest * (tile + w))
    values = _spread_kernel(plan.frac[lo:hi, None] + (w // 2 - 1 - np.arange(w)))
    if fine is None:  # made after the block and the weights: README, "Cost at large T"
        fine = np.zeros((rows, nf + tile + w), dtype=np.complex128)
    re, im = fine.real, fine.imag
    for a, b, f in spans:
        flat = plan.offset[a:b, None] + np.arange(w)
        block[flat] = values[a - lo:b - lo]
        spread = strengths[:, a:b] @ block[:(b - a) * (tile + w)].reshape(b - a, tile + w)
        block[flat] = 0.0
        re[:, f - shift:f - shift + tile + w] += spread[:rows]
        im[:, f - shift:f - shift + tile + w] += spread[rows:]
    return fine


def oscillating_sums(logs: np.ndarray, coeffs: np.ndarray, start: float, step: float,
                     count: int, fractions=(0.0,)):
    """Yield rows of cosine and sine sums along t_i = start + (i + f)*step for each f in fractions.

    Yields, fraction by fraction, (C, S) with
        C[r, i] = sum_n coeffs[r, n] * cos(t_i * logs[n])
        S[r, i] = sum_n coeffs[r, n] * sin(t_i * logs[n]),
    the real and imaginary parts of sum_n coeffs[r, n] * exp(i t_i logs[n]);
    the default, one zero fraction, is the plain grid.  Every fraction lies
    in [0, 1].  With t_i = mid + (j + f)*step, mid the grid's middle node,
    every row is a type-1 NUFFT: modes j + f of the points x_n = step*logs[n]
    with strengths coeffs * exp(i mid logs[n]).  Points are spread onto a
    fine periodic grid once per call (in term blocks, _spread_rows),
    transformed by FFT and divided by the kernel's own transform at j + f;
    terms with logs[n] = 0 are constant and are added exactly.  The error
    stays below about 3e-13 of each row's L1 mass plus the phase rounding
    eps |t| ||coeffs[r] logs||_2 that any evaluator of t * logs[n] shares.
    The points' sort and tiling are planned once per term block and grid
    (_cached_plan, keyed by the content of logs) and the deconvolution once
    per grid (_deconvolution), so repeated calls only spread and transform.

    A fraction enters without trig per term.  With x_n = 2 pi k_n +
    2 pi p_n / nf (whole turns k_n, fine-grid position p_n),
    exp(i f x_n) = exp(2 pi i f k_n) exp(2 pi i f p_n / nf) exactly; the
    second factor is the ramp exp(2 pi i f m / nf) over the fine cells m
    (Dutt and Rokhlin, 1993).  Where every point lies in turn 0, one spread
    serves every fraction, only the cells the points cover are kept between
    fractions, and each is ramped, halo-folded and transformed in turn; the
    generator holds no reference to what it yielded.  Otherwise the rows
    are spread once onto one segment of nf cells per turn (_spread_rows),
    each fraction's grid adds the segments up with the factors
    exp(2 pi i f k) (one complex GEMM per group of turns for all
    fractions), and one ramp multiply, one FFT and one deconvolution serve
    every fraction: their (C, S) are views of two (rows, fractions, count)
    arrays.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if not 0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    fractions = np.asarray(fractions, dtype=np.float64)
    if not (math.isfinite(start) and np.isfinite(fractions).all()):
        raise ValueError("start and fractions must be finite")
    if not ((0.0 <= fractions) & (fractions <= 1.0)).all():
        raise ValueError(f"fractions must lie in [0, 1], got {fractions}")
    logs = np.asarray(logs, dtype=np.float64)
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=np.float64))
    constant = coeffs[:, logs == 0.0].sum(axis=1)[:, None]
    rows, nf, wrap = coeffs.shape[0], _fine_length(count), _SPREAD_WIDTH // 2
    scales = _deconvolution(count, tuple(fractions.tolist()))
    ends = step * float(np.min(logs, initial=0.0)), step * float(np.max(logs, initial=0.0))
    turns = int(_turns(ends[1], nf) - _turns(ends[0], nf)) + 1  # the ends take in turn 0
    if turns > 1:
        column, grids = fractions[:, None], np.zeros((rows, fractions.size, nf), dtype=np.complex128)
        for first, segments in _spread_rows(logs, coeffs, start, step, count, turns):
            grids += _ramp(column, 1, first, segments.shape[1]) @ segments  # whole turns
        grids *= _ramp(column, nf, 0, nf)
        C, S = _transform(grids, count, scales, constant[:, None])
        for g in range(fractions.size):
            yield C[:, g], S[:, g]
        return
    (_, fine), = _spread_rows(logs, coeffs, start, step, count, turns)
    del coeffs  # spread: not held beside the fine grid
    hi = min(int(ends[1] * nf / (2.0 * math.pi)) + wrap + 2, nf + wrap)  # cells -w/2 .. hi - 1
    support = fine[:, :hi + wrap].copy() if fractions.size > 1 else None  # hold the support
    for f, scale in zip(fractions, scales):  # each fraction's transform overwrites the grid
        if support is not None:
            fine[:, hi + wrap:nf + wrap] = 0.0
        if f:
            ramp = _ramp(f, nf, -wrap, hi + wrap)
            for r in range(rows):  # by rows: numpy broadcasts over a contiguous block at half speed
                np.multiply(fine[r, :hi + wrap] if support is None else support[r], ramp,
                            out=fine[r, :hi + wrap])
            del ramp  # not held beside the FFT's work buffer
        elif support is not None:
            fine[:, :hi + wrap] = support
        fine[:, nf:nf + wrap] += fine[:, :wrap]  # the halo folds onto its images
        if hi > nf:
            fine[:, wrap:2 * wrap] += fine[:, nf + wrap:nf + 2 * wrap]
        yield _transform(fine[:, wrap:wrap + nf], count, scale, constant)


def _turns(x: float, nf: int) -> float:
    """Whole turns k of the point x = 2 pi k + 2 pi p / nf, with its fine-grid
    position p as _cached_plan places it: a p that rounds up to nf is cell 0
    of the next turn.  Python's divmod on floats is numpy's on arrays."""
    turns, rest = divmod(x, 2.0 * math.pi)
    return turns + (rest * (nf / (2.0 * math.pi)) >= nf)


def _spread_rows(logs, coeffs, start, step, count, turns):
    """Yield (first turn, grid) pairs: oscillating_sums' rows, spread but not folded.

    The strengths are coeffs * exp(i mid logs), mid = start + (count // 2)
    * step (_strengths).  Terms run in blocks, each with its own plan,
    strengths and kernel weights, alive only while it is spread.  Where the
    points lie in turn 0 (turns == 1), blocks of at most _GROUP_ELEMS //
    rows terms add into one grid of signed cells -w/2 .. nf + w/2 - 1,
    yielded once.  Otherwise the kernel weights count too (_GROUP_ELEMS //
    (rows * w) terms), and a block's spans run in groups of at most
    _GROUP_ELEMS // (2 * rows * nf) turns, each spread into one reused
    buffer and yielded as (rows, segments, nf) before the next: segment j
    holds cells 0 .. nf - 1 of turn first + j, halos included.  One tile,
    from min(block size, nonzero terms) and their nf * turns cells, serves
    every block.
    """
    rows, w = coeffs.shape[0], _SPREAD_WIDTH
    nf, mid = _fine_length(count), start + count // 2 * step
    size = max(1, _GROUP_ELEMS // (rows * (1 if turns == 1 else w)))
    points = min(size, int(np.count_nonzero(logs)))
    tile = max(1, min(_TILE_CELLS,
                      math.isqrt(_TILE_BALANCE * nf * turns // (rows * points + 1))))
    group = nf * max(1, min(turns, _GROUP_ELEMS // (2 * rows * nf)))  # cells per group of turns
    fine = None if turns == 1 else np.zeros(
        (rows, -(-(group + nf + tile + w // 2) // nf) * nf), dtype=np.complex128)
    for a in range(0, max(logs.size, 1), size):
        block = logs[a:a + size]
        plan = _cached_plan(block.tobytes(), step, count, tile)
        strengths = _strengths(coeffs[:, a + plan.terms], block[plan.terms], mid)
        if turns == 1:
            fine = _spread(strengths, plan, nf, fine, plan.spans)
        else:
            for g, spans in itertools.groupby(plan.spans, lambda span: (span[2] - 1) // group):
                spans, shift = tuple(spans), g * group - nf + w // 2  # column 0: a turn before
                _spread(strengths, plan, nf, fine, spans, shift)
                used = -(-(spans[-1][2] - shift + tile + w) // nf) * nf
                yield plan.first + g * group // nf - 1, fine[:, :used].reshape(rows, -1, nf)
                fine[:, :used] = 0.0
        del strengths  # not held beside the next block's
    if turns == 1:
        yield 0, fine


def _strengths(coeffs: np.ndarray, logs: np.ndarray, mid: float) -> np.ndarray:
    """Real parts over imaginary parts of coeffs[r] * exp(i mid logs): exactly
    coeffs cos(mid logs) over coeffs sin(mid logs), as 2 * rows real rows."""
    phase = mid * logs
    strengths = np.empty((2,) + coeffs.shape)
    np.multiply(np.cos(phase), coeffs, out=strengths[0])
    np.multiply(np.sin(phase), coeffs, out=strengths[1])
    return strengths.reshape(2 * coeffs.shape[0], logs.size)


def _transform(fine: np.ndarray, count: int, scale, constant: np.ndarray) -> tuple[np.ndarray, ...]:
    """(C, S) at modes j + f, j = -count//2 .., of the spread fine grids (last axis), transformed
    in place and divided by the kernel's transform there, scale: a _deconvolution row, or
    its table for a (rows, fractions, nf) fine.  constant is added to C."""
    np.fft.ifft(fine, norm="forward", out=fine)
    nf, half = fine.shape[-1], count // 2
    out_c, out_s = np.empty(fine.shape[:-1] + (count,)), np.empty(fine.shape[:-1] + (count,))
    for out, part in ((out_c, fine.real), (out_s, fine.imag)):
        np.divide(part[..., nf - half:], scale[..., :half], out=out[..., :half])
        np.divide(part[..., :count - half], scale[..., half:], out=out[..., half:])
    out_c += constant
    return out_c, out_s


def _ramp(f, nf: int, first: int, length: int) -> np.ndarray:
    """exp(2 pi i f m / nf) for m = first .. first + length - 1, as an outer product.

    The product of a coarse and a fine exponential costs about
    2 sqrt(length) complex exponentials; every angle stays as small as m.
    A column of fractions, (fractions, 1), gives one row each.
    """
    width = math.isqrt(length - 1) + 1
    theta = 2.0 * math.pi * f / nf
    coarse = np.exp(1j * theta * (width * np.arange(-(-length // width)) + first))
    ramp = coarse[..., None] * np.exp(1j * theta * np.arange(width))[..., None, :]
    return ramp.reshape(ramp.shape[:-2] + (-1,))[..., :length]


def _kernel_transform(modes: np.ndarray, nf: int) -> np.ndarray:
    """The transform of the kernel sampled on the fine grid, at real modes.

    Its w + 1 cosine terms phi(0) + 2 sum_u phi(u) cos(2 pi u mode / nf),
    u = 1 .. w/2, are a polynomial in x = cos(2 pi mode / nf) with positive
    coefficients (_kernel_poly), summed by Horner's rule with no
    cancellation for the modes |mode| <= nf/4 that the kernel reads (x >= 0);
    at integer modes it is the FFT of the sampled kernel to within 16 ulp.
    """
    poly = _kernel_poly()
    x = np.cos((2.0 * math.pi / nf) * modes)
    total = np.full(x.shape, poly[-1])
    for c in poly[-2::-1]:
        total *= x
        total += c
    return total


@lru_cache(maxsize=1)
def _kernel_poly() -> np.ndarray:
    """Monomial coefficients, lowest order first, of sum_u phi(u) cos(u theta),
    u = -w/2 .. w/2, as a polynomial in x = cos(theta); read-only.

    The Chebyshev series phi(0) + 2 sum_u phi(u) T_u(x) is converted by the
    recurrence T_(u+1) = 2x T_u - T_(u-1) in Clenshaw's backward form
    (high <- low + 2x high, low <- a_u - high), the operations of numpy's
    cheb2poly, without loading numpy.polynomial.
    """
    phi = _spread_kernel(np.arange(_SPREAD_WIDTH // 2 + 1.0))
    phi[1:] *= 2.0
    low, high = np.zeros((2, phi.size))
    low[0], high[0] = phi[-2], phi[-1]
    for a in phi[-3::-1]:
        low, high = -high, low + 2.0 * np.roll(high, 1)
        low[0] += a
    poly = low + np.roll(high, 1)
    poly.setflags(write=False)
    return poly


@lru_cache(maxsize=8)
def _fine_length(count: int) -> int:
    """Fine-grid length for count modes.

    The smallest 2^a 3^b 5^c (fast for pocketfft) of at least twice count
    and four kernel widths, which keeps the kernel's half width within pi/4
    at any count.
    """
    n = max(2 * count, 4 * _SPREAD_WIDTH)
    return min(p << (-(-n // p) - 1).bit_length()
               for p in (3**b * 5**c for b in range(20) for c in range(14)))


@lru_cache(maxsize=8)
def _deconvolution(count: int, fractions: tuple) -> np.ndarray:
    """The kernel's transform at modes i - count//2 + f, row g for f = fractions[g]; read-only,
    built once per (count, fractions) and a row at a time, with no (fractions, count)
    temporaries.  The plain grid's is the table of (0.0,)."""
    table = np.empty((len(fractions), count))
    for row, f in zip(table, fractions):
        row[:] = _kernel_transform(np.arange(count) - count // 2 + f, _fine_length(count))
    table.setflags(write=False)
    return table


def _chunks(interval: Interval, step: float, count: int, gap: float, what: str):
    """An iterator of (first, start = interval.lo + first * step, length) per chunk of
    at most _CHUNK_PANELS points of the grid interval.lo + i * step, i < count.
    Evaluation points gap apart within 4 ulp of interval.hi, which round onto each
    other, raise a NumericalError at once (what names count)."""
    ulps = 4.0 * math.ulp(interval.hi)
    if not gap > ulps:
        raise NumericalError(f"{count:.4g} {what} on [{interval.lo!r}, {interval.hi!r}] put "
                             f"neighbouring points {gap:.3g} apart near t = {interval.hi!r}, "
                             f"where 4 ulp are {ulps:.3g}: they would round onto each other", None)
    return ((first, interval.lo + first * step, min(_CHUNK_PANELS, count - first))
            for first in range(0, count, _CHUNK_PANELS))


def u_moment(table: WeightTable, j: int, t: float, part: Part | str = Part.COSINE) -> float:
    """P_j(t) = sum_n w_n^2 (log n)^j cos(t log n) (or sin), fsum-accumulated.

    With w_n^2 = (log n)^{2k} / n^{2 sigma} these are the fluctuation sums
    u(t) and its derivatives up to sign: j=0 cos gives u(t); j=1 sin gives
    -u'(t); j=2 cos gives -u''(t).
    """
    if j not in (0, 1, 2):
        raise ValueError(f"moment order j must be 0, 1 or 2, got {j}")
    part = Part(part)
    phases = t * table.logs
    osc = np.cos(phases) if part is Part.COSINE else np.sin(phases)
    return math.fsum(table.squared_weights * table.logs**j * osc)


def log_moment_sum(T: float, m: int, sigma: float) -> float:
    """Exact sum_{n <= T} (log n)^m / n^{2 sigma} by direct compensated summation."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if T < 1:
        return 0.0
    n = np.arange(1, int(math.floor(T)) + 1, dtype=np.float64)
    logs = np.log(n)
    return math.fsum(logs**m / n**(2.0 * sigma))
