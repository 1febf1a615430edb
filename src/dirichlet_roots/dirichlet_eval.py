"""Fast, numerically careful evaluation of weighted cosine/sine Dirichlet sums.

Two evaluators, cross-checked in the tests:

* direct: one point at a time, exact trig arguments, compensated (Shewchuk)
  summation via math.fsum.  Reference-quality, used for single points, for
  bisection refinement and as the grid kernel's test oracle.
* grid kernel (oscillating_sums): rows of values on the uniform t-grids
  t_i = start + (i + f)*step for one or more fractions f, as a type-1
  nonuniform FFT (exponential-of-semicircle spreading onto a fine grid,
  FFTs, kernel deconvolution), O(terms + grid log grid) per row and
  fraction.  A row's complex sums sum_n c_n exp(i t log n) hold its cosine
  sums (real parts) and sine sums (imaginary parts); a caller names the
  parts it reads.  Error below about 3e-13 of the row's coefficient L1
  mass, plus the eps |t| ||c_n log n||_2 by which any evaluator's rounded
  phases t log n differ.  One spreading pass serves every fraction, and
  point layouts and deconvolution factors are cached, as in FINUFFT.
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
# runs one GEMM per span of cell-sorted points, whose dense kernel block
# has points x (cells spanned + width) entries: a span takes points while
# that product stays within _TILE_BALANCE // rows, and at most
# _TILE_POINTS of them, which balances the fixed cost of a GEMM call
# against the work of its block wherever the points are dense or sparse.
_SPREAD_WIDTH = 16
_SPREAD_BETA = 2.30 * _SPREAD_WIDTH
_TILE_POINTS = 4096
_TILE_BALANCE = 100_000
_GROUP_ELEMS = 500_000  # strength entries (rows x terms) per term block: _spread_rows
# Points per kernel call on a long grid (_chunks: Monte Carlo's grid points,
# deterministic EK's panels), which bounds a chunk's memory at any T (README).
# A grid of more points than _MAX_GRID_POINTS would run for days: a usage error.
_CHUNK_PANELS = 2**17
_MAX_GRID_POINTS = 2**32
# Plans kept by _cached_plan: a call with more term blocks builds its plans uncached.
_PLAN_SLOTS = 8


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
    spans: tuple        # (a, b, f, width): points a .. b - 1, one GEMM onto width columns from f
    block: int          # entries of the largest span's kernel block
    first: int          # the whole turn of cell 0; cells count on through the later turns


@lru_cache(maxsize=_PLAN_SLOTS)
def _cached_plan(logs: bytes, step: float, count: int, budget: int) -> _Plan:
    """The _Plan of the points step * logs, for count modes, in spans of at most budget entries.

    A point x = 2 pi k + 2 pi p / nf (whole turns k, fine-grid position p)
    lies in cell (k - first) nf + floor(p): cells 0 .. nf - 1 where every
    point lies in turn 0, and one segment of nf cells per turn otherwise.
    A span starts at its first point's cell c and takes the cell-sorted
    points that follow while points x width stays within budget (one
    always, _TILE_POINTS at most), width = its last point's cell - c + w:
    its kernel block's columns, cells c + 1 - w/2 on.  Keyed by the content
    of logs, so every call on one point set (chunks, trial blocks) shares
    one plan; each term block has its own, up to _PLAN_SLOTS, and
    _spread_rows bypasses the cache where a call has more blocks, which
    would evict every plan before its next use.
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
    limit, starts, a = max(1, min(_TILE_POINTS, budget // w)), [], 0  # a width is at least w
    while a < cell.size:  # points x width through each next point: nondecreasing
        window = cell[a:a + limit]
        starts.append(a)
        a += max(1, int(np.searchsorted(np.arange(1, window.size + 1) * (window - window[0] + w),
                                        budget, side="right")))
    bounds = np.array(starts + [a])
    starts, counts = bounds[:-1], np.diff(bounds)
    widths = cell[bounds[1:] - 1] - cell[starts] + w
    lead = np.repeat(starts, counts)
    offset = cell - cell[lead] + np.repeat(widths, counts) * (np.arange(cell.size) - lead)
    for arr in (terms, frac, offset):
        arr.setflags(write=False)  # shared by every caller of the cache
    spans = zip(starts.tolist(), bounds[1:].tolist(), (cell[starts] + 1).tolist(), widths.tolist())
    return _Plan(terms, frac, offset, tuple(spans), int(np.max(counts * widths, initial=0)), first)


def _spread(strengths: np.ndarray, plan: _Plan, nf: int, fine, spans: tuple,
            shift: int = 0) -> np.ndarray:
    """Add the points of the plan's spans, spread, into fine (new and zeroed if None).

    strengths holds the real parts of the point strengths over their
    imaginary parts (2 * rows real rows, points in plan order); fine is
    complex with rows rows and holds fine cell m at m + w/2 - shift (the
    new grid: cells -w/2 .. nf + w/2 - 1 of turn 0, shift 0).  A point at
    cell + frac covers fine cells cell + 1 - w/2 + k, k < w, and each span
    is one GEMM of strengths and its dense (points x width) kernel block,
    set in one zeroed array the size of the plan's largest and zeroed after.
    Kernel weights exist for the spans' points only, scatter indices per span.
    """
    lo, hi = (spans[0][0], spans[-1][1]) if spans else (0, 0)
    rows, w = strengths.shape[0] // 2, _SPREAD_WIDTH
    block = np.zeros(plan.block)
    values = _spread_kernel(plan.frac[lo:hi, None] + (w // 2 - 1 - np.arange(w)))
    if fine is None:  # made after the block and the weights: README, "Cost at large T"
        fine = np.zeros((rows, nf + w), dtype=np.complex128)
    re, im = fine.real, fine.imag
    for a, b, f, width in spans:
        flat = plan.offset[a:b, None] + np.arange(w)
        block[flat] = values[a - lo:b - lo]
        spread = strengths[:, a:b] @ block[:(b - a) * width].reshape(b - a, width)
        block[flat] = 0.0
        re[:, f - shift:f - shift + width] += spread[:rows]
        im[:, f - shift:f - shift + width] += spread[rows:]
    return fine


def oscillating_sums(logs: np.ndarray, coeffs: np.ndarray, parts, start: float, step: float,
                     count: int, fractions=(0.0,)):
    """Yield (g, sums): the requested parts of the rows along t_i = start + (i + f_g)*step.

    parts lists (row, part) requests, and sums[q] holds, for parts[q] = (r, part),
        sum_n coeffs[r, n] * cos(t_i * logs[n])   (Part.COSINE)
        sum_n coeffs[r, n] * sin(t_i * logs[n])   (Part.SINE),
    the real or imaginary part of sum_n coeffs[r, n] * exp(i t_i logs[n]);
    the default, one zero fraction, is the plain grid.  Every fraction lies
    in [0, 1].  With t_i = mid + (j + f)*step, mid the grid's middle node,
    every row is a type-1 NUFFT: modes j + f of the points x_n = step*logs[n]
    with strengths coeffs * exp(i mid logs[n]).  Points are spread onto a
    fine periodic grid once per call (in term blocks, _spread_rows),
    transformed by FFT and divided by the kernel's own transform at j + f;
    terms with logs[n] = 0 are constant and are added exactly.  The error
    stays below about 3e-13 of each row's L1 mass plus the phase rounding
    eps |t| ||coeffs[r] logs||_2 that any evaluator of t * logs[n] shares.
    The points' sort and spans are planned once per term block and grid
    (_cached_plan, keyed by the content of logs) and the deconvolution once
    per grid (_deconvolution), so repeated calls only spread and transform.

    A fraction enters without trig per term: as the ramp exp(2 pi i f m /
    nf) over the fine cells m, and as exp(2 pi i f k) per whole turn k of
    the points (Dutt and Rokhlin, 1993; README, "Notes on accuracy").
    Where every point lies in turn 0, the plain grid takes one FFT per row,
    and fractions in mirror pairs, f_g + f_(n-1-g) == 1 as Gauss-Legendre
    node fractions come, one FFT per pair and request (_mirror_pairs), in
    pair order 0, n - 1, 1, n - 2, ... (the middle node of an odd rule
    alone); the generator holds no reference to what it yielded once the
    next pair is made.  Otherwise the rows are spread once onto one segment
    of nf cells per turn (_spread_rows), and one turn table per group of
    turns, one ramp, one FFT per row and one deconvolution serve every
    fraction, yielded in order.
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
    requests = [(int(r), Part(part) is Part.SINE) for r, part in parts]
    if not requests or not all(0 <= r < coeffs.shape[0] for r, _ in requests):
        raise ValueError(f"parts must name rows among the {coeffs.shape[0]} rows, got {parts}")
    constant = coeffs[:, logs == 0.0].sum(axis=1)[:, None]
    rows, nf, wrap, n = coeffs.shape[0], _fine_length(count), _SPREAD_WIDTH // 2, fractions.size
    ends = step * float(np.min(logs, initial=0.0)), step * float(np.max(logs, initial=0.0))
    turns = int(_turns(ends[1], nf) - _turns(ends[0], nf)) + 1  # the ends take in turn 0
    if turns > 1 or not np.all(fractions[:n // 2] + fractions[::-1][:n // 2] == 1.0):
        column, grids = fractions[:, None], None
        for first, segments in _spread_rows(logs, coeffs, start, step, count, turns):
            turned = _ramp(column, 1, first, segments.shape[1]) @ segments  # whole turns
            grids = turned if grids is None else np.add(grids, turned, out=grids)
            del turned  # not held beside the next group's
        grids = np.zeros((rows, n, nf), complex) if grids is None else grids  # no log n != 0
        grids *= _ramp(column, nf, 0, nf)
        sums = _transform(grids, count, _deconvolution(count, tuple(fractions.tolist())),
                          constant[:, None], requests)
        for g in range(n):
            yield g, sums[:, g]
        return
    (_, fine), = _spread_rows(logs, coeffs, start, step, count, 0)
    del coeffs  # spread: not held beside the fine grid
    hi = min(int(ends[1] * nf / (2.0 * math.pi)) + wrap + 2, nf + wrap)  # cells -w/2 .. hi - 1
    if fractions.size == 1 and fractions[0] == 0.0:  # the plain grid
        fine[:, nf:nf + wrap] += fine[:, :wrap]  # the halo folds onto its images
        if hi > nf:
            fine[:, wrap:2 * wrap] += fine[:, nf + wrap:nf + 2 * wrap]
        yield 0, _transform(fine[:, wrap:wrap + nf], count, _deconvolution(count, (0.0,))[0],
                            constant, requests)
        return
    re, im = (np.multiply(part[:, :hi + wrap], 0.5) for part in (fine.real, fine.imag))  # exact
    grid = fine[:, :nf] if len(requests) <= rows else np.empty((len(requests), nf), complex)
    del fine  # the spread lives on in its halved support
    yield from _mirror_pairs(re, im, grid, count, fractions, constant, requests)


def _mirror_pairs(re: np.ndarray, im: np.ndarray, grid: np.ndarray, count: int,
                  fractions: np.ndarray, constant: np.ndarray, requests):
    """Yield oscillating_sums' (g, sums) from a spread in turn 0, one FFT per node pair and request.

    re and im hold the halves a and b of the real and imaginary parts of
    each row's spread g = 2 (a + i b), on cells -w/2 .. hi - 1.  A cosine
    request's real array u(m) = (a + b)(m) + (a - b)(-m), ramped, folded
    onto the period and transformed, gives fraction g's sums at modes j +
    f_g and those of its mirror n - 1 - g at -j - 1 + (1 - f_g), the
    half-length trick of Cooley, Lewis and Welch (README, "Notes on
    accuracy"); a sine request is the cosine request of -i g = b - i a.  Fractions g and n - 1 - g
    make a pair (f_g + f_(n-1-g) == 1, as oscillating_sums checks), and the
    pairs run in order 0, n - 1, 1, n - 2, ...; the middle node of an odd
    rule runs alone.  Modes -c .. c - 1, c = count - count//2, serve both
    fractions of a pair: the fraction reads them from c - count//2 on, and
    its mirror the first count, reversed.

    grid, of at least one row per request, holds every request's transform
    at once; each fraction's sums are read from it when asked for, so the
    generator holds no sums it has yielded, and a request's u and a pair's
    ramp live until its FFT only.
    """
    nf, wrap, n = grid.shape[1], _SPREAD_WIDTH // 2, fractions.size
    hi, h, c = re.shape[1] - wrap, count // 2, count - count // 2
    jobs = [(g, n - 1 - g) for g in range((n + 1) // 2)]  # (g, mirror)
    steps, gaps = _fold_steps(1 - hi, 2 * hi - 1, nf)
    offsets = [(k, float(constant[r, 0])) for k, (r, sine) in enumerate(requests)
               if not sine and constant[r, 0]]
    y = grid[:len(requests)]
    low, up = y[:, nf - c:], y[:, :c]  # modes -c .. -1 and 0 .. c - 1
    low_re, low_im, up_re, up_im = low.real, low.imag, up.real, up.imag

    def read(op, first, scale):  # count sums from mode first - c on, reversed if first is None
        sums = np.empty((len(requests), count))
        out, first = (sums[:, ::-1], 0) if first is None else (sums, first)
        op(low_re[:, first:], low_im[:, first:], out=out[:, :c - first])
        op(up_re[:, :h + first], up_im[:, :h + first], out=out[:, c - first:])
        out /= scale[first:first + count]
        for k, offset in offsets:
            sums[k] += offset
        return sums

    table = _deconvolution(count, tuple(fractions[:len(jobs)].tolist()))
    for (g, mirror), scale in zip(jobs, table):
        ramp = _ramp(fractions[g], nf, 1 - hi, 2 * hi - 1)
        for k, (r, sine) in enumerate(requests):
            x, z, direct, reflect = ((im[r], re[r], np.subtract, np.add) if sine else
                                     (re[r], im[r], np.add, np.subtract))
            u = np.empty(2 * hi - 1)  # cell m at m + hi - 1
            direct(x, z, out=u[hi - 1 - wrap:])
            reflect(x[:2 * wrap:-1], z[:2 * wrap:-1], out=u[:hi - 1 - wrap])
            u[hi - 1 - wrap:hi + wrap] += reflect(x[2 * wrap::-1], z[2 * wrap::-1])
            for i, j, m, add in steps:
                if add:
                    y[k, j:j + m] += u[i:i + m] * ramp[i:i + m]
                else:
                    np.multiply(u[i:i + m], ramp[i:i + m], out=y[k, j:j + m])
        del ramp, u  # not held beside the FFT's work buffer
        for lo, top in gaps:
            y[:, lo:top] = 0.0
        np.fft.ifft(y, norm="forward", out=y)
        yield g, read(np.subtract, c - h, scale)
        if mirror != g:
            yield mirror, read(np.add, None, scale)


def _fold_steps(first: int, length: int, nf: int):
    """How cells first .. first + length - 1 fold onto the period's cells 0 .. nf - 1.

    Returns steps (i, k, n, add), each taking cells first + i .. first + i + n - 1
    onto period cells k .. k + n - 1: written in the first nf cells, added
    after them; and the (lo, hi) ranges of period cells that no cell reaches.
    """
    steps, i = [], 0
    while i < length:
        k = (first + i) % nf
        n = min(nf - k, length - i, nf - i if i < nf else length)
        steps.append((i, k, n, i >= nf))
        i += n
    lo, gap = (first + length) % nf, max(0, nf - length)
    return steps, [(a, b) for a, b in ((lo, min(lo + gap, nf)), (0, lo + gap - nf)) if a < b]


def _turns(x: float, nf: int) -> float:
    """Whole turns k of the point x = 2 pi k + 2 pi p / nf, with its fine-grid
    position p as _cached_plan places it: a p that rounds up to nf is cell 0
    of the next turn.  Python's divmod on floats is numpy's on arrays."""
    turns, rest = divmod(x, 2.0 * math.pi)
    return turns + (rest * (nf / (2.0 * math.pi)) >= nf)


def _spread_rows(logs, coeffs, start, step, count, turns):
    """Yield (first turn, grid) pairs: oscillating_sums' rows, spread but not folded.

    The strengths are coeffs * exp(i mid logs), mid = start + (count // 2)
    * step.  Terms run in blocks, each with its own plan (spans of at most
    _TILE_BALANCE // rows kernel-block entries), strengths and kernel
    weights, alive only while it is spread.  With turns == 0 (every point
    in turn 0), blocks of _GROUP_ELEMS // rows terms add into one grid of
    signed cells -w/2 .. nf + w/2 - 1, yielded once.  Otherwise, over that
    many turns, blocks of _GROUP_ELEMS // (rows * w) terms (kernel weights
    count) spread their spans in groups of _GROUP_ELEMS // (2 * rows * nf)
    turns by first cell into one reused buffer, sized by the widest group,
    each yielded as (rows, segments, nf) before the next: segment j holds
    cells 0 .. nf - 1 of turn first + j, halos included.
    """
    rows, w = coeffs.shape[0], _SPREAD_WIDTH
    nf, mid = _fine_length(count), start + count // 2 * step
    size = max(1, _GROUP_ELEMS // (rows * (1 if turns == 0 else w)))
    group = nf * max(1, min(turns, _GROUP_ELEMS // (2 * rows * nf)))  # cells per group of turns
    fine, budget = None, max(1, _TILE_BALANCE // rows)
    planner = _cached_plan if -(-logs.size // size) <= _PLAN_SLOTS else _cached_plan.__wrapped__
    for a in range(0, max(logs.size, 1), size):
        block = logs[a:a + size]
        plan = planner(block.tobytes(), step, count, budget)
        groups = []  # (g, spans, shift, columns used): column 0 is cell g * group - nf
        for g, spans in itertools.groupby(plan.spans if turns else (),
                                          lambda span: (span[2] - 1) // group):
            spans, shift = tuple(spans), g * group - nf + w // 2
            groups.append((g, spans, shift, -(-(spans[-1][2] - shift + spans[-1][3]) // nf) * nf))
        used = max((u for *_, u in groups), default=0)
        if used > (0 if fine is None else fine.shape[1]):  # before the strengths: README
            fine = np.zeros((rows, used), dtype=np.complex128)
        strengths = _strengths(coeffs[:, a + plan.terms], block[plan.terms], mid)
        if turns == 0:
            fine = _spread(strengths, plan, nf, fine, plan.spans)
        else:
            for g, spans, shift, used in groups:
                _spread(strengths, plan, nf, fine, spans, shift)
                yield plan.first + g * group // nf - 1, fine[:, :used].reshape(rows, -1, nf)
                fine[:, :used] = 0.0
        del strengths  # not held beside the next block's
    if turns == 0:
        yield 0, fine


def _strengths(coeffs: np.ndarray, logs: np.ndarray, mid: float) -> np.ndarray:
    """Real parts over imaginary parts of coeffs[r] * exp(i mid logs): exactly
    coeffs cos(mid logs) over coeffs sin(mid logs), as 2 * rows real rows."""
    phase = mid * logs
    strengths = np.empty((2,) + coeffs.shape)
    np.multiply(np.cos(phase), coeffs, out=strengths[0])
    np.multiply(np.sin(phase), coeffs, out=strengths[1])
    return strengths.reshape(2 * coeffs.shape[0], logs.size)


def _transform(fine: np.ndarray, count: int, scale: np.ndarray, constant: np.ndarray,
               requests) -> np.ndarray:
    """The requested parts at modes j + f, j = -count//2 .., of the spread fine grids.

    fine has rows on its first axis and modes on its last; it is transformed
    in place and divided by the kernel's transform there, scale: a
    _deconvolution row, or its table for a (rows, fractions, nf) fine.
    requests lists (row, sine) pairs; constant[row] is added to a cosine part.
    Requests of one part on consecutive rows are divided as one block.
    """
    np.fft.ifft(fine, norm="forward", out=fine)
    nf, half = fine.shape[-1], count // 2
    scale = scale[..., count - 2 * half:]  # modes -c .. c - 1 from -count//2
    out = np.empty((len(requests),) + fine.shape[1:-1] + (count,))
    runs = []  # [q, r, n, sine]: requests q .. q + n - 1 read rows r .. r + n - 1
    for q, (r, sine) in enumerate(requests):
        if runs and runs[-1][3] == sine and runs[-1][1] + runs[-1][2] == r:
            runs[-1][2] += 1
        else:
            runs.append([q, r, 1, sine])
    for q, r, n, sine in runs:
        part, dst = (fine[r:r + n].imag if sine else fine[r:r + n].real), out[q:q + n]
        np.divide(part[..., nf - half:], scale[..., :half], out=dst[..., :half])
        np.divide(part[..., :count - half], scale[..., half:count], out=dst[..., half:])
        if not sine:
            dst += constant[r:r + n]
    return out


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
    It overwrites modes, a float array, and allocates one array of its size.
    """
    poly = _kernel_poly()
    x = np.cos(np.multiply(modes, 2.0 * math.pi / nf, out=modes), out=modes)
    total = np.full(x.shape, poly[-1])
    for c in poly[-2::-1]:
        total *= x
        total += c
    return total


@lru_cache(maxsize=1)
def _kernel_poly() -> np.ndarray:
    """Monomial coefficients, lowest order first, of sum_u phi(u) cos(u theta),
    u = -w/2 .. w/2, as a polynomial in x = cos(theta); read-only.  numpy's
    cheb2poly of phi(0) + 2 sum_u phi(u) T_u(x), without loading numpy.polynomial (README)."""
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
    """The kernel's transform at modes q - c + f, q < 2c, c = count - count//2, row g for
    f = fractions[g]; read-only, built once per (count, fractions).

    A fraction's modes j + f, j = -count//2 .., are columns count - 2 (count//2) on;
    a mirror pair's are all 2c columns (_mirror_pairs).  The plain grid's is the table of (0.0,).
    Rows are filled in blocks of at most 2^14 entries (a longer row alone), whose temporaries
    glibc's malloc keeps on its heap: larger ones, freed, raised the peak RSS (README).
    """
    c, nf = count - count // 2, _fine_length(count)
    table, rows = np.empty((len(fractions), 2 * c)), max(1, 2**14 // (2 * c))
    for g in range(0, len(fractions), rows):
        table[g:g + rows] = _kernel_transform(np.add.outer(fractions[g:g + rows],
                                                           np.arange(2 * c) - c), nf)
    table.setflags(write=False)
    return table


def _chunks(interval: Interval, step: float, count: int, gap: float, what: str):
    """An iterator of (first, start = interval.lo + first * step, length) per chunk of
    at most _CHUNK_PANELS points of the grid interval.lo + i * step, i < count.
    Evaluation points gap apart within 4 ulp of interval.hi, which round onto each
    other, raise a NumericalError at once (what names count), and then more than
    _MAX_GRID_POINTS points a ValueError."""
    ulps = 4.0 * math.ulp(interval.hi)
    if not gap > ulps:
        raise NumericalError(f"{count:.4g} {what} on [{interval.lo!r}, {interval.hi!r}] put "
                             f"neighbouring points {gap:.3g} apart near t = {interval.hi!r}, "
                             f"where 4 ulp are {ulps:.3g}: they would round onto each other", None)
    if count > _MAX_GRID_POINTS:
        raise ValueError(f"{count:,} {what} on [{interval.lo!r}, {interval.hi!r}] are more "
                         f"than the {_MAX_GRID_POINTS:,} allowed")
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
