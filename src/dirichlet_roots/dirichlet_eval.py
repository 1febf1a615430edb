"""Fast, numerically careful evaluation of weighted cosine/sine Dirichlet sums.

Two evaluators, cross-checked in the tests:

* direct: one point at a time, exact trig arguments, compensated (Shewchuk)
  summation via math.fsum.  Reference-quality, used for single points, for
  bisection refinement and as the grid kernel's test oracle.
* grid kernel (oscillating_sums): rows of values on a uniform t-grid, as a
  type-1 nonuniform FFT (exponential-of-semicircle spreading onto a fine
  grid, one FFT, kernel deconvolution), O(terms + grid log grid) per row.
  Each coefficient row gives the complex sums sum_n c_n exp(i t log n), so
  one transform returns its cosine sums (the real part) and its sine sums
  (the imaginary part).  Error below about 3e-13 of the row's coefficient
  L1 mass.  As in FINUFFT's plan interface, the point layout is built once
  per point set and cached.
* node streams (_oscillating_streams): the same rows on the grids
  t_i = start + (i + f)*step for several fractions f, from one spreading
  pass, then per fraction a ramp exp(2 pi i f m / nf) over signed fine
  cells m, one FFT per row and the kernel's transform at the fractional
  modes.  Valid while the spread cannot wrap (step * max log n plus the
  kernel's half width below pi), which Gauss-Legendre node streams meet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import CoefficientSample, Interval, Part, PolynomialSpec

__all__ = [
    "WeightTable",
    "make_weight_table",
    "eval_polynomial",
    "u_moment",
    "log_moment_sum",
    "oscillating_sums",
]

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


@dataclass(frozen=True)
class WeightTable:
    """Per-spec amplitude tables, precomputed once and shared read-only.

    weights[n-1] = (log n)^k / n^sigma; squared_weights are their squares.
    The m0/m2 scalars are the t = 0 moment sums sum w_n^2 (log n)^j, j = 0
    and 2, accumulated with math.fsum.
    """

    spec: PolynomialSpec
    logs: np.ndarray
    weights: np.ndarray
    squared_weights: np.ndarray
    m0: float = field(init=False)
    m2: float = field(init=False)

    def __post_init__(self) -> None:
        for arr in (self.logs, self.weights, self.squared_weights):
            arr.setflags(write=False)
        sq = self.squared_weights
        object.__setattr__(self, "m0", math.fsum(sq))
        object.__setattr__(self, "m2", math.fsum(sq * self.logs**2))

    @property
    def n_terms(self) -> int:
        return self.logs.shape[0]


def make_weight_table(spec: PolynomialSpec) -> WeightTable:
    n = np.arange(1, spec.n_terms + 1, dtype=np.float64)
    logs = np.log(n)  # log n computed directly per n; exactness over speed
    weights = logs**spec.k / n**spec.sigma  # 0**0 = 1 covers n=1 at k=0
    return WeightTable(spec=spec, logs=logs, weights=weights,
                       squared_weights=weights * weights)


def eval_polynomial(sample: CoefficientSample, table: WeightTable, t: float) -> float:
    """S(t) = sum_n X_n w_n cos(t log n) (sin for the sine part), fsum-accumulated."""
    if sample.spec != table.spec:
        raise ValueError("sample and weight table were built for different specs")
    phases = t * table.logs
    osc = np.cos(phases) if table.spec.part is Part.COSINE else np.sin(phases)
    return math.fsum(sample.values * table.weights * osc)


def _spread_kernel(offsets: np.ndarray) -> np.ndarray:
    """Exponential-of-semicircle kernel at offsets measured in fine-grid cells."""
    r = 2.0 * offsets / _SPREAD_WIDTH
    return np.exp(_SPREAD_BETA * (np.sqrt(np.maximum(1.0 - r * r, 0.0)) - 1.0))


class _Plan(NamedTuple):
    """Spreading layout of one point set; every array has one entry per point."""

    terms: np.ndarray   # indices n with logs[n] != 0, sorted by fine cell
    frac: np.ndarray    # each point's position in its fine cell
    offset: np.ndarray  # its first entry in its span's kernel block, row-major
    tile: int           # fine cells per tile
    spans: tuple        # (a, b, f): points a .. b - 1, one GEMM onto buffer column f on
    widest: int         # points in the largest span


@lru_cache(maxsize=1)
def _cached_plan(logs: bytes, step: float, count: int, rows: int) -> _Plan:
    """The _Plan of the points step * logs mod 2 pi, for count modes and rows transform rows.

    Keyed by the content of logs, so every call on one point set (chunks,
    trial blocks) shares one plan; a chunk's node streams share one
    spreading pass and differ only by the ramp after it (_oscillating_streams).
    """
    logs = np.frombuffer(logs)
    nf, w = _fine_grid(count)[0], _SPREAD_WIDTH
    pos = np.mod(step * logs, 2.0 * math.pi) * (nf / (2.0 * math.pi))
    cell = np.floor(pos).astype(np.intp)
    frac = pos - cell
    cell %= nf
    terms = np.flatnonzero(logs != 0.0)
    terms = terms[np.argsort(cell[terms], kind="stable")]
    cell, frac = cell[terms], frac[terms]
    tile = max(1, min(_TILE_CELLS, math.isqrt(_TILE_BALANCE * nf // (rows * cell.size + 1))))
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
                 max((b - a for a, b, _ in spans), default=0))


def _spread(strengths: np.ndarray, plan: _Plan, nf: int) -> np.ndarray:
    """Spread the plan's points onto a periodic fine grid.

    strengths holds the real parts of the point strengths over their
    imaginary parts (2 * rows real rows, points in plan order); the result
    is (rows, nf) complex.  A point at cell + frac covers fine cells
    cell + 1 - w/2 + k, k < w, and each span is one dense GEMM: strengths
    times a (points x (tile + w)) kernel block.  One zeroed block serves
    every span: its entries are set before the GEMM and zeroed after it.
    fine holds fine cell m at m + w/2.
    """
    rows, w, tile = strengths.shape[0] // 2, _SPREAD_WIDTH, plan.tile
    wrap = w // 2
    values = _spread_kernel(plan.frac[:, None] + (wrap - 1 - np.arange(w)))
    flat = plan.offset[:, None] + np.arange(w)
    block = np.zeros(plan.widest * (tile + w))
    fine = np.zeros((rows, nf + tile + w), dtype=np.complex128)
    re, im = fine.real, fine.imag
    for a, b, f in plan.spans:
        block[flat[a:b]] = values[a:b]
        spread = strengths[:, a:b] @ block[:(b - a) * (tile + w)].reshape(b - a, tile + w)
        block[flat[a:b]] = 0.0
        re[:, f:f + tile + w] += spread[:rows]
        im[:, f:f + tile + w] += spread[rows:]
    fine[:, nf:nf + wrap] += fine[:, :wrap]          # cells -w/2 .. -1
    fine[:, wrap:w] += fine[:, nf + wrap:nf + w]     # cells nf .. nf + w/2 - 1
    return fine[:, wrap:wrap + nf]


def oscillating_sums(logs: np.ndarray, coeffs: np.ndarray, start: float, step: float,
                     count: int, shifts: np.ndarray | tuple[float, ...] = (0.0,),
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate rows of cosine and sine sums along the uniform grid t_i = start + i*step.

    Returns (C, S) with
        C[r, i] = sum_n coeffs[r, n] * cos(t_i * logs[n])
        S[r, i] = sum_n coeffs[r, n] * sin(t_i * logs[n]),
    the real and imaginary parts of sum_n coeffs[r, n] * exp(i t_i logs[n]),
    from one transform per row.  With t_i = mid + j*step, mid the grid's
    middle node, every row is a type-1 NUFFT: modes j of the nonuniform
    points x_n = step*logs[n] mod 2 pi with strengths coeffs * exp(i mid
    logs[n]).  Points are spread onto a fine periodic grid, transformed by
    one FFT per row and divided by the kernel's own transform; terms with
    logs[n] = 0 are constant and are added exactly.  The error stays below
    about 3e-13 of each row's L1 mass.  The points' sort and tiling are
    planned once per point set, step, count and transform row count
    (_cached_plan, keyed by the content of logs), so repeated calls on one
    point set execute only the spreading and the FFTs.

    shifts, a 1-D array of S offsets, evaluates every coefficient row on
    the S grids t_i = start + shifts[g] + i*step; row r*S + g of C (of S)
    holds coefficient row r on grid g.  The default, one zero shift, is the
    plain grid.  The grids share one point set, so one plan, one
    kernel-weight table and one spreading pass serve them all.  Each shift
    enters by angle addition, as the strength factor
    exp(i mid logs[n]) * exp(i shifts[g] logs[n]); forming fl(start + shift)
    instead would add its rounding, times logs[n], to every phase alike.
    A zero shift's factor is exactly 1, so it leaves the strengths unchanged.
    """
    constant, fine = _spread_rows(logs, coeffs, start, step, count, count, shifts)
    np.fft.ifft(fine, norm="forward", out=fine)
    out_c, out_s = np.empty((fine.shape[0], count)), np.empty((fine.shape[0], count))
    _read_modes(fine, _fine_grid(count)[1], out_c, out_s)
    out_c += constant
    return out_c, out_s


def _oscillating_streams(logs: np.ndarray, coeffs: np.ndarray, start: float, step: float,
                         count: int, fractions):
    """Yield oscillating_sums' (C, S) along t_i = start + (i + f)*step for each f in fractions.

    One plan, one strength computation and one spreading pass serve every
    fraction.  With t_i = mid + (j + f)*step, the output at the fractional
    mode j + f is the transform of the spread grid times the ramp
    exp(2 pi i f m / nf) at signed fine cells m (m - nf in place of
    m >= nf/2), over the kernel's transform at j + f (Dutt and Rokhlin,
    1993).  Signed cells are the points' true positions only if the spread
    cannot wrap: logs must be nonnegative and step * max(logs) plus the
    kernel's half width pi * w / nf must stay below pi, or ValueError.
    Gauss-Legendre node streams have step * max(logs) <= pi/2, and a fine
    grid of at least 4 w cells keeps the half width within pi/4 at any
    count.  Only the signed cells -w/2 .. reach + w/2 that the points cover
    (a quarter of the grid at pi/2) are kept; each fraction ramps them back
    into the spread grid, whose strided in-place FFT needs no work copy.
    The generator holds no reference to what it yielded.
    """
    modes, wrap = max(count, 2 * _SPREAD_WIDTH), _SPREAD_WIDTH // 2
    nf = _fine_grid(modes)[0]
    reach = step * np.max(logs, initial=0.0) * nf / (2.0 * math.pi)  # in fine cells
    if not (np.min(logs, initial=0.0) >= 0.0 and reach + wrap < nf / 2):
        raise ValueError(f"logs must be nonnegative and step * max(logs) plus the kernel's "
                         f"half width below pi, got {reach * 2.0 * math.pi / nf} + "
                         f"{math.pi * _SPREAD_WIDTH / nf}: the spread grid would wrap")
    constant, fine = _spread_rows(logs, coeffs, start, step, count, modes)
    hi = int(reach) + wrap + 2  # cells hi .. nf - wrap - 1 hold no point's support
    support = np.concatenate((fine[:, nf - wrap:], fine[:, :hi]), axis=1)
    for f in fractions:  # each fraction's transform overwrites the spread grid
        yield _fractional_modes(support, fine, count, f, constant)


def _spread_rows(logs, coeffs, start, step, count, modes, shifts=(0.0,)):
    """Checked constant terms and spread fine grid of oscillating_sums' rows.

    The fine grid is that of modes >= count modes, and the strengths carry
    the phase of the grid's middle node start + (count // 2) * step.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if not 0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    shifts = np.asarray(shifts, dtype=np.float64)
    if not (math.isfinite(start) and np.isfinite(shifts).all()):
        raise ValueError("start and shifts must be finite")
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=np.float64))
    rows = coeffs.shape[0] * shifts.size
    constant = np.repeat(coeffs[:, logs == 0.0].sum(axis=1)[:, None], shifts.size, axis=0)
    plan = _cached_plan(np.asarray(logs, dtype=np.float64).tobytes(), step, modes, rows)
    phase = (start + count // 2 * step) * logs[plan.terms]
    strengths = _shifted_strengths(coeffs[:, plan.terms], phase, shifts, logs[plan.terms])
    return constant, _spread(strengths, plan, _fine_grid(modes)[0])


def _shifted_strengths(coeffs: np.ndarray, phase: np.ndarray, shifts: np.ndarray,
                       logs: np.ndarray) -> np.ndarray:
    """Real parts over imaginary parts of coeffs[r] * exp(i (phase + shifts[g] logs)).

    Row r*S + g of each half holds coefficient row r and shift g.  The
    shift's factor multiplies exp(i phase) by angle addition.
    """
    cp, sp = np.cos(phase), np.sin(phase)
    angles = np.outer(shifts, logs)
    cs, sn = np.cos(angles), np.sin(angles)
    strengths = np.empty((2, coeffs.shape[0]) + angles.shape)
    np.multiply(coeffs[:, None], cp * cs - sp * sn, out=strengths[0])
    np.multiply(coeffs[:, None], sp * cs + cp * sn, out=strengths[1])
    return strengths.reshape(2 * coeffs.shape[0] * len(angles), logs.size)


def _read_modes(spectrum: np.ndarray, scale: np.ndarray, out_c: np.ndarray,
                out_s: np.ndarray) -> None:
    """Modes -count//2 .. of the transformed fine grid, over scale, into out_c and out_s."""
    nf, count = spectrum.shape[-1], out_c.shape[-1]
    half = count // 2
    for out, part in ((out_c, spectrum.real), (out_s, spectrum.imag)):
        np.divide(part[..., nf - half:], scale[:half], out=out[..., :half])
        np.divide(part[..., :count - half], scale[half:], out=out[..., half:])


def _fractional_modes(support: np.ndarray, grid: np.ndarray, count: int, f: float,
                      constant: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One fraction's (C, S) from the support of the spread grid (see _oscillating_streams).

    support holds signed fine cells -w/2 .. hi - 1 in order; grid, of nf
    cells, receives them ramped, zeros elsewhere, and their transform.
    """
    wrap, nf = _SPREAD_WIDTH // 2, grid.shape[1]
    hi = support.shape[1] - wrap
    ramp = _ramp(f, nf, -wrap, support.shape[1])
    np.multiply(support[:, wrap:], ramp[wrap:], out=grid[:, :hi])
    np.multiply(support[:, :wrap], ramp[:wrap], out=grid[:, nf - wrap:])
    del ramp  # not held beside the FFT's work buffer
    grid[:, hi:nf - wrap] = 0.0
    np.fft.ifft(grid, norm="forward", out=grid)
    scale = _kernel_transform(np.arange(count) - count // 2 + f, nf)
    out_c, out_s = np.empty((grid.shape[0], count)), np.empty((grid.shape[0], count))
    _read_modes(grid, scale, out_c, out_s)
    out_c += constant
    return out_c, out_s


def _ramp(f: float, nf: int, first: int, length: int) -> np.ndarray:
    """exp(2 pi i f m / nf) for m = first .. first + length - 1, as an outer product.

    The product of a coarse and a fine exponential costs about
    2 sqrt(length) complex exponentials; every angle stays as small as m.
    """
    width = math.isqrt(length - 1) + 1
    theta = 2.0 * math.pi * f / nf
    coarse = np.exp(1j * theta * (width * np.arange(-(-length // width)) + first))
    return np.multiply.outer(coarse, np.exp(1j * theta * np.arange(width))).ravel()[:length]


def _kernel_transform(modes: np.ndarray, nf: int) -> np.ndarray:
    """The transform of the kernel sampled on the fine grid, at real modes.

    Its w + 1 cosine terms phi(0) + 2 sum_u phi(u) cos(2 pi u mode / nf),
    u = 1 .. w/2, are a polynomial in x = cos(2 pi mode / nf) with positive
    coefficients (_kernel_poly), summed by Horner's rule with no
    cancellation for the modes |mode| <~ nf/4 that streams read (x >~ 0);
    at integer modes it equals _fine_grid's FFT of the sampled kernel to a
    few ulp.
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
    u = -w/2 .. w/2, as a polynomial in cos(theta); read-only."""
    phi = _spread_kernel(np.arange(_SPREAD_WIDTH // 2 + 1.0))
    phi[1:] *= 2.0
    poly = np.polynomial.chebyshev.cheb2poly(phi)
    poly.setflags(write=False)
    return poly


@lru_cache(maxsize=8)
def _fine_grid(count: int) -> tuple[int, np.ndarray]:
    """Fine-grid length for count modes, and the kernel's transform on it.

    The length is the smallest 2^a 3^b 5^c (fast for pocketfft) of at least
    twice count and twice the kernel width.  The transform is that of the
    kernel sampled on the fine grid, at the modes i - count//2, read-only.
    """
    n = max(2 * count, 2 * _SPREAD_WIDTH)
    nf = min(p << (-(-n // p) - 1).bit_length()
             for p in (3**b * 5**c for b in range(20) for c in range(14)))
    wrap = _SPREAD_WIDTH // 2
    kernel = np.zeros(nf)
    kernel[:wrap + 1] = _spread_kernel(np.arange(wrap + 1.0))
    kernel[nf - wrap:] = kernel[wrap:0:-1]
    scale = np.fft.rfft(kernel).real[np.abs(np.arange(count) - count // 2)]
    scale.setflags(write=False)
    return nf, scale


def _grid_values(table: WeightTable, coeffs: np.ndarray, interval: Interval,
                 step: float) -> tuple[float, np.ndarray]:
    """Rows of S on a uniform grid covering the interval, from one kernel call.

    coeffs holds one row of X_n w_n per realization.  The step is snapped
    down to length / ceil(length / step), so the grid lo + i * step ends
    exactly at interval.hi and halving the snapped step gives a nested grid
    (the root counts' monotonicity under refinement rests on it).  Returns
    the snapped step and the (rows, points) values; the kernel's tile width
    depends on the row count, so callers that need values independent of
    how rows are grouped keep that count fixed.
    """
    if not 0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    m = max(1, math.ceil(interval.length / step - 1e-12))
    actual = interval.length / m
    sums = oscillating_sums(table.logs, coeffs, interval.lo, actual, m + 1)
    return actual, sums[table.spec.part is Part.SINE]


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
