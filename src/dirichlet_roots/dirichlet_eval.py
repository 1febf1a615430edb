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
  3e-13 of the row's coefficient L1 mass.  One spreading pass serves every
  fraction: the kernel applies a ramp after it where the spread cannot
  wrap (Gauss-Legendre node streams), and angle addition in the strengths
  otherwise.  As in FINUFFT's plan interface, the point layout is built
  once per point set and cached.
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
    trial blocks) shares one plan.
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
                     count: int, fractions=(0.0,)):
    """Yield rows of cosine and sine sums along t_i = start + (i + f)*step for each f in fractions.

    Yields, fraction by fraction, (C, S) with
        C[r, i] = sum_n coeffs[r, n] * cos(t_i * logs[n])
        S[r, i] = sum_n coeffs[r, n] * sin(t_i * logs[n]),
    the real and imaginary parts of sum_n coeffs[r, n] * exp(i t_i logs[n]);
    the default, one zero fraction, is the plain grid.  With t_i = mid +
    (j + f)*step, mid the grid's middle node, every row is a type-1 NUFFT:
    modes j + f of the nonuniform points x_n = step*logs[n] mod 2 pi with
    strengths coeffs * exp(i mid logs[n]).  Points are spread onto a fine
    periodic grid once per call, transformed by one FFT per row and divided
    by the kernel's own transform; terms with logs[n] = 0 are constant and
    are added exactly.  The error stays below about 3e-13 of each row's L1
    mass.  The points' sort and tiling are planned once per point set,
    step, count and transform row count (_cached_plan, keyed by the content
    of logs), so repeated calls execute only the spreading and the FFTs.

    The kernel picks how the fractions enter.  Several fractions in [0, 1]
    on a spread that cannot wrap (logs nonnegative, and step * max(logs)
    plus the kernel's half width pi * w / nf below pi, as on Gauss-Legendre
    node streams) ramp the spread grid by exp(2 pi i f m / nf) over signed
    fine cells m (Dutt and Rokhlin, 1993), one fraction's transform at a
    time; only the cells the points cover are kept between fractions.
    Otherwise each fraction enters the strengths by angle addition, as the
    factor exp(i f step logs[n]), and one FFT serves them all: forming
    fl(start + f*step) instead would add its rounding, times logs[n], to
    every phase alike, and a zero fraction's factor is exactly 1.  On the
    ramp path the generator holds no reference to what it yielded.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if not 0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    fractions = np.asarray(fractions, dtype=np.float64)
    if not (math.isfinite(start) and np.isfinite(fractions).all()):
        raise ValueError("start and fractions must be finite")
    nf, wrap = _fine_grid(count)[0], _SPREAD_WIDTH // 2
    reach = step * np.max(logs, initial=0.0) * nf / (2.0 * math.pi)  # in fine cells
    ramped = (fractions.size > 1 and 0.0 <= fractions.min() and fractions.max() <= 1.0
              and np.min(logs, initial=0.0) >= 0.0 and reach + wrap < nf / 2)
    shifts = np.zeros(1) if ramped else fractions * step
    constant, fine = _spread_rows(logs, coeffs, start, step, count, shifts)
    if not ramped:
        out_c, out_s = _transform(fine, count, 0.0, constant)
        del fine  # not held while the sums are read
        for g in range(shifts.size):  # row r*G + g holds coefficient row r, fraction g
            yield out_c[g::shifts.size], out_s[g::shifts.size]
        return
    hi = int(reach) + wrap + 2  # cells hi .. nf - wrap - 1 hold no point's support
    support = np.concatenate((fine[:, nf - wrap:], fine[:, :hi]), axis=1)
    for f in fractions:  # each fraction's transform overwrites the spread grid
        ramp = _ramp(f, nf, -wrap, support.shape[1])
        np.multiply(support[:, wrap:], ramp[wrap:], out=fine[:, :hi])
        np.multiply(support[:, :wrap], ramp[:wrap], out=fine[:, nf - wrap:])
        del ramp  # not held beside the FFT's work buffer
        fine[:, hi:nf - wrap] = 0.0
        yield _transform(fine, count, f, constant)


def _spread_rows(logs, coeffs, start, step, count, shifts):
    """Constant terms and spread fine grid of oscillating_sums' rows on the shifted grids.

    The strengths carry the phase of the grid's middle node start +
    (count // 2) * step; row r*G + g holds coefficient row r and shift g.
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=np.float64))
    constant = np.repeat(coeffs[:, logs == 0.0].sum(axis=1)[:, None], shifts.size, axis=0)
    plan = _cached_plan(np.asarray(logs, dtype=np.float64).tobytes(), step, count,
                        coeffs.shape[0] * shifts.size)
    phase = (start + count // 2 * step) * logs[plan.terms]
    strengths = _shifted_strengths(coeffs[:, plan.terms], phase, shifts, logs[plan.terms])
    return constant, _spread(strengths, plan, _fine_grid(count)[0])


def _shifted_strengths(coeffs: np.ndarray, phase: np.ndarray, shifts: np.ndarray,
                       logs: np.ndarray) -> np.ndarray:
    """Real parts over imaginary parts of coeffs[r] * exp(i (phase + shifts[g] logs)).

    Row r*G + g of each half holds coefficient row r and shift g.  The
    shift's factor multiplies exp(i phase) by angle addition.
    """
    cp, sp = np.cos(phase), np.sin(phase)
    angles = np.outer(shifts, logs)
    cs, sn = np.cos(angles), np.sin(angles)
    strengths = np.empty((2, coeffs.shape[0]) + angles.shape)
    np.multiply(coeffs[:, None], cp * cs - sp * sn, out=strengths[0])
    np.multiply(coeffs[:, None], sp * cs + cp * sn, out=strengths[1])
    return strengths.reshape(2 * coeffs.shape[0] * len(angles), logs.size)


def _transform(fine: np.ndarray, count: int, f: float,
               constant: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C, S) at modes j + f, j = -count//2 .., of the spread fine grid, transformed in place.

    The modes are divided by the kernel's transform there, cached for f = 0
    (_fine_grid) and computed after the FFT otherwise; constant is added to C.
    """
    np.fft.ifft(fine, norm="forward", out=fine)
    nf, half = fine.shape[1], count // 2
    scale = (_kernel_transform(np.arange(count) - half + f, nf) if f
             else _fine_grid(count)[1])
    out_c, out_s = np.empty((fine.shape[0], count)), np.empty((fine.shape[0], count))
    for out, part in ((out_c, fine.real), (out_s, fine.imag)):
        np.divide(part[:, nf - half:], scale[:half], out=out[:, :half])
        np.divide(part[:, :count - half], scale[half:], out=out[:, half:])
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
def _fine_grid(count: int) -> tuple[int, np.ndarray]:
    """Fine-grid length for count modes, and the kernel's transform at the modes i - count//2.

    The length is the smallest 2^a 3^b 5^c (fast for pocketfft) of at least
    twice count and four kernel widths, which keeps the kernel's half width
    within pi/4 at any count; the transform is read-only.
    """
    n = max(2 * count, 4 * _SPREAD_WIDTH)
    nf = min(p << (-(-n // p) - 1).bit_length()
             for p in (3**b * 5**c for b in range(20) for c in range(14)))
    scale = _kernel_transform(np.arange(count) - count // 2, nf)
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
    sums = next(oscillating_sums(table.logs, coeffs, interval.lo, actual, m + 1))
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
