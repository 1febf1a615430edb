"""Fast, numerically careful evaluation of weighted cosine/sine Dirichlet sums.

Two evaluation paths are provided and cross-checked in the tests:

* direct: one point at a time, exact trig arguments, compensated (Shewchuk)
  summation via math.fsum.  Reference-quality, used for single points and for
  bisection refinement.
* grid kernel: values on a uniform t-grid, as a type-1 nonuniform FFT
  (exponential-of-semicircle spreading onto a fine grid, one FFT, kernel
  deconvolution), O(terms + grid log grid) per row.  Error below about
  3e-13 of the row's coefficient L1 mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import CoefficientSample, Interval, Part, PolynomialSpec

__all__ = [
    "WeightTable",
    "GridEvaluation",
    "make_weight_table",
    "eval_polynomial",
    "eval_grid",
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
    The m0/m1/m2 scalars are the t = 0 moment sums sum w_n^2 (log n)^j,
    accumulated with math.fsum.
    """

    spec: PolynomialSpec
    logs: np.ndarray
    weights: np.ndarray
    squared_weights: np.ndarray
    m0: float = field(init=False)
    m1: float = field(init=False)
    m2: float = field(init=False)
    abs_weight_mass: float = field(init=False)

    def __post_init__(self) -> None:
        for arr in (self.logs, self.weights, self.squared_weights):
            arr.setflags(write=False)
        sq = self.squared_weights
        object.__setattr__(self, "m0", math.fsum(sq))
        object.__setattr__(self, "m1", math.fsum(sq * self.logs))
        object.__setattr__(self, "m2", math.fsum(sq * self.logs**2))
        object.__setattr__(self, "abs_weight_mass", math.fsum(np.abs(self.weights)))

    @property
    def n_terms(self) -> int:
        return self.logs.shape[0]


def make_weight_table(spec: PolynomialSpec) -> WeightTable:
    n = np.arange(1, spec.n_terms + 1, dtype=np.float64)
    logs = np.log(n)  # log n computed directly per n; exactness over speed
    weights = logs**spec.k / n**spec.sigma  # 0**0 = 1 covers n=1 at k=0
    return WeightTable(spec=spec, logs=logs, weights=weights,
                       squared_weights=weights * weights)


def _check_same_spec(sample: CoefficientSample, table: WeightTable) -> None:
    if sample.spec != table.spec:
        raise ValueError("sample and weight table were built for different specs")


def eval_polynomial(sample: CoefficientSample, table: WeightTable, t: float) -> float:
    """S(t) = sum_n X_n w_n cos(t log n) (sin for the sine part), fsum-accumulated."""
    _check_same_spec(sample, table)
    phases = t * table.logs
    osc = np.cos(phases) if table.spec.part is Part.COSINE else np.sin(phases)
    return math.fsum(sample.values * table.weights * osc)


def _spread_kernel(offsets: np.ndarray) -> np.ndarray:
    """Exponential-of-semicircle kernel at offsets measured in fine-grid cells."""
    r = 2.0 * offsets / _SPREAD_WIDTH
    return np.exp(_SPREAD_BETA * (np.sqrt(np.maximum(1.0 - r * r, 0.0)) - 1.0))


def _spread(strengths: np.ndarray, cell: np.ndarray, frac: np.ndarray,
            nf: int) -> np.ndarray:
    """Spread points at cell + frac (sorted by cell) onto a periodic fine grid.

    strengths holds the real parts of the point strengths over their
    imaginary parts (2 * rows real rows); the result is (rows, nf) complex.
    A point covers fine cells cell + 1 - w/2 + k, k < w, and each tile of
    cells is one dense GEMM: strengths times a (points x (tile + w)) kernel
    block.  buf holds fine cell m at m + w/2, real and imaginary parts
    interleaved.
    """
    rows, w = strengths.shape[0] // 2, _SPREAD_WIDTH
    wrap = w // 2
    values = _spread_kernel(frac[:, None] + (wrap - 1 - np.arange(w)))
    balance = math.isqrt(_TILE_BALANCE * nf // (rows * cell.size + 1))
    tile = max(1, min(_TILE_CELLS, balance))
    first = cell - cell % tile
    flat = ((cell - first) + (tile + w) * np.arange(cell.size))[:, None] + np.arange(w)
    buf = np.zeros((rows, nf + tile + w, 2))
    runs = np.flatnonzero(np.diff(first)) + 1
    for lo, hi in zip(np.r_[0, runs], np.r_[runs, cell.size]):
        for a in range(lo, hi, _TILE_POINTS):
            b = min(hi, a + _TILE_POINTS)
            block = np.zeros((b - a) * (tile + w))
            block[flat[a:b] - a * (tile + w)] = values[a:b]
            spread = strengths[:, a:b] @ block.reshape(b - a, tile + w)
            f = first[a] + 1
            buf[:, f:f + tile + w] += spread.reshape(2, rows, -1).transpose(1, 2, 0)
    fine = buf.view(np.complex128)[..., 0]
    fine[:, nf:nf + wrap] += fine[:, :wrap]          # cells -w/2 .. -1
    fine[:, wrap:w] += fine[:, nf + wrap:nf + w]     # cells nf .. nf + w/2 - 1
    return fine[:, wrap:wrap + nf]


def oscillating_sums(logs: np.ndarray,
                     cos_coeffs: np.ndarray,
                     sin_coeffs: np.ndarray,
                     start: float,
                     step: float,
                     count: int) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate rows of cosine/sine sums along the uniform grid t_i = start + i*step.

    Returns (C, S) with
        C[r, i] = sum_n cos_coeffs[r, n] * cos(t_i * logs[n])
        S[r, i] = sum_n sin_coeffs[r, n] * sin(t_i * logs[n]).

    cos_coeffs / sin_coeffs may be empty (shape (0, n)) to skip that half.
    With t_i = mid + j*step, mid the grid's middle node, every row is a
    type-1 NUFFT: modes j of the nonuniform points x_n = step*logs[n] mod
    2 pi with strengths coeffs * exp(i mid logs[n]).  Points are spread
    onto a fine periodic grid, transformed by one FFT per row and divided by
    the kernel's own transform; terms with logs[n] = 0 are constant and are
    added exactly.  The error stays below about 3e-13 of each row's L1 mass.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if step <= 0:
        raise ValueError("step must be positive")
    cos_coeffs = np.atleast_2d(np.asarray(cos_coeffs, dtype=np.float64))
    sin_coeffs = np.atleast_2d(np.asarray(sin_coeffs, dtype=np.float64))
    coeffs = np.concatenate([cos_coeffs, sin_coeffs])
    rows, n_cos = coeffs.shape[0], cos_coeffs.shape[0]
    constant = coeffs[:n_cos, logs == 0.0].sum(axis=1)[:, None]

    nf, scale = _fine_grid(count)
    half = count // 2
    pos = np.mod(step * logs, 2.0 * math.pi) * (nf / (2.0 * math.pi))
    cell = np.floor(pos).astype(np.intp)
    frac = pos - cell
    cell %= nf
    terms = np.flatnonzero(logs != 0.0)
    terms = terms[np.argsort(cell[terms], kind="stable")]
    phase = (start + half * step) * logs[terms]
    strengths = np.empty((2 * rows, terms.size))
    np.take(coeffs, terms, axis=1, out=strengths[:rows])
    np.multiply(strengths[:rows], np.sin(phase), out=strengths[rows:])
    strengths[:rows] *= np.cos(phase)
    fine = _spread(strengths, cell[terms], frac[terms], nf)
    np.fft.ifft(fine, norm="forward", out=fine)
    out_c, out_s = np.empty((n_cos, count)), np.empty((rows - n_cos, count))
    for out, part in ((out_c, fine[:n_cos].real), (out_s, fine[n_cos:].imag)):
        out[:, :half] = part[:, nf - half:]
        out[:, half:] = part[:, :count - half]
        out /= scale
    out_c += constant
    return out_c, out_s


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


@dataclass(frozen=True)
class GridEvaluation:
    """Values of one sample's polynomial on a uniform grid."""

    grid: np.ndarray
    values: np.ndarray
    step: float

    def __post_init__(self) -> None:
        self.grid.setflags(write=False)
        self.values.setflags(write=False)


def eval_grid(sample: CoefficientSample, table: WeightTable,
              interval: Interval, step: float) -> GridEvaluation:
    """Evaluate S on a uniform grid covering the interval exactly.

    The requested step is an upper bound: it is snapped down to
    length / ceil(length / step) so the grid ends exactly at interval.hi.
    Halving the effective step therefore yields a nested refinement, which
    the root counter relies on for its monotonicity guarantee.
    """
    _check_same_spec(sample, table)
    actual, values = _grid_values(table, (sample.values * table.weights)[None, :],
                                  interval, step)
    grid = interval.lo + actual * np.arange(values.shape[1])
    return GridEvaluation(grid=grid, values=values[0], step=actual)


def _grid_values(table: WeightTable, coeffs: np.ndarray, interval: Interval,
                 step: float) -> tuple[float, np.ndarray]:
    """Rows of S on eval_grid's snapped grid, from one grid-kernel call.

    coeffs holds one row of X_n w_n per realization.  Returns the snapped
    step and the (rows, points) values; the kernel's tile width depends on
    the row count, so callers that need values independent of how rows are
    grouped keep that count fixed.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    m = max(1, math.ceil(interval.length / step - 1e-12))
    actual = interval.length / m
    empty = np.empty((0, table.n_terms))
    if table.spec.part is Part.COSINE:
        values, _ = oscillating_sums(table.logs, coeffs, empty,
                                     interval.lo, actual, m + 1)
    else:
        _, values = oscillating_sums(table.logs, empty, coeffs,
                                     interval.lo, actual, m + 1)
    return actual, values


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
