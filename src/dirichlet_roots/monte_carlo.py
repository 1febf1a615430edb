"""Simulation ground truth: count real zeros of sampled realizations.

A trial evaluates one coefficient sample on a uniform grid over the target
interval and counts sign changes (the Gaussian law puts zero probability on
tangential zeros).  Both entry points count through _count_rows, which walks
the grid in chunks of at most _CHUNK_PANELS points, one kernel call each on
rows of coefficients: count_roots passes one row and can bisect each
bracketed root; run_trials passes fixed blocks of 8 consecutive trial
indices, [0, 8), [8, 16), ..., a short last block padded with zero rows, so
every kernel call has the same shape and a trial's count is a pure function
of (spec, master_seed, trial_index, interval, step), whatever the trial or
worker count.  The blocks run on a thread pool in the calling process, one
path for any worker count; the kernel's FFTs, GEMMs and trig release the GIL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CoefficientSample,
    Interval,
    Part,
    PolynomialSpec,
    experiment_interval,
    make_spec,
    sample_coefficients,
)
from .dirichlet_eval import (WeightTable, _chunks, eval_polynomial, make_weight_table,
                             oscillating_sums)

__all__ = [
    "RootCountResult",
    "TrialAggregate",
    "count_roots",
    "run_trials",
    "sigma_sweep",
    "default_grid_step",
    "mean_zero_spacing",
]

# Grid values below this fraction of the coefficient L1 mass count as exact zeros.
_GRID_ZERO_REL = 1e-13

# Trials per run_trials block, the rows of its kernel calls.  Fixed: the
# kernel's spans, so the last bits of a row's values, depend on the row
# count.  16 rows ran the mc_trials benchmark 7-11% faster, but their fine
# grids put its peak RSS 5.4-6.0% above one call per trial (8 rows: 3.8%).
_BLOCK_TRIALS = 8


@dataclass(frozen=True)
class RootCountResult:
    trial_index: int
    count: int
    roots: np.ndarray | None
    grid_step: float
    step_warning: bool = False


@dataclass(frozen=True)
class TrialAggregate:
    trials: int
    mean: float
    stderr: float
    min: int
    max: int
    per_trial_counts: np.ndarray

    def __post_init__(self) -> None:
        self.per_trial_counts.setflags(write=False)


def mean_zero_spacing(spec: PolynomialSpec) -> float:
    """Reciprocal of the main-term zero density: pi sqrt((2k+3)/(2k+1)) / log T."""
    k1, k3 = 2 * spec.k + 1, 2 * spec.k + 3
    return math.pi * math.sqrt(k3 / k1) / math.log(spec.T)


def default_grid_step(spec: PolynomialSpec) -> float:
    """One-eighth of the asymptotic mean zero spacing."""
    return mean_zero_spacing(spec) / 8.0


def _sign_events(values: np.ndarray,
                 zero_tol: float | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots from the grid sign pattern along the last axis of values.

    Returns (counts, zero, flips): zero marks the grid zeros (|value| below
    zero_tol, which broadcasts against values), flips[..., i] a sign-change
    bracket between grid values i and i + 1, and counts the number of both.
    A grid-exact zero counts once and belongs to the interval on its left: a
    flip counts only between adjacent non-zero grid values, so the -, 0, +
    pattern is not double counted.
    """
    zero = np.abs(values) < zero_tol
    pos = values > 0
    flips = (pos[..., 1:] != pos[..., :-1]) & ~zero[..., 1:] & ~zero[..., :-1]
    counts = np.count_nonzero(zero, axis=-1) + np.count_nonzero(flips, axis=-1)
    return counts, zero, flips


def _bisect_root(sample: CoefficientSample, table: WeightTable,
                 lo: float, hi: float, f_lo: float, tol: float) -> float:
    """Bisection on a sign-change bracket down to abscissa width tol."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = eval_polynomial(sample, table, mid)
        if f_mid == 0.0:
            return mid
        if (f_lo > 0) != (f_mid > 0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _count_rows(table: WeightTable, x: np.ndarray, interval: Interval, step: float):
    """Roots of the coefficient rows x on a uniform grid covering the interval.

    The step snaps down to length / ceil(length / step): the grid lo + i * step
    ends at interval.hi, and halving the snapped step nests it.  Yields per
    chunk (_chunks, one kernel call on x * w) the snapped step, the grid index
    of values[:, 0], the (rows, points) values and _sign_events' (counts, zero,
    flips) at each row's _GRID_ZERO_REL L1-mass tolerance.  A later chunk starts
    with the last value column before it, whose zero is cleared: it counted there.
    """
    if not (0 < step < math.inf and interval.length / step < math.inf):
        raise ValueError(f"step must be positive and finite, and length / step finite, got {step}")
    m = max(1, math.ceil(interval.length / step - 1e-12))
    actual, carry = interval.length / m, None
    chunks = _chunks(interval, actual, m + 1, actual, "grid points")  # checked before any work
    coeffs, tol = x * table.weights, _GRID_ZERO_REL * (np.abs(x) @ table.weights)[:, None]
    parts = [(r, table.spec.part) for r in range(len(x))]
    for first, start, count in chunks:
        values = next(oscillating_sums(table.logs, coeffs, parts, start, actual, count))[1]
        if carry is not None:
            values, first = np.concatenate((carry, values), axis=1), first - 1
        counts, zero, flips = _sign_events(values, tol)
        if carry is not None:
            counts, zero[:, 0] = counts - zero[:, 0], False
        carry = values[:, -1:]
        yield actual, first, values, counts, zero, flips


def count_roots(sample: CoefficientSample, interval: Interval,
                step: float | None = None, refine_tol: float = 1e-9,
                keep_roots: bool = False) -> RootCountResult:
    """Count zeros of one realization on the interval.

    Sign changes between adjacent grid values are counted as one root each;
    grid values within 1e-13 of zero relative to the coefficient L1 mass are
    exact zeros, counted once with the tie broken to the left interval.
    When keep_roots is set, each bracket is refined by bisection to abscissa
    tolerance refine_tol.
    """
    spec = sample.spec
    if spec.degenerate:
        raise ValueError("cannot count roots of the identically-zero polynomial")
    if not 0 < refine_tol < math.inf:
        raise ValueError(f"refine_tol must be positive and finite, got {refine_tol}")
    if step is None:
        step = default_grid_step(spec)
    table = make_weight_table(spec)
    count, located = 0, []
    for actual, first, values, counts, zero, flips in _count_rows(
            table, sample.values[None, :], interval, step):
        count += int(counts[0])
        if keep_roots:
            grid = interval.lo + actual * np.arange(first, first + values.shape[1])
            located += [*grid[zero[0]]] + [
                _bisect_root(sample, table, grid[i], grid[i + 1], values[0, i], refine_tol)
                for i in np.flatnonzero(flips[0])]
    roots = np.sort(np.asarray(located, dtype=np.float64)) if keep_roots else None
    return RootCountResult(trial_index=sample.trial_index, count=count,
                           roots=roots, grid_step=actual,
                           step_warning=step > 0.5 * mean_zero_spacing(spec))


def run_trials(spec: PolynomialSpec, interval: Interval, trials: int,
               master_seed: int, step: float | None = None,
               threads: int = 1) -> TrialAggregate:
    """Independent trials with per-trial counter-based seeding.

    The result is a pure function of (spec, interval, trials, master_seed,
    step): trial i always draws stream mix(master_seed, i), runs in the
    fixed block of trials 8 * (i // 8) onward, and aggregation runs in
    trial order, so any worker count gives identical output.  The blocks
    run on min(threads, blocks) worker threads in this process, and their
    counts come back in block order.
    """
    if spec.degenerate:
        raise ValueError("cannot count roots of the identically-zero polynomial")
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    if step is None:
        step = default_grid_step(spec)
    from concurrent.futures import ThreadPoolExecutor  # loaded only to run trials

    table = make_weight_table(spec)

    def count_block(first: int) -> np.ndarray:
        """Root counts of the block of trials from first (zero rows past the last)."""
        stop = min(first + _BLOCK_TRIALS, trials)
        x = np.zeros((_BLOCK_TRIALS, spec.n_terms))
        for row, index in enumerate(range(first, stop)):
            x[row] = sample_coefficients(spec, master_seed, index).values
        return sum(chunk[3] for chunk in _count_rows(table, x, interval, step))[:stop - first]

    firsts = range(0, trials, _BLOCK_TRIALS)
    with ThreadPoolExecutor(max_workers=min(threads, len(firsts))) as pool:
        arr = np.concatenate(list(pool.map(count_block, firsts))).astype(np.int64)
    mean = float(np.mean(arr))
    stderr = float(np.std(arr, ddof=1) / math.sqrt(trials))
    return TrialAggregate(trials=trials, mean=mean, stderr=stderr,
                          min=int(arr.min()), max=int(arr.max()),
                          per_trial_counts=arr)


def sigma_sweep(T: float, sigmas, trials: int, seed: int,
                threads: int = 1) -> list[tuple[float, TrialAggregate]]:
    """run_trials at k = 0 for each sigma over [T, 2T]; the transition table."""
    rows = []
    for sigma in sigmas:
        spec = make_spec(T, k=0, sigma=float(sigma), part=Part.COSINE)
        agg = run_trials(spec, experiment_interval(spec), trials, seed,
                         threads=threads)
        rows.append((float(sigma), agg))
    return rows
