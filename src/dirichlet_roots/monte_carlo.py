"""Simulation ground truth: count real zeros of sampled realizations.

A trial evaluates one coefficient sample on a uniform grid over the target
interval and counts sign changes (the Gaussian law puts zero probability on
tangential zeros); count_roots can also refine each bracketed root by
bisection.  run_trials runs trials in fixed blocks of 8 consecutive trial
indices, [0, 8), [8, 16), ...: a block samples its 8 coefficient rows,
evaluates them with one grid-kernel call and counts every row's sign
changes at once.  A short last block is padded with zero rows, so every
kernel call has the same shape and a trial's count is a pure function of
(spec, master_seed, trial_index, interval, step): the block size depends on
neither the trial count nor the worker count, and any number of workers
reproduces the sequential result exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from multiprocessing import get_context

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
from .dirichlet_eval import WeightTable, _grid_values, eval_grid, eval_polynomial, make_weight_table

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

# Trials per run_trials block, one kernel call of this many rows.  Fixed: the
# kernel's tile width, so the last bits of a row's values, depends on the row
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


def count_roots(sample: CoefficientSample, interval: Interval,
                step: float | None = None, refine_tol: float = 1e-9,
                keep_roots: bool = False,
                table: WeightTable | None = None) -> RootCountResult:
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
    if step is None:
        step = default_grid_step(spec)
    if step <= 0 or refine_tol <= 0:
        raise ValueError("step and refine_tol must be positive")
    step_warning = step > 0.5 * mean_zero_spacing(spec)
    if table is None:
        table = _table_for(spec)
    ge = eval_grid(sample, table, interval, step)
    mass = math.fsum(np.abs(sample.values) * table.weights)
    count, zero, flips = _sign_events(ge.values, _GRID_ZERO_REL * mass)
    roots = None
    if keep_roots:
        located = [*ge.grid[zero]] + [
            _bisect_root(sample, table, ge.grid[i], ge.grid[i + 1],
                         ge.values[i], refine_tol)
            for i in np.flatnonzero(flips)]
        roots = np.sort(np.asarray(located, dtype=np.float64))
    return RootCountResult(trial_index=sample.trial_index, count=int(count),
                           roots=roots, grid_step=ge.step,
                           step_warning=step_warning)


@lru_cache(maxsize=8)
def _table_for(spec: PolynomialSpec) -> WeightTable:
    return make_weight_table(spec)


def _count_block(args) -> np.ndarray:
    """Root counts of trials first .. stop - 1 from one grid-kernel call of
    _BLOCK_TRIALS rows (zero past stop), each counted as count_roots would."""
    spec, master_seed, first, stop, interval, step = args
    table = _table_for(spec)
    x = np.zeros((_BLOCK_TRIALS, spec.n_terms))
    for row, index in enumerate(range(first, stop)):
        x[row] = sample_coefficients(spec, master_seed, index).values
    _, values = _grid_values(table, x * table.weights, interval, step)
    mass = np.array([math.fsum(row) for row in np.abs(x) * table.weights])
    counts, _, _ = _sign_events(values, _GRID_ZERO_REL * mass[:, None])
    return counts[:stop - first]


def run_trials(spec: PolynomialSpec, interval: Interval, trials: int,
               master_seed: int, step: float | None = None,
               threads: int = 1) -> TrialAggregate:
    """Independent trials with per-trial counter-based seeding.

    The result is a pure function of (spec, interval, trials, master_seed,
    step): trial i always draws stream mix(master_seed, i), runs in the
    fixed block of trials 8 * (i // 8) onward, and aggregation runs in
    trial order, so any worker count gives identical output.  The pool has
    at most one worker per block; a single block runs in-process.
    """
    if spec.degenerate:
        raise ValueError("cannot count roots of the identically-zero polynomial")
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    if step is None:
        step = default_grid_step(spec)
    blocks = [(spec, master_seed, first, min(first + _BLOCK_TRIALS, trials),
               interval, step) for first in range(0, trials, _BLOCK_TRIALS)]
    processes = min(threads, len(blocks))
    if processes <= 1:
        counts = [_count_block(b) for b in blocks]
    else:
        with get_context("fork").Pool(processes=processes) as pool:
            counts = pool.map(_count_block, blocks, chunksize=1)
    arr = np.concatenate(counts).astype(np.int64)
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
