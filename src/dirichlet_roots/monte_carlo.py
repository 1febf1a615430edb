"""Simulation ground truth: count real zeros of sampled realizations.

A trial evaluates one coefficient sample on a uniform grid over the target
interval, counts sign changes (the Gaussian law puts zero probability on
tangential zeros), and optionally refines each bracketed root by bisection.
Trials are pure functions of (spec, master_seed, trial_index, interval,
step), so parallel execution over any worker count reproduces the
sequential result exactly.
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
from .dirichlet_eval import WeightTable, eval_grid, eval_polynomial, make_weight_table

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


def _count_sign_pattern(values: np.ndarray, zero_tol: float) -> tuple[int, list[tuple[int, bool]]]:
    """Count roots from the grid sign pattern.

    Returns (count, events); each event is (index, is_grid_zero): a grid zero
    at index i, or a sign-change bracket starting at index i.  A grid-exact
    zero counts once and belongs to the interval on its left: a flip counts
    only between adjacent non-zero grid values, so the -, 0, + pattern is not
    double counted.  Events are in grid order.
    """
    zero = np.abs(values) < zero_tol
    pos = values > 0
    flips = np.nonzero((pos[1:] != pos[:-1]) & ~zero[1:] & ~zero[:-1])[0]
    events = ([(int(i), True) for i in np.nonzero(zero)[0]]
              + [(int(i), False) for i in flips])
    # a bracket starting at i is found on reaching i + 1
    events.sort(key=lambda e: e[0] + (not e[1]))
    return len(events), events


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
    count, events = _count_sign_pattern(ge.values, _GRID_ZERO_REL * mass)
    roots = None
    if keep_roots:
        located = []
        for idx, is_zero in events:
            if is_zero:
                located.append(ge.grid[idx])
            else:
                located.append(_bisect_root(sample, table, ge.grid[idx],
                                            ge.grid[idx + 1], ge.values[idx],
                                            refine_tol))
        roots = np.asarray(sorted(located))
    return RootCountResult(trial_index=sample.trial_index, count=count,
                           roots=roots, grid_step=ge.step,
                           step_warning=step_warning)


@lru_cache(maxsize=8)
def _table_for(spec: PolynomialSpec) -> WeightTable:
    return make_weight_table(spec)


def _one_trial(args) -> int:
    spec, master_seed, index, interval, step = args
    sample = sample_coefficients(spec, master_seed, index)
    return count_roots(sample, interval, step=step, table=_table_for(spec)).count


def run_trials(spec: PolynomialSpec, interval: Interval, trials: int,
               master_seed: int, step: float | None = None,
               threads: int = 1) -> TrialAggregate:
    """Independent trials with per-trial counter-based seeding.

    The result is a pure function of (spec, interval, trials, master_seed,
    step): trial i always draws stream mix(master_seed, i) and aggregation
    runs in trial order, so any worker count gives identical output.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    if step is None:
        step = default_grid_step(spec)
    work = [(spec, master_seed, i, interval, step) for i in range(trials)]
    if threads <= 1:
        counts = [_one_trial(w) for w in work]
    else:
        chunk = max(1, trials // (4 * threads))
        with get_context("fork").Pool(processes=threads) as pool:
            counts = pool.map(_one_trial, work, chunksize=chunk)
    arr = np.asarray(counts, dtype=np.int64)
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
