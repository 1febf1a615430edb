"""The benchmark's workloads: fixed sets of CLI calls, generated from a seed.

Every workload is a closed loop in one process: the next call starts when
the previous one returns.  One pass over a workload's call set is a "set";
the runner repeats sets for the requested seconds and reports the median
set wall time.  The seed only chooses the calls' --seed values (the
stratified offsets and the Monte Carlo samples), so every run does the same
amount of work, and the calls of a set always run in the same order.

Why each workload is in the benchmark:

* ek_det - `expected --method deterministic` at T=500, cosine k=0 and
  sine k=2.  The moment-sum kernel plus Gauss-Legendre quadrature
  path; the kernel is about 99% of its time.  Nested-grid Romberg
  quadrature and a NUFFT kernel must both show here.  The sine/k=2 call
  runs the other trig half of the density and its sign flip.
* ek_strat - `expected --method stratified --strata 10000` at T=4000.  It
  never calls the uniform-grid kernel (its scattered dense-trig path is
  99.9% of its time), so it is the control for kernel changes: predicted
  unchanged by them.  It is also the target of the shifted-grid rewrite.
* mc_trials - `simulate` at T=500 (cosine, k=0), 60 trials, --threads 2.
  One coefficient row per sample over long grids, plus sampling,
  sign-change counting and the fork pool, and no EK quadrature.  Batched
  kernels and derivative-aware counting show here.
* diag_suite - `diagnostics --suite steps --T 1000`, `--suite l2 --T 1000`
  and `--suite sup --T 2000`.  The only workload that runs the diagnostics
  module's own Gauss-Legendre stream loops, which the shared-quadrature
  change merges, and the kernel on complex rows with few terms.

Call sizes: the host's speed changes from second to second as well as over
minutes, so each call is kept to 0.3-2.5 s and a run reports the median of
its sets (at least 6); the slower drift is cancelled by the yardstick
(yardstick.py).  A single T=2000 EK call (12 s) would fill a whole run with
one sample, T=1000 calls (2.5 s) left two or three sets per run, and
T=700 calls (1.5-2.2 s) five or six, whose median still spread by 13%
from run to run; T=500 calls (0.8 s) give about ten.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from . import checks

EK_DET_CASES = ((500.0, 0, "cosine"), (500.0, 2, "sine"))
MC_T = 500.0
MC_TRIALS = 60
MC_THREADS = 2
# Trials rerun with --threads 1 and 2 to check the per-trial CSV bytes.
CSV_SUBSET = 16
# Trials rerun at a nested step/REFINE to count roots missed at the default step.
MISSED_TRIALS = 32
REFINE = 8


@dataclass(frozen=True)
class Op:
    """One CLI call and the check its output must pass."""

    label: str
    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]
    ref: float | None = None  # the EK reference value, for expected calls


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple[tuple[float, int, str], ...]   # built once per set-up
    warmup: tuple[str, ...]                     # small call of the same path
    make_set: Callable[[random.Random, dict, str], list[Op]]
    cores: int = 1                              # processes kept busy by a call


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def _ek_key(T: float, k: int, part: str) -> str:
    return f"T={T:g},k={k},part={part}"


def _ek_det(rng, refs, outdir):
    seed = _seed(rng)
    ops = []
    for T, k, part in EK_DET_CASES:
        ref = refs["ek"][_ek_key(T, k, part)]["value"]
        ops.append(Op(f"expected T={T:g} k={k} {part}",
                      ("expected", "--T", f"{T:g}", "--k", str(k), "--part", part,
                       "--method", "deterministic", "--seed", seed),
                      lambda p, ref=ref: checks.check_expected_exact(p, ref),
                      ref=ref))
    return ops


def _ek_strat(rng, refs, outdir):
    ref = refs["ek"][_ek_key(4000.0, 0, "cosine")]["value"]
    return [Op("expected T=4000 stratified",
               ("expected", "--T", "4000", "--method", "stratified",
                "--strata", "10000", "--seed", _seed(rng)),
               lambda p: checks.check_expected_stratified(p, ref),
               ref=ref)]


def mc_argv(seed: str, trials: int, threads: int, out: str,
            step: float | None = None) -> tuple[str, ...]:
    argv = ("simulate", "--T", f"{MC_T:g}", "--trials", str(trials),
            "--threads", str(threads), "--seed", seed, "--out", out)
    return argv + (("--step", repr(step)) if step is not None else ())


def _mc_trials(rng, refs, outdir):
    ref = refs["ek"][_ek_key(MC_T, 0, "cosine")]["value"]
    return [Op(f"simulate T={MC_T:g} trials={MC_TRIALS}",
               mc_argv(_seed(rng), MC_TRIALS, MC_THREADS, f"{outdir}.csv"),
               lambda p: checks.check_simulate_mean(p, ref, MC_TRIALS))]


def _diag_suite(rng, refs, outdir):
    seed = _seed(rng)
    ops = [
        Op(f"diagnostics steps T={refs['steps_T']:g}",
           ("diagnostics", "--suite", "steps", "--T", f"{refs['steps_T']:g}", "--seed", seed),
           lambda p: checks.check_steps(p, refs["steps"])),
        Op("diagnostics l2 T=1000",
           ("diagnostics", "--suite", "l2", "--T", f"{refs['l2_T']:g}", "--seed", seed),
           lambda p: checks.check_l2(p, refs["l2"])),
        Op("diagnostics sup T=2000",
           ("diagnostics", "--suite", "sup", "--T", f"{refs['sup_T']:g}", "--seed", seed),
           lambda p: checks.check_sup(p, refs["sup"])),
    ]
    return ops


WORKLOADS = {w.name: w for w in (
    Workload("ek_det", EK_DET_CASES,
             ("expected", "--T", "200", "--method", "deterministic"), _ek_det),
    Workload("ek_strat", ((4000.0, 0, "cosine"),),
             ("expected", "--T", "200", "--method", "stratified", "--strata", "1000"),
             _ek_strat),
    Workload("mc_trials", ((MC_T, 0, "cosine"),),
             ("simulate", "--T", "100", "--trials", "4", "--threads", str(MC_THREADS)),
             _mc_trials, cores=MC_THREADS),
    Workload("diag_suite", ((1000.0, 0, "cosine"), (2000.0, 0, "cosine")),
             ("diagnostics", "--suite", "sup", "--T", "200"), _diag_suite),
)}
