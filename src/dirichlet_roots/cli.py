"""Command-line surface: run experiments and emit machine-readable tables.

Single results are printed as JSON on stdout; sweeps additionally write CSV
via --out (plot-ready, stable headers).  Every payload embeds the spec, the
seed, grid/node parameters and per-phase wall times, so a result is
reproducible from the artifact alone.  Exit codes: 0 ok, 2 usage error,
4 numerical error (the model is degenerate at some t).

`expected` and `compare` integrate deterministically by default, in bounded
memory at any T but in time that grows faster than T (README, "Cost at large
T"); --method stratified is the fast route at large T.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .asymptotics import model_vs_zeta_ratio, predict_expected_zeros
from .core import experiment_interval, make_spec
from .diagnostics import l2_mean_value_check, proof_step_integrals, u_sup_monitor
from .kac_rice import NumericalError, expected_count_deterministic, expected_count_stratified
from .monte_carlo import default_grid_step, run_trials, sigma_sweep

SCHEMA_VERSION = "1"

_EXIT_USAGE = 2
_EXIT_NUMERICAL = 4

_SIGMA_SUITE = (0.0, 0.25, 0.5, 0.6, 0.75, 1.0)


def _thread_count(text: str) -> int:
    """Type of --threads and of its default, DIRICHLET_ROOTS_THREADS."""
    if not (text.strip().isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError("threads (--threads or DIRICHLET_ROOTS_THREADS) "
                                         f"must be a positive integer, got {text!r}")
    return int(text)


def _spec_payload(spec) -> dict:
    return {"T": spec.T, "k": spec.k, "sigma": spec.sigma,
            "part": spec.part.value, "degenerate": spec.degenerate}


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _write_csv(path: str, header_comment: str, columns: list[str],
               rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header_comment + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _spec_from_args(args):
    spec = make_spec(args.T, args.k, args.sigma, args.part)
    return spec, experiment_interval(spec)


def _run_expected(spec, interval, method: str, strata: int, seed: int):
    if method == "deterministic":
        return expected_count_deterministic(spec, interval)
    return expected_count_stratified(spec, interval, strata=strata, seed=seed)


def cmd_expected(args) -> int:
    spec, interval = _spec_from_args(args)
    t0 = time.perf_counter()
    if spec.degenerate:
        ek_value, ek_error, nodes, stderr, method = 0.0, 0.0, 0, None, "degenerate"
    else:
        result = _run_expected(spec, interval, args.method, args.strata, args.seed)
        ek_value, ek_error = result.value, result.abs_error_estimate
        nodes, stderr, method = result.nodes_used, result.stderr, result.method
    elapsed = time.perf_counter() - t0
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "expected",
        "spec": _spec_payload(spec),
        "seed": args.seed,
        "interval": [interval.lo, interval.hi],
        "method": method,
        "ek_value": ek_value,
        "ek_error": ek_error,
        "nodes_used": nodes,
        "stderr": stderr,
        "wall_time_s": {"quadrature": round(elapsed, 4)},
    }
    _emit(payload)
    if args.out:
        _write_csv(args.out,
                   f"# dirichlet-roots expected schema={SCHEMA_VERSION} seed={args.seed} "
                   f"T={spec.T} k={spec.k} sigma={spec.sigma} part={spec.part.value}",
                   ["T", "k", "sigma", "part", "method", "ek_value", "ek_error", "nodes_used"],
                   [[spec.T, spec.k, spec.sigma, spec.part.value, method,
                     repr(ek_value), repr(ek_error), nodes]])
    return 0


def cmd_simulate(args) -> int:
    spec, interval = _spec_from_args(args)
    step = args.step if args.step is not None else default_grid_step(spec)
    t0 = time.perf_counter()
    agg = run_trials(spec, interval, args.trials, args.seed, step=step,
                     threads=args.threads)
    elapsed = time.perf_counter() - t0
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "spec": _spec_payload(spec),
        "seed": args.seed,
        "interval": [interval.lo, interval.hi],
        "trials": agg.trials,
        "grid_step": step,
        "mean": agg.mean,
        "stderr": agg.stderr,
        "min": agg.min,
        "max": agg.max,
        "threads": args.threads,
        "wall_time_s": {"trials": round(elapsed, 4)},
    }
    _emit(payload)
    if args.out:
        _write_csv(args.out,
                   f"# dirichlet-roots simulate schema={SCHEMA_VERSION} seed={args.seed} "
                   f"T={spec.T} k={spec.k} sigma={spec.sigma} part={spec.part.value} "
                   f"trials={agg.trials} step={step!r}",
                   ["trial_index", "count"],
                   [[i, int(c)] for i, c in enumerate(agg.per_trial_counts)])
    return 0


def cmd_compare(args) -> int:
    t_list = [float(x) for x in args.T_list.split(",") if x]
    if not t_list:
        raise ValueError("empty --T-list")
    rows = []
    timings = {}
    for T in t_list:
        spec = make_spec(T, args.k, args.sigma, "cosine")
        interval = experiment_interval(spec)
        t0 = time.perf_counter()
        ek = _run_expected(spec, interval, args.method, args.strata, args.seed)
        t1 = time.perf_counter()
        agg = run_trials(spec, interval, args.trials, args.seed,
                         threads=args.threads)
        t2 = time.perf_counter()
        asym = predict_expected_zeros(T, args.k)
        ratio = model_vs_zeta_ratio(T, args.k, ek.value)
        rows.append({"T": T, "ek": ek.value, "ek_error": ek.abs_error_estimate,
                     "asym_main": asym.main_term, "asym_second": asym.second_term,
                     "asym": asym.total, "mc_mean": agg.mean,
                     "mc_stderr": agg.stderr, "ratio": ratio})
        timings[str(T)] = {"quadrature": round(t1 - t0, 4),
                           "trials": round(t2 - t1, 4)}
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "compare",
        "k": args.k,
        "sigma": args.sigma,
        "seed": args.seed,
        "trials": args.trials,
        "rows": rows,
        "wall_time_s": timings,
    }
    _emit(payload)
    if args.out:
        _write_csv(args.out,
                   f"# dirichlet-roots compare schema={SCHEMA_VERSION} seed={args.seed} "
                   f"k={args.k} sigma={args.sigma} trials={args.trials}",
                   ["T", "ek", "asym", "mc_mean", "mc_stderr", "ratio"],
                   [[r["T"], repr(r["ek"]), repr(r["asym"]), repr(r["mc_mean"]),
                     repr(r["mc_stderr"]), repr(r["ratio"])] for r in rows])
    return 0


def cmd_diagnostics(args) -> int:
    if args.suite in ("l2", "sigma") and (args.k, args.sigma) != (None, None):
        raise ValueError(f"--suite {args.suite} takes neither --k nor --sigma")
    k = 0 if args.k is None else args.k
    sigma = 0.5 if args.sigma is None else args.sigma
    t0 = time.perf_counter()
    if args.suite == "steps":
        spec = make_spec(args.T, k, sigma, "cosine")
        reports = proof_step_integrals(spec)
        rows = [{"step_id": r.step_id, "integral_value": r.integral_value,
                 "envelope_scale": r.envelope_scale,
                 "observed_ratio": r.observed_ratio} for r in reports]
        csv_cols = ["step_id", "integral_value", "envelope_scale", "observed_ratio"]
        csv_rows = [[r["step_id"], repr(r["integral_value"]),
                     repr(r["envelope_scale"]), repr(r["observed_ratio"])]
                    for r in rows]
    elif args.suite == "l2":
        families = [("ones", np.ones(2)),
                    ("1_over_n", 1.0 / np.arange(1, 501)),
                    ("logn_over_n", np.log(np.arange(1, 501)) / np.arange(1, 501))]
        rows = []
        for name, a in families:
            lhs, main, budget = l2_mean_value_check(a, args.T)
            rows.append({"family": name, "n": int(a.shape[0]), "lhs": lhs,
                         "main": main, "error_budget": budget,
                         "realized_constant": abs(lhs - main) / budget})
        csv_cols = ["family", "n", "lhs", "main", "error_budget", "realized_constant"]
        csv_rows = [[r["family"], r["n"], repr(r["lhs"]), repr(r["main"]),
                     repr(r["error_budget"]), repr(r["realized_constant"])]
                    for r in rows]
    elif args.suite == "sup":
        spec = make_spec(args.T, k, sigma, "cosine")
        rep = u_sup_monitor(spec, experiment_interval(spec))
        rows = [{"sup_u": rep.sup_u, "sup_u1": rep.sup_u1, "sup_u2": rep.sup_u2,
                 "ratio_u": rep.log_power_ratios[0],
                 "ratio_u1": rep.log_power_ratios[1],
                 "ratio_u2": rep.log_power_ratios[2]}]
        csv_cols = ["sup_u", "sup_u1", "sup_u2", "ratio_u", "ratio_u1", "ratio_u2"]
        csv_rows = [[repr(v) for v in rows[0].values()]]
    else:
        table = sigma_sweep(args.T, _SIGMA_SUITE, trials=args.trials,
                            seed=args.seed, threads=args.threads)
        rows = [{"sigma": s, "mean": agg.mean, "stderr": agg.stderr,
                 "normalized": agg.mean / (args.T * math.log(args.T))}
                for s, agg in table]
        csv_cols = ["sigma", "mean", "stderr", "normalized"]
        csv_rows = [[r["sigma"], repr(r["mean"]), repr(r["stderr"]),
                     repr(r["normalized"])] for r in rows]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "diagnostics",
        "suite": args.suite,
        "T": args.T,
        "seed": args.seed,
        "rows": rows,
        "wall_time_s": {"suite": round(time.perf_counter() - t0, 4)},
    }
    _emit(payload)
    if args.out:
        _write_csv(args.out,
                   f"# dirichlet-roots diagnostics suite={args.suite} "
                   f"schema={SCHEMA_VERSION} seed={args.seed} T={args.T}",
                   csv_cols, csv_rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirichlet-roots",
        description="Expected real zeros of random Dirichlet polynomials: "
                    "exact Kac-Rice quadrature, asymptotics, Monte Carlo.",
        epilog="Exit codes: 0 ok, 2 usage error, 4 numerical error (the model "
               "is degenerate at some t).  --method stratified is the fast route "
               "at large T.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # a string default goes through _thread_count only when --threads is absent
    threads = os.environ.get("DIRICHLET_ROOTS_THREADS", "1")

    def add_spec_flags(p, with_part=True):
        p.add_argument("--T", type=float, required=True, help="cutoff T > 1")
        p.add_argument("--k", type=int, default=0, help="derivative order")
        p.add_argument("--sigma", type=float, default=0.5, help="exponent sigma >= 0")
        if with_part:
            p.add_argument("--part", choices=["cosine", "sine"], default="cosine")

    p = sub.add_parser("expected", help="Kac-Rice expected zero count on [T, 2T]")
    add_spec_flags(p)
    p.add_argument("--method", choices=["deterministic", "stratified"],
                   default="deterministic")
    p.add_argument("--strata", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write a one-row CSV here")
    p.set_defaults(func=cmd_expected)

    p = sub.add_parser("simulate", help="Monte Carlo root counts on [T, 2T]")
    add_spec_flags(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=None,
                   help="grid step (default: mean zero spacing / 8)")
    p.add_argument("--threads", type=_thread_count, default=threads)
    p.add_argument("--out", help="write per-trial CSV here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="EK vs asymptotics vs MC vs zeta ratio")
    p.add_argument("--T-list", required=True, help="comma-separated T values")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=["deterministic", "stratified"],
                   default="deterministic")
    p.add_argument("--strata", type=int, default=10_000)
    p.add_argument("--threads", type=_thread_count, default=threads)
    p.add_argument("--out", help="write the comparison CSV here")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("diagnostics", help="proof-step, L2, sup-norm and sigma suites")
    p.add_argument("--suite", choices=["steps", "l2", "sup", "sigma"], required=True)
    add_spec_flags(p, with_part=False)
    p.set_defaults(k=None, sigma=None)  # None: not given (l2 and sigma take neither)
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=_thread_count, default=threads)
    p.add_argument("--out", help="write the suite CSV here")
    p.set_defaults(func=cmd_diagnostics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
