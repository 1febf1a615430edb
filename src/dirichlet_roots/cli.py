"""Command-line surface: run experiments and emit machine-readable tables.

Single results are printed as JSON on stdout; sweeps additionally write CSV
via --out (plot-ready, stable headers).  Every payload embeds the spec, the
seed, grid/node parameters and per-phase wall times, so a result is
reproducible from the artifact alone.  Exit codes: 0 ok, 2 usage error,
4 numerical error (the model is degenerate at some t, or a result is not
finite: no payload carries NaN or infinity), 5 out of memory.

`expected` and `compare` integrate deterministically by default, in bounded
memory at any T but in time that grows faster than T (README, "Cost at large
T"); --method stratified is the fast route at large T.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import __version__
from .asymptotics import MAX_STIELTJES_INDEX, model_vs_zeta_ratio, predict_expected_zeros
from .core import experiment_interval, make_spec
from .diagnostics import l2_mean_value_check, proof_step_integrals, u_sup_monitor
from .dirichlet_eval import make_weight_table
from .kac_rice import NumericalError, expected_count_deterministic, expected_count_stratified
from .monte_carlo import default_grid_step, run_trials, sigma_sweep

SCHEMA_VERSION = "2"

_EXIT_USAGE = 2
_EXIT_NUMERICAL = 4
_EXIT_MEMORY = 5

_SIGMA_SUITE = (0.0, 0.25, 0.5, 0.6, 0.75, 1.0)
# compare's two-term prediction reads gamma_(2k), tabulated up to gamma_16
_COMPARE_MAX_K = MAX_STIELTJES_INDEX // 2


class _FromEnvironment(str):
    """A default naming an environment variable, which _thread_count reads at parse time."""


def _thread_count(text: str) -> int:
    """Type of --threads and of its default, DIRICHLET_ROOTS_THREADS (or 1)."""
    if isinstance(text, _FromEnvironment):
        text = os.environ.get(text, "1")
    if not (text.strip().isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError("threads (--threads or DIRICHLET_ROOTS_THREADS) "
                                         f"must be a positive integer, got {text!r}")
    return int(text)


def _spec_from_args(args):
    """The spec, its interval and its fields T, k, sigma, part."""
    spec = make_spec(args.T, args.k, args.sigma, args.part)
    fields = {"T": spec.T, "k": spec.k, "sigma": spec.sigma, "part": spec.part.value}
    return spec, experiment_interval(spec), fields


def _run_expected(spec, interval, method: str, strata: int, seed: int):
    if method == "deterministic":
        return expected_count_deterministic(spec, interval)
    return expected_count_stratified(spec, interval, strata=strata, seed=seed)


# Each cmd_* returns (payload body, CSV rows, CSV columns or None for every
# key, CSV header fields); main adds the common fields and writes both.

def cmd_expected(args):
    spec, interval, fields = _spec_from_args(args)
    t0 = time.perf_counter()
    if spec.degenerate:
        ek_value, ek_error, nodes, stderr, method = 0.0, 0.0, 0, None, "degenerate"
    else:
        result = _run_expected(spec, interval, args.method, args.strata, args.seed)
        ek_value, ek_error = result.value, result.abs_error_estimate
        nodes, stderr, method = result.nodes_used, result.stderr, result.method
    body = {
        "spec": {**fields, "degenerate": spec.degenerate},
        "interval": [interval.lo, interval.hi],
        "method": method,
        "ek_value": ek_value,
        "ek_error": ek_error,
        "nodes_used": nodes,
        "stderr": stderr,
        "wall_time_s": {"quadrature": round(time.perf_counter() - t0, 4)},
    }
    columns = ["T", "k", "sigma", "part", "method", "ek_value", "ek_error", "nodes_used"]
    return body, [{**fields, **body}], columns, fields


def cmd_simulate(args):
    spec, interval, fields = _spec_from_args(args)
    step = args.step if args.step is not None else default_grid_step(spec)
    t0 = time.perf_counter()
    agg = run_trials(spec, interval, args.trials, args.seed, step=step,
                     threads=args.threads)
    body = {
        "spec": {**fields, "degenerate": spec.degenerate},
        "interval": [interval.lo, interval.hi],
        "trials": agg.trials,
        "grid_step": step,
        "mean": agg.mean,
        "stderr": agg.stderr,
        "min": agg.min,
        "max": agg.max,
        "threads": args.threads,
        "wall_time_s": {"trials": round(time.perf_counter() - t0, 4)},
    }
    rows = [{"trial_index": i, "count": int(c)} for i, c in enumerate(agg.per_trial_counts)]
    return body, rows, None, {**fields, "trials": agg.trials, "step": step}


def cmd_compare(args):
    t_list = [float(x) for x in args.T_list.split(",") if x]
    if not t_list:
        raise ValueError("empty --T-list")
    for T in t_list:  # the zeta ratio is gated on T >= 100: checked before anything runs
        if not (math.isfinite(T) and T >= 100):
            raise ValueError(f"--T-list takes finite T >= 100, got {T!r}")
    if args.k > _COMPARE_MAX_K:
        for T in t_list:  # weights that overflow are a numerical error (exit 4) first
            make_weight_table(make_spec(T, args.k, args.sigma, "cosine"))
        raise ValueError(f"compare supports 0 <= --k <= {_COMPARE_MAX_K}: its two-term prediction "
                         f"needs the Stieltjes constant gamma_2k, tabulated up to "
                         f"gamma_{MAX_STIELTJES_INDEX}; got --k {args.k}")
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
        ratio = model_vs_zeta_ratio(T, ek.value)
        rows.append({"T": T, "ek": ek.value, "ek_error": ek.abs_error_estimate,
                     "asym_main": asym.main_term, "asym_second": asym.second_term,
                     "asym": asym.total, "mc_mean": agg.mean,
                     "mc_stderr": agg.stderr, "ratio": ratio})
        timings[str(T)] = {"quadrature": round(t1 - t0, 4),
                           "trials": round(t2 - t1, 4)}
    fields = {"k": args.k, "sigma": args.sigma, "trials": args.trials}
    columns = ["T", "ek", "asym", "mc_mean", "mc_stderr", "ratio"]
    return {**fields, "rows": rows, "wall_time_s": timings}, rows, columns, fields


def cmd_diagnostics(args):
    if args.suite in ("l2", "sigma") and (args.k, args.sigma) != (None, None):
        raise ValueError(f"--suite {args.suite} takes neither --k nor --sigma")
    k = 0 if args.k is None else args.k
    sigma = 0.5 if args.sigma is None else args.sigma
    model = {"k": k, "sigma": sigma} if args.suite in ("steps", "sup") else {}
    t0 = time.perf_counter()
    if args.suite == "steps":
        spec = make_spec(args.T, k, sigma, "cosine")
        rows = [dataclasses.asdict(r) for r in proof_step_integrals(spec)]
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
    elif args.suite == "sup":
        spec = make_spec(args.T, k, sigma, "cosine")
        rep = u_sup_monitor(spec, experiment_interval(spec))
        rows = [{"sup_u": rep.sup_u, "sup_u1": rep.sup_u1, "sup_u2": rep.sup_u2,
                 "ratio_u": rep.log_power_ratios[0],
                 "ratio_u1": rep.log_power_ratios[1],
                 "ratio_u2": rep.log_power_ratios[2]}]
    else:
        table = sigma_sweep(args.T, _SIGMA_SUITE, trials=args.trials,
                            seed=args.seed, threads=args.threads)
        rows = [{"sigma": s, "mean": agg.mean, "stderr": agg.stderr,
                 "normalized": agg.mean / (args.T * math.log(args.T))}
                for s, agg in table]
    body = {"suite": args.suite, "T": args.T, **model, "rows": rows,
            "wall_time_s": {"suite": round(time.perf_counter() - t0, 4)}}
    return body, rows, None, {"T": args.T, **model}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared: callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="dirichlet-roots",
        description="Expected real zeros of random Dirichlet polynomials: "
                    "exact Kac-Rice quadrature, asymptotics, Monte Carlo.",
        epilog="Exit codes: 0 ok, 2 usage error, 4 numerical error (the model "
               "is degenerate at some t, or a result is not finite), 5 out of "
               "memory.  --method stratified is the fast route at large T.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # flags shared verbatim; a parent's actions are shared objects, so no
    # subcommand may override their defaults
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    threads = argparse.ArgumentParser(add_help=False)
    # argparse passes a string default through _thread_count when --threads
    # is absent, at parse time, so every parse reads the variable afresh
    threads.add_argument("--threads", type=_thread_count,
                         default=_FromEnvironment("DIRICHLET_ROOTS_THREADS"),
                         help="worker threads for the Monte Carlo blocks "
                              "(default: DIRICHLET_ROOTS_THREADS or 1)")
    method = argparse.ArgumentParser(add_help=False)
    method.add_argument("--method", choices=["deterministic", "stratified"],
                        default="deterministic")
    method.add_argument("--strata", type=int, default=10_000)

    def add_command(name, func, summary, out_help, parents, trials=None):
        p = sub.add_parser(name, help=summary, parents=[seed, *parents])
        if trials is not None:
            p.add_argument("--trials", type=int, default=trials)
        p.add_argument("--out", help=out_help)
        p.set_defaults(func=func)
        return p

    def add_spec_flags(p, with_part=True):
        p.add_argument("--T", type=float, required=True, help="cutoff T > 1")
        p.add_argument("--k", type=int, default=0, help="derivative order")
        p.add_argument("--sigma", type=float, default=0.5, help="exponent sigma >= 0")
        if with_part:
            p.add_argument("--part", choices=["cosine", "sine"], default="cosine")

    p = add_command("expected", cmd_expected, "Kac-Rice expected zero count on [T, 2T]",
                    "also write a one-row CSV here", [method])
    add_spec_flags(p)

    p = add_command("simulate", cmd_simulate, "Monte Carlo root counts on [T, 2T]",
                    "write per-trial CSV here", [threads], trials=100)
    add_spec_flags(p)
    p.add_argument("--step", type=float, default=None,
                   help="grid step (default: mean zero spacing / 8), at most 2^32 points per trial")

    p = add_command("compare", cmd_compare, "EK vs asymptotics vs MC vs zeta ratio",
                    "write the comparison CSV here", [method, threads], trials=100)
    p.add_argument("--T-list", required=True, help="comma-separated T values, each T >= 100")
    p.add_argument("--k", type=int, default=0,
                   help=f"derivative order, 0 to {_COMPARE_MAX_K} (the two-term prediction "
                        f"needs gamma_2k)")
    p.add_argument("--sigma", type=float, default=0.5)

    p = add_command("diagnostics", cmd_diagnostics,
                    "proof-step, L2, sup-norm and sigma suites",
                    "write the suite CSV here", [threads], trials=64)
    p.add_argument("--suite", choices=["steps", "l2", "sup", "sigma"], required=True)
    add_spec_flags(p, with_part=False)
    p.set_defaults(k=None, sigma=None)  # None: not given (l2 and sigma take neither)
    return parser


def _dumps(payload: dict) -> str:
    """The payload as JSON; a NumericalError names the fields that are not finite numbers."""
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError:
        fields = re.findall(r'"([^"]*)": (?:NaN|-?Infinity)', json.dumps(payload, sort_keys=True))
        raise NumericalError(f"the result is not finite: {', '.join(fields)}", None) from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    folder = os.path.dirname(args.out or "") or "."  # checked before anything runs
    if args.out and (os.path.isdir(args.out) or not os.path.isdir(folder)
                     or not os.access(folder, os.W_OK)):
        reason = ("is a directory" if os.path.isdir(args.out)
                  else f"needs an existing, writable directory ({folder})")
        print(f"error: --out {args.out} {reason}", file=sys.stderr)
        return _EXIT_USAGE
    try:
        body, rows, columns, fields = args.func(args)
        text = _dumps({"schema_version": SCHEMA_VERSION, "command": args.command,
                       "seed": args.seed, **body})
    except ValueError as exc:  # a NumericalError is a ValueError with its own code
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL if isinstance(exc, NumericalError) else _EXIT_USAGE
    except MemoryError:  # compare names its largest T
        T = getattr(args, "T", 0) or max(float(x) for x in args.T_list.split(",") if x)
        print(f"error: out of memory at T = {T:g} ({math.floor(T):,} terms)", file=sys.stderr)
        return _EXIT_MEMORY
    print(text)
    if args.out:
        # a diagnostics header names its suite ahead of the common fields
        suite = f" suite={args.suite}" if args.command == "diagnostics" else ""
        tail = "".join(f" {name}={value}" for name, value in fields.items())
        with open(args.out, "w", newline="") as fh:
            fh.write(f"# dirichlet-roots {args.command}{suite} schema={SCHEMA_VERSION} "
                     f"seed={args.seed}{tail}\n")
            writer = csv.DictWriter(fh, columns or list(rows[0]), extrasaction="ignore",
                                    lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
