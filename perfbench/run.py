"""Benchmark of the dirichlet-roots CLI: end-to-end figures and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload ek_det --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

One run imports the library from ./src, sets it up, then calls
`dirichlet_roots.cli.main` in-process (stdout captured) in a closed loop
over the workload's call set (workloads.py) for --seconds, at least one
set.  Every call's output is checked against frozen references (checks.py)
after the timed part.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics:
    set_s        median wall seconds of one pass over the call set
    setup_s      median of 5 cold set-ups, one in this process and four in
                 fresh interpreters: importing the library, building the
                 workload's specs and weight tables, and one small warm-up
                 call of its command
    peak_rss_mb  this process's peak resident memory since it started (its
                 set-up and the first set), plus the largest peak of any
                 pool child it has reaped by then; pages a forked child
                 shares with this process count in both
Both times are scaled to a nominal host speed: after every call from the
second set on, the run times a fixed piece of reference work
(yardstick.py) for about a fifth of the call's wall time, and multiplies
wall seconds by REF_S / the median reference time, which cancels the
host's speed drift.  The unscaled wall times, and the
ROADMAP's per-workload figures (ek_wall_s, mc_trials_per_s, diag_suite_s,
error_rate), are in the report line.
--trace 1 runs every set twice, untraced and traced (alternating which
goes first), and reports the per-layer metrics of layers.py, per set; the
spans are written to .bench_out/spans-<workload>-seed<seed>.jsonl at the end.
Metric names and units come from BENCHMARK.json.

A JSON "provenance" line (git SHA, source digest, seed, CPUs, Python, numpy,
BLAS and its thread count) and the "report" line come before the result.
--all runs every workload, untraced and traced, in child processes and
prints all of it as one table.

OpenBLAS/OpenMP threads are pinned to 1 before numpy loads: the kernel is
faster single-threaded, and BLAS threads inside the two forked MC workers
would oversubscribe two cores.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, layers, spans, yardstick  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    CSV_SUBSET,
    MC_T,
    MC_THREADS,
    MC_TRIALS,
    MISSED_TRIALS,
    REFINE,
    WORKLOADS,
    Op,
    mc_argv,
)

SETUP_REPS = 5
OUT_DIR = ROOT / ".bench_out"
# Runs set_up in a new interpreter; prints its seconds, or exits non-zero
# with the warm-up call's error.
FRESH_SET_UP = ("import json, sys; sys.path.insert(0, '.'); from perfbench import run; "
                "s, warm, _, _ = run.set_up(run.WORKLOADS[sys.argv[1]]); "
                "sys.exit(warm.err or warm.rc) if warm.rc else "
                "print(json.dumps({'setup_s': s}))")


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import the library from ./src only; returns (cli, {name: module})."""
    src = ROOT / "src"
    if not (src / "dirichlet_roots" / "__init__.py").is_file():
        raise ProgramMissing(f"no dirichlet_roots package under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("dirichlet_roots.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ProgramMissing(f"dirichlet_roots imported from {cli.__file__}, not {src}")
    lib = {m: importlib.import_module(f"dirichlet_roots.{m}") for m in layers.LAYERS}
    return cli, lib


# ---------------------------------------------------------------- provenance

def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas(np) -> dict:
    info: dict = {}
    try:
        build = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = build.get("blas", {})
        info.update(name=blas.get("name"), version=blas.get("version"))
    except TypeError:  # numpy < 1.26 has no dict mode
        pass
    import ctypes
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get_threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(handle, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None:
                get_threads.restype = ctypes.c_int
                info["threads_runtime"] = get_threads()
                if get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    info["config"] = get_config().decode()
                break
    info["threads_env"] = os.environ["OPENBLAS_NUM_THREADS"]
    return info


def provenance(seed: int, workload: str) -> dict:
    np = sys.modules["numpy"]
    return {"workload": workload, "seed": seed, "git_sha": _git_sha(),
            "src_sha256": _src_digest(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(np), "mc_pool_workers": MC_THREADS}


# ---------------------------------------------------------------- calls

@dataclass
class Call:
    op: Op
    rc: int
    out: str
    err: str
    wall: float
    problems: list[str] = field(default_factory=list)
    payload: dict | None = None


def call(main, op: Op) -> Call:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(op.argv))
    except SystemExit as exc:  # argparse rejecting the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc = -1
        err.write(traceback.format_exc())
    return Call(op, rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0)


def check(c: Call) -> Call:
    if c.rc != 0:
        c.problems.append(f"exit code {c.rc}: {c.err.strip()[-500:]}")
        return c
    try:
        c.payload = json.loads(c.out)
        c.problems.extend(c.op.check(c.payload))
    except Exception:
        c.problems.append("output check raised:\n" + traceback.format_exc())
    return c


def set_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def run_set(wl, seed: int, index: int, refs, main, tmp: Path, tag: str,
            after_call=None):
    """One pass over the workload's call set; returns (wall seconds, calls).

    The wall is the sum of the calls' walls, so `after_call`, run after
    each call, stays out of it."""
    ops = wl.make_set(set_rng(wl.name, seed, index), refs, str(tmp / f"{tag}-{index}"))
    calls = []
    for op in ops:
        calls.append(call(main, op))
        if after_call is not None:
            after_call(calls[-1])
    return sum(c.wall for c in calls), calls


def closed_loop(seconds: float, one_set):
    """one_set(0), one_set(1), ... until another would overrun; at least one."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(one_set(len(results)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def set_up(wl):
    """Import the library, build the workload's specs and weight tables and
    make one small warm-up call; returns (seconds, warm-up call, cli.main,
    {name: module}).  Cold only once per interpreter."""
    t0 = time.perf_counter()
    cli, lib = import_program()
    for T, k, part in wl.specs:
        lib["dirichlet_eval"].make_weight_table(lib["core"].make_spec(T, k, 0.5, part))
    warm = call(cli.main, Op("warm-up", wl.warmup, lambda p: []))
    return time.perf_counter() - t0, warm, cli.main, lib


def fresh_set_up(wl) -> Call:
    """set_up in a new interpreter, as a checked call whose payload holds
    its seconds."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", FRESH_SET_UP, wl.name], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    return check(Call(Op("fresh set-up", wl.warmup, lambda p: []), proc.returncode,
                      proc.stdout, proc.stderr, time.perf_counter() - t0))


def _arg(op: Op, flag: str) -> str:
    return op.argv[op.argv.index(flag) + 1]


def mc_extra_calls(first: Call, lib, main, tmp: Path, refs, missed: bool):
    """Checks outside the timed part on the first simulate call's samples:
    CSV bytes for --threads 1 and 2, and (traced run) the nested-step rerun
    behind monte_carlo.missed_roots_per_1k.  Returns (calls, missed per 1k)."""
    seed = _arg(first.op, "--seed")
    ref = refs["ek"][f"T={MC_T:g},k=0,part=cosine"]["value"]

    def simulate(label, trials, threads, name, step=None):
        out = tmp / name
        c = check(call(main, Op(label, mc_argv(seed, trials, threads, str(out), step),
                                lambda p: checks.check_simulate_mean(p, ref, trials))))
        return c, (out.read_text() if c.rc == 0 else "")

    one, csv1 = simulate("simulate subset threads=1", CSV_SUBSET, 1, "subset-1.csv")
    two, csv2 = simulate("simulate subset threads=2", CSV_SUBSET, 2, "subset-2.csv")
    calls = [one, two]
    if first.rc != 0:
        return calls, None
    timed_csv = Path(_arg(first.op, "--out")).read_text()
    two.problems.extend(checks.check_csv_subset(timed_csv, csv1, csv2, CSV_SUBSET))
    if not missed:
        return calls, None
    spec = lib["core"].make_spec(MC_T, 0, 0.5, "cosine")
    m = max(1, math.ceil(MC_T / lib["monte_carlo"].default_grid_step(spec) - 1e-12))
    # slightly above length/(REFINE*m) so the snapped grid is exactly nested
    fine_step = MC_T / (REFINE * m) * (1.0 + 1e-13)
    c, fine_csv = simulate(f"simulate step/{REFINE}", MISSED_TRIALS, MC_THREADS,
                           "fine.csv", fine_step)
    calls.append(c)
    try:
        coarse = checks.csv_counts(timed_csv)[:MISSED_TRIALS]
        fine = checks.csv_counts(fine_csv)
    except ValueError as exc:
        c.problems.append(f"unreadable per-trial CSV: {exc}")
        return calls, None
    c.problems.extend(checks.check_nested_counts(coarse, fine))
    return calls, 1000.0 * (sum(fine) - sum(coarse)) / sum(fine)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def accuracy(calls: list[Call]) -> tuple[float, float]:
    """Largest relative error of the EK values that passed their checks, and
    the smallest ratio of reported error estimate to actual error."""
    errs, ratios = [0.0], []
    for c in calls:
        if c.op.ref is None or c.problems:
            continue
        actual = abs(c.payload["ek_value"] - c.op.ref)
        errs.append(actual / abs(c.op.ref))
        if actual > 0:
            ratios.append(c.payload["ek_error"] / actual)
    return max(errs), (min(ratios) if ratios else 0.0)


def _median_wall(sets) -> float:
    return statistics.median(wall for wall, _ in sets)


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads((Path(__file__).parent / "references.json").read_text())
    setup = set_up(wl)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        return _run(args, wl, bench, refs, setup, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args, wl, bench, refs, setup, tmp: Path) -> int:
    setup_s, warm, main, lib = setup
    print(json.dumps({"provenance": provenance(args.seed, wl.name)}), flush=True)
    calls = [check(warm)]

    def plain(i, after_call=None):
        return run_set(wl, args.seed, i, refs, main, tmp, "plain", after_call)

    metrics = {}
    if not args.trace:
        ref_s, rss = [], []

        def timed_set(i):
            # the first set runs alone so that peak_rss_mb covers one whole
            # set and no reference work
            if i == 0:
                result = plain(0)
                rss.append(peak_rss_mb())
                return result
            return plain(i, lambda c: ref_s.extend(yardstick.sample(c.wall, wl.cores)))

        sets = closed_loop(args.seconds, timed_set)
        if not ref_s:
            ref_s.append(yardstick.seconds(wl.cores))
        scale = yardstick.REF_S / statistics.median(ref_s)
    else:
        rec = spans.Recorder()
        traced_main = rec.wrap("cli.main", main)

        def traced(i):
            with spans.instrumented(rec, lib.values(), layers.MEASURES):
                return run_set(wl, args.seed, i, refs, traced_main, tmp, "traced")

        def pair(i):
            # each set runs untraced and traced; alternating which goes first
            # cancels drift within a run out of trace.overhead_s
            if i % 2:
                t = traced(i)
                return plain(i), t
            return plain(i), traced(i)

        try:
            pairs = closed_loop(args.seconds, pair)
            recorded = rec.spans()
            dropped = rec.opened - len(recorded)
        finally:
            rec.close()
        sets = [p for p, _ in pairs]
        tsets = [t for _, t in pairs]
        traced_calls = [check(c) for _, cs in tsets for c in cs]
        metrics = layers.derive(spans.totals_by_name(recorded),
                                sum(wall for wall, _ in tsets), len(tsets))
        metrics["trace.overhead_s"] = statistics.median(t[0] - p[0] for p, t in pairs)
        _write_spans(wl.name, args.seed, recorded)
    timed = [check(c) for _, cs in sets for c in cs]
    calls += timed
    if args.trace:
        calls += traced_calls
        metrics["kac_rice.rel_err"], metrics["kac_rice.err_estimate_ratio"] = \
            accuracy(timed + traced_calls)
        if dropped:
            calls[-1].problems.append(f"{dropped} spans lost (capacity {rec.capacity})")
    # the other set-ups run after the timed part so as not to disturb it
    fresh = [fresh_set_up(wl) for _ in range(SETUP_REPS - 1)]
    calls += fresh
    setups_s = [setup_s] + [c.payload["setup_s"] for c in fresh if not c.problems]
    setup_s = statistics.median(setups_s)
    missed = None
    if wl.name == "mc_trials":
        extra, missed = mc_extra_calls(timed[0], lib, main, tmp, refs, bool(args.trace))
        calls += extra
    if args.trace:
        metrics["monte_carlo.missed_roots_per_1k"] = missed or 0.0

    failed = [c for c in calls if c.problems]
    for c in failed:
        print(f"FAILED {c.op.label} ({' '.join(c.op.argv)}): " + "; ".join(c.problems),
              file=sys.stderr)
    set_wall = _median_wall(sets)
    report = {"workload": wl.name, "sets": len(sets), "calls": len(calls),
              "failed": len(failed), "error_rate": len(failed) / len(calls),
              "setup_wall_s": setup_s, "setups_s": setups_s, "set_wall_s": set_wall,
              "set_walls_s": [wall for wall, _ in sets],
              "call_median_s": _call_medians(timed)}
    if wl.name.startswith("ek_"):
        report["ek_wall_s"] = set_wall
    elif wl.name == "mc_trials":
        report["mc_trials_per_s"] = statistics.median(MC_TRIALS / w for w, _ in sets)
    elif wl.name == "diag_suite":
        report["diag_suite_s"] = set_wall
    if not args.trace:
        report.update(peak_rss_mb=rss[0], reference_s=ref_s, scale=scale)
        metrics = {"set_s": set_wall * scale, "setup_s": setup_s * scale,
                   "peak_rss_mb": rss[0]}
    kind = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({"report": report}), flush=True)
    print(json.dumps({
        "correct": not failed, "attempted": len(calls), "failed": len(failed),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in bench[kind]},
    }))
    return 0


def _call_medians(calls: list[Call]) -> dict[str, float]:
    walls: dict[str, list[float]] = {}
    for c in calls:
        walls.setdefault(c.op.label, []).append(c.wall)
    return {label: statistics.median(w) for label, w in sorted(walls.items())}


def _write_spans(workload: str, seed: int, recorded) -> None:
    selfs = spans.self_times(recorded)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for s in recorded:
            own, weight = selfs[s.slot]
            fh.write(json.dumps({"slot": s.slot, "parent": s.parent, "pid": s.pid,
                                 "name": s.name, "t0": s.t0, "t1": s.t1,
                                 "work": s.work, "aux": s.aux, "fanout": s.fanout,
                                 "self_s": own, "weight": weight}) + "\n")


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own child process."""
    runs, ok = 0, True
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            report = next(json.loads(x)["report"] for x in lines if x.startswith('{"report"'))
            ok &= result["correct"]
            runs += 1
            print(f"\n== {name} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            if not trace:
                for key, value in report.items():
                    if key not in ("workload", "call_median_s"):
                        print(f"  {key:28s} {value}")
            for key, m in result["metrics"].items():
                print(f"  {key:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": ok, "runs": runs}))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--all", action="store_true", help="run every workload, both modes")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.all and args.workload is None:
        p.error("give --workload or --all")
    try:
        return run_all(args) if args.all else run_workload(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
