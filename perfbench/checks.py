"""Output checks for the benchmark's CLI calls.

Each check takes the parsed JSON payload a command printed (or the CSV text
it wrote) plus the frozen references from references.json, and returns a
list of problems; an empty list means the output is correct.  Any problem
counts the call as failed.

Tolerances, stated once:

* EK_RTOL: deterministic EK values, proof-step integrals, L2 left-hand
  sides and sup-norm maxima must match their references to 1e-9 relative,
  the grid-accuracy contract of the library.  The current rules agree with
  the references to about 1e-14.
* STEP_RTOL: proof step 6 integrates |y| x^2, which has a corner at every
  zero of y; Gauss-Legendre converges slowly there, and the CLI's 8-node
  rule is accurate to only about 3e-6 of the envelope scale at T = 1000.
  That step may differ from its 128-node reference by up to 1e-5.
* Z_MAX: statistical estimates (stratified EK, the MC mean) must lie within
  5 reported standard errors of the deterministic reference.  The MC
  default-step undercount (about 0.5%) is a fraction of one standard error
  at a few hundred trials, so this check does not hide it; the traced run
  measures it as monte_carlo.missed_roots_per_1k.
"""

from __future__ import annotations

import math

EK_RTOL = 1e-9
STEP_RTOL = {6: 1e-5}
Z_MAX = 5.0


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _command(payload: dict, command: str) -> list[str]:
    if payload.get("command") != command:
        return [f"expected a {command!r} payload, got {payload.get('command')!r}"]
    return []


def rel_err(value: float, ref: float, scale: float = 0.0) -> float:
    return abs(value - ref) / max(abs(ref), scale)


def check_expected_exact(payload: dict, ref: float) -> list[str]:
    problems = _command(payload, "expected")
    value, err = payload.get("ek_value"), payload.get("ek_error")
    if payload.get("method") != "composite_deterministic":
        problems.append(f"method {payload.get('method')!r} is not deterministic")
    if not _finite(value, err) or err < 0:
        return problems + [f"non-finite value or error estimate: {value}, {err}"]
    if rel_err(value, ref) > EK_RTOL:
        problems.append(f"ek_value {value!r} vs reference {ref!r}: "
                        f"relative error {rel_err(value, ref):.3e} > {EK_RTOL:g}")
    return problems


def check_expected_stratified(payload: dict, ref: float) -> list[str]:
    problems = _command(payload, "expected")
    value, stderr = payload.get("ek_value"), payload.get("stderr")
    if payload.get("method") != "stratified_random":
        problems.append(f"method {payload.get('method')!r} is not stratified")
    if not _finite(value, stderr) or not stderr > 0:
        return problems + [f"bad value or stderr: {value}, {stderr}"]
    if abs(value - ref) > Z_MAX * stderr:
        problems.append(f"ek_value {value!r} is {abs(value - ref) / stderr:.2f} "
                        f"standard errors from reference {ref!r}")
    return problems


def check_simulate_mean(payload: dict, ref: float, trials: int) -> list[str]:
    problems = _command(payload, "simulate")
    mean, stderr = payload.get("mean"), payload.get("stderr")
    if payload.get("trials") != trials:
        problems.append(f"ran {payload.get('trials')} trials, asked for {trials}")
    if not _finite(mean, stderr) or not stderr > 0:
        return problems + [f"bad mean or stderr: {mean}, {stderr}"]
    if not payload.get("min", -1) <= mean <= payload.get("max", -1):
        problems.append(f"mean {mean} outside [min, max]")
    if abs(mean - ref) > Z_MAX * stderr:
        problems.append(f"MC mean {mean!r} is {abs(mean - ref) / stderr:.2f} "
                        f"standard errors from the EK reference {ref!r}")
    return problems


def csv_counts(text: str) -> list[int]:
    """Per-trial counts from a `simulate --out` CSV, in trial order."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# dirichlet-roots simulate"):
        raise ValueError("not a simulate CSV")
    if lines[1] != "trial_index,count":
        raise ValueError(f"unexpected CSV columns {lines[1]!r}")
    counts = []
    for i, line in enumerate(lines[2:]):
        index, count = line.split(",")
        if int(index) != i:
            raise ValueError(f"row {i} has trial_index {index}")
        counts.append(int(count))
    return counts


def check_csv_subset(timed: str, threads1: str, threads2: str, k: int) -> list[str]:
    """A k-trial rerun is byte-identical for 1 and 2 threads and matches the
    first k data rows of the timed run's CSV."""
    problems = []
    if threads1 != threads2:
        problems.append("per-trial CSV differs between --threads 1 and --threads 2")
    rows = threads1.splitlines()[2:]
    if len(rows) != k:
        problems.append(f"subset CSV has {len(rows)} rows, expected {k}")
    if timed.splitlines()[2:2 + k] != rows:
        problems.append("subset rows differ from the timed run's first rows")
    return problems


def check_nested_counts(coarse: list[int], fine: list[int]) -> list[str]:
    """On a nested refinement every sign change survives, so no trial may
    count fewer roots on the finer grid."""
    if len(coarse) != len(fine):
        return [f"{len(coarse)} coarse vs {len(fine)} fine trials"]
    bad = [i for i, (c, f) in enumerate(zip(coarse, fine)) if f < c]
    return [f"finer grid lost roots in trials {bad}"] if bad else []


def check_steps(payload: dict, refs: list[float]) -> list[str]:
    problems = _command(payload, "diagnostics")
    rows = payload.get("rows", [])
    if [r.get("step_id") for r in rows] != list(range(1, 10)):
        return problems + ["proof-step rows are not steps 1..9"]
    for r, ref in zip(rows, refs):
        value, scale = r.get("integral_value"), r.get("envelope_scale")
        if not _finite(value, scale, r.get("observed_ratio")):
            problems.append(f"step {r['step_id']}: non-finite row {r}")
        elif rel_err(value, ref, scale) > STEP_RTOL.get(r["step_id"], EK_RTOL):
            problems.append(f"step {r['step_id']}: {value!r} vs reference {ref!r}")
    return problems


def check_l2(payload: dict, refs: dict[str, float]) -> list[str]:
    problems = _command(payload, "diagnostics")
    rows = payload.get("rows", [])
    if sorted(r.get("family") for r in rows) != sorted(refs):
        return problems + [f"L2 families {[r.get('family') for r in rows]}"]
    for r in rows:
        lhs, main, budget = r.get("lhs"), r.get("main"), r.get("error_budget")
        if not _finite(lhs, main, budget):
            problems.append(f"L2 {r['family']}: non-finite row {r}")
            continue
        if abs(lhs - main) > budget:
            problems.append(f"L2 {r['family']}: |lhs - main| = {abs(lhs - main):.4g} "
                            f"exceeds the budget {budget:.4g}")
        ref = refs[r["family"]]
        if rel_err(lhs, ref) > EK_RTOL:
            problems.append(f"L2 {r['family']}: lhs {lhs!r} vs closed form {ref!r}")
    return problems


def check_sup(payload: dict, refs: dict[str, float]) -> list[str]:
    problems = _command(payload, "diagnostics")
    rows = payload.get("rows", [])
    if len(rows) != 1:
        return problems + [f"expected one sup row, got {len(rows)}"]
    for key, ref in refs.items():
        value = rows[0].get(key)
        if not _finite(value):
            problems.append(f"{key}: non-finite {value}")
        elif rel_err(value, ref, 1.0) > EK_RTOL:
            problems.append(f"{key}: {value!r} vs direct evaluation {ref!r}")
    return problems
