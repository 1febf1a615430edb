"""Self-tests of the benchmark's own code: span arithmetic and output checks.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import types
from multiprocessing import get_context
from pathlib import Path

import pytest

from perfbench import checks, layers, spans, yardstick
from perfbench.spans import Span

HERE = Path(__file__).resolve().parent
REFS = json.loads((HERE / "references.json").read_text())


def _span(slot, parent, t0, t1, name="core.f", pid=1, fanout=1.0, work=0.0):
    return Span(slot, parent, pid, name, t0, t1, work=work, fanout=fanout)


def test_self_time_subtracts_union_of_nested_children():
    tree = [_span(0, -1, 0.0, 10.0),
            _span(1, 0, 1.0, 4.0), _span(2, 1, 2.0, 3.0),
            _span(3, 0, 3.5, 6.0),           # overlaps child 1 by 0.5
            _span(4, 0, 9.0, 12.0)]          # runs past the parent's end
    selfs = spans.self_times(tree)
    assert selfs[0] == (pytest.approx(10.0 - 5.0 - 1.0), 1.0)
    assert selfs[1][0] == pytest.approx(2.0)
    assert selfs[2][0] == pytest.approx(1.0)
    assert selfs[3][0] == pytest.approx(2.5)


def test_pool_children_count_as_busy_time_over_workers():
    tree = [_span(0, -1, 0.0, 10.0, "monte_carlo.run_trials", fanout=2.0),
            _span(1, 0, 0.0, 4.0, "monte_carlo.count_roots", pid=2),
            _span(2, 1, 0.5, 3.5, "dirichlet_eval.eval_grid", pid=2),
            _span(3, 0, 4.0, 8.0, "monte_carlo.count_roots", pid=2),
            _span(4, 0, 1.0, 9.0, "core.sample_coefficients", pid=3)]
    selfs = spans.self_times(tree)
    assert selfs[0] == (pytest.approx(10.0 - 16.0 / 2), 1.0)
    assert selfs[2] == (pytest.approx(3.0), 0.5)
    weighted = sum(own * w for own, w in selfs.values())
    assert weighted == pytest.approx(10.0)


def _one_set(first_slot=0, start=0.0):
    """The spans of one traced call set, in slots from first_slot on."""
    def span(slot, parent, t0, t1, name, work=0.0):
        return _span(first_slot + slot, first_slot + parent if parent >= 0 else -1,
                     start + t0, start + t1, name, work=work)
    return [span(0, -1, 0.0, 9.0, "cli.main"),
            span(1, 0, 0.5, 8.0, "kac_rice.expected_count_deterministic"),
            span(2, 1, 1.0, 7.0, "kac_rice.breakdown_grid", work=100),
            span(3, 2, 1.5, 6.5, "dirichlet_eval.oscillating_sums", work=1e9)]


def test_layer_totals_add_up_to_wall_time():
    m = layers.derive(spans.totals_by_name(_one_set()), wall_s=10.0, sets=1)
    assert m["dirichlet_eval.kernel_s"] == pytest.approx(5.0)
    assert m["dirichlet_eval.ns_per_node_term"] == pytest.approx(5.0)
    assert m["kac_rice.assembly_s"] == pytest.approx(1.0)
    assert m["kac_rice.quadrature_s"] == pytest.approx(1.5)
    assert m["kac_rice.density_nodes"] == 100
    assert m["cli.overhead_s"] == pytest.approx(1.5)
    parts = sum(m[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert parts + m["cli.overhead_s"] + m["trace.unattributed_s"] == pytest.approx(10.0)
    assert m["trace.unattributed_s"] == pytest.approx(1.0)


def test_layer_figures_are_per_set_so_more_sets_leave_them_unchanged():
    one = layers.derive(spans.totals_by_name(_one_set()), wall_s=10.0, sets=1)
    tree = _one_set() + _one_set(first_slot=4, start=10.0)
    two = layers.derive(spans.totals_by_name(tree), wall_s=20.0, sets=2)
    assert two == pytest.approx(one)
    assert two["dirichlet_eval.kernel_calls"] == 1


def _double(x):
    return 2 * x


def _call_twice(f):
    f(1)
    f(2)


def test_recorder_collects_spans_from_forked_children():
    rec = spans.Recorder(capacity=16)
    try:
        outer = rec.wrap("monte_carlo.outer", _call_twice,
                         lambda a, k, r: (0.0, 0.0, 1.0))
        inner = rec.wrap("core.double", _double, lambda a, k, r: (float(r), 0.0, 1.0))
        outer(inner)
        child = get_context("fork").Process(target=_call_twice, args=(inner,))
        child.start()
        child.join(timeout=30)
        assert child.exitcode == 0
        got = rec.spans()
    finally:
        rec.close()
    assert sorted(s.name for s in got) == ["core.double"] * 4 + ["monte_carlo.outer"]
    top = next(s for s in got if s.name == "monte_carlo.outer")
    mine = [s for s in got if s.pid == top.pid and s.name == "core.double"]
    assert all(s.parent == top.slot for s in mine)
    assert sorted(s.work for s in got if s.name == "core.double") == [2, 2, 4, 4]


def test_recorder_keeps_only_spans_within_capacity():
    rec = spans.Recorder(capacity=2)
    try:
        f = rec.wrap("core.double", _double)
        for i in range(5):
            f(i)
        assert rec.opened == 5 and len(rec.spans()) == 2
    finally:
        rec.close()


def test_instrumented_rebinds_every_reference_and_restores():
    mod = types.ModuleType("fakepkg.core")
    exec("def f(x):\n    return x + 1\n__all__ = ['f']", mod.__dict__)
    mod.f.__module__ = "fakepkg.core"
    user = types.ModuleType("fakepkg.user")
    user.f = mod.f
    original = mod.f
    sys.modules.update({"fakepkg.core": mod, "fakepkg.user": user})
    rec = spans.Recorder(capacity=8)
    try:
        with spans.instrumented(rec, [mod], {}, package="fakepkg"):
            assert user.f is not original and mod.f is not original
            assert user.f(1) == 2
        assert user.f is original and mod.f is original
        assert [s.name for s in rec.spans()] == ["core.f"]
    finally:
        rec.close()
        for name in ("fakepkg.core", "fakepkg.user"):
            sys.modules.pop(name)


def test_yardstick_times_each_core_and_reaps_its_processes():
    assert yardstick.seconds(1) > 0
    assert yardstick.seconds(2) > 0
    assert get_context("fork").active_children() == []


# ------------------------------------------------------------------ checks

def _ek_ref(key):
    return REFS["ek"][key]["value"]


def test_expected_exact_check_rejects_a_perturbed_value():
    ref = _ek_ref("T=500,k=2,part=sine")
    good = {"command": "expected", "method": "composite_deterministic",
            "ek_value": ref * (1 + 1e-12), "ek_error": 0.0}
    assert checks.check_expected_exact(good, ref) == []
    assert checks.check_expected_exact({**good, "ek_value": ref * (1 + 2e-9)}, ref)
    assert checks.check_expected_exact({**good, "method": "stratified_random"}, ref)


def test_statistical_checks_reject_estimates_beyond_z():
    ref = _ek_ref("T=4000,k=0,part=cosine")
    strat = {"command": "expected", "method": "stratified_random",
             "ek_value": ref + 1.0, "stderr": 0.9}
    assert checks.check_expected_stratified(strat, ref) == []
    assert checks.check_expected_stratified({**strat, "ek_value": ref + 4.6}, ref)
    ref = _ek_ref("T=500,k=0,part=cosine")
    mc = {"command": "simulate", "trials": 200, "mean": ref - 3.0, "stderr": 8.0,
          "min": 100, "max": 700}
    assert checks.check_simulate_mean(mc, ref, 200) == []
    assert checks.check_simulate_mean({**mc, "mean": ref + 41.0}, ref, 200)
    assert checks.check_simulate_mean(mc, ref, 100)


def _csv(counts):
    rows = "".join(f"{i},{c}\n" for i, c in enumerate(counts))
    return f"# dirichlet-roots simulate schema=1 seed=7\ntrial_index,count\n{rows}"


def test_csv_subset_check_rejects_any_differing_byte():
    timed = _csv([5, 7, 9, 11])
    subset = _csv([5, 7])
    assert checks.check_csv_subset(timed, subset, subset, 2) == []
    assert checks.check_csv_subset(timed, subset, _csv([5, 8]), 2)
    assert checks.check_csv_subset(_csv([5, 6, 9]), subset, subset, 2)
    assert checks.csv_counts(timed) == [5, 7, 9, 11]


def test_nested_count_check_rejects_a_lost_root():
    assert checks.check_nested_counts([4, 6], [4, 8]) == []
    assert checks.check_nested_counts([4, 6], [4, 5])


def _steps_payload():
    rows = [{"step_id": i + 1, "integral_value": v, "envelope_scale": 1.0 + abs(v),
             "observed_ratio": 0.5} for i, v in enumerate(REFS["steps"])]
    return {"command": "diagnostics", "rows": rows}


def test_steps_check_rejects_a_perturbed_integral():
    payload = _steps_payload()
    assert checks.check_steps(payload, REFS["steps"]) == []
    payload["rows"][4]["integral_value"] += 1e-6 * payload["rows"][4]["envelope_scale"]
    assert checks.check_steps(payload, REFS["steps"])
    payload = _steps_payload()
    payload["rows"][0]["observed_ratio"] = float("nan")
    assert checks.check_steps(payload, REFS["steps"])
    payload = _steps_payload()
    step6 = payload["rows"][5]
    step6["integral_value"] += 5e-6 * step6["envelope_scale"]
    assert checks.check_steps(payload, REFS["steps"]) == []
    step6["integral_value"] += 1e-5 * step6["envelope_scale"]
    assert checks.check_steps(payload, REFS["steps"])


def test_l2_check_rejects_a_perturbed_lhs_or_a_blown_budget():
    rows = [{"family": name, "lhs": lhs, "main": lhs + 0.5, "error_budget": 1.0}
            for name, lhs in REFS["l2"].items()]
    payload = {"command": "diagnostics", "rows": rows}
    assert checks.check_l2(payload, REFS["l2"]) == []
    rows[1]["lhs"] *= 1 + 1e-8
    assert checks.check_l2(payload, REFS["l2"])
    rows[1]["lhs"] = REFS["l2"][rows[1]["family"]]
    rows[2]["main"] = rows[2]["lhs"] + 1.5
    assert checks.check_l2(payload, REFS["l2"])


def test_sup_check_rejects_a_perturbed_supremum():
    row = dict(REFS["sup"])
    payload = {"command": "diagnostics", "rows": [row]}
    assert checks.check_sup(payload, REFS["sup"]) == []
    row["sup_u2"] *= 1 + 1e-8
    assert checks.check_sup(payload, REFS["sup"])

