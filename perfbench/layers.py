"""Per-layer metrics of the traced run, derived from spans and their counts.

Layers are the library modules.  Every figure is per call set: a total
over the traced sets divided by their number, so it does not grow when
faster code fits more sets into a run, and the counts are exact and repeat
from run to run.  The `*_s` figures are weighted self times in seconds of
wall time (see spans.py): a span's duration minus its children's, with work
done in pool workers divided by the pool size.  Two include their children:
core.sample_s and dirichlet_eval.weight_table_s.  `<layer>.self_s` sums
every public function of a layer, so

    sum of <layer>.self_s + cli.overhead_s + trace.unattributed_s = trace.wall_s

A metric of a layer that a workload never calls reads 0, and so does
kac_rice.err_estimate_ratio when no EK value differs from its reference.

Which end-to-end figure each metric should move, on which workload:

* dirichlet_eval kernel and grid figures: set_s on ek_det, diag_suite
  and mc_trials (the kernel is 95-99% of them); no change on ek_strat,
  which never calls the uniform-grid kernel.
* kac_rice.density_nodes and assembly_s: set_s on ek_det and
  diag_suite.  kac_rice.quadrature_s: set_s on ek_strat, where the
  scattered dense-trig path runs inside expected_count_stratified.
* core.sample_s / core.samples, monte_carlo.count_s / trials / pool_wait_s:
  set_s on mc_trials.  dirichlet_eval.weight_table_s: setup_s and
  every workload's per-call table build.
* monte_carlo.roots_counted, step_warnings and missed_roots_per_1k: the MC
  undercount at the default grid step.
* diagnostics.*_s: set_s on diag_suite.
* kac_rice.rel_err and err_estimate_ratio: accuracy, reported only.
"""

from __future__ import annotations

from .spans import NameTotals

LAYERS = ("core", "dirichlet_eval", "kac_rice", "monte_carlo", "diagnostics")


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _kernel(args, kwargs, result):
    out_c, out_s = result
    rows = out_c.shape[0] + out_s.shape[0]
    return float(rows * out_c.shape[1] * len(_arg(args, kwargs, 0, "logs"))), 0.0, 1.0


def _run_trials(args, kwargs, result):
    threads = _arg(args, kwargs, 5, "threads", 1)
    return float(result.trials), 0.0, float(max(1, threads))


# span name -> count hook: (work, aux, fanout) from the call and its result
MEASURES = {
    "dirichlet_eval.oscillating_sums": _kernel,
    "dirichlet_eval.eval_grid": lambda a, k, r: (float(len(r.grid)), 0.0, 1.0),
    "kac_rice.breakdown_grid": lambda a, k, r: (float(len(r["density"])), 0.0, 1.0),
    "monte_carlo.count_roots": lambda a, k, r: (float(r.count), float(r.step_warning), 1.0),
    "monte_carlo.run_trials": _run_trials,
}


def derive(totals: dict[str, NameTotals], wall_s: float, sets: int) -> dict[str, float]:
    """Every span-based per-layer metric, per set, from the totals and traced
    wall seconds of `sets` call sets; accuracy and overhead figures are
    filled in by the runner."""
    def t(name: str) -> NameTotals:
        return totals.get(name, NameTotals())

    kernel = t("dirichlet_eval.oscillating_sums")
    m = {
        "dirichlet_eval.kernel_s": kernel.self_s,
        "dirichlet_eval.kernel_calls": kernel.calls,
        "dirichlet_eval.node_terms": kernel.work,
        "dirichlet_eval.ns_per_node_term":
            1e9 * kernel.raw_self_s / kernel.work if kernel.work else 0.0,
        "dirichlet_eval.eval_grid_s": t("dirichlet_eval.eval_grid").self_s,
        "dirichlet_eval.grid_points": t("dirichlet_eval.eval_grid").work,
        "dirichlet_eval.weight_table_s": t("dirichlet_eval.make_weight_table").inclusive_s,
        "kac_rice.density_nodes": t("kac_rice.breakdown_grid").work,
        "kac_rice.assembly_s": t("kac_rice.breakdown_grid").self_s,
        "kac_rice.quadrature_s": (t("kac_rice.expected_count_deterministic").self_s
                                  + t("kac_rice.expected_count_stratified").self_s),
        "core.sample_s": t("core.sample_coefficients").inclusive_s,
        "core.samples": t("core.sample_coefficients").calls,
        "monte_carlo.count_s": t("monte_carlo.count_roots").self_s,
        "monte_carlo.trials": t("monte_carlo.count_roots").calls,
        "monte_carlo.pool_wait_s": t("monte_carlo.run_trials").self_s,
        "monte_carlo.roots_counted": t("monte_carlo.count_roots").work,
        "monte_carlo.step_warnings": t("monte_carlo.count_roots").aux,
        "diagnostics.steps_s": t("diagnostics.proof_step_integrals").self_s,
        "diagnostics.l2_s": t("diagnostics.l2_mean_value_check").self_s,
        "diagnostics.sup_s": t("diagnostics.u_sup_monitor").self_s,
        "cli.overhead_s": t("cli.main").self_s,
        "trace.wall_s": wall_s,
        "trace.spans": sum(x.calls for x in totals.values()),
    }
    attributed = m["cli.overhead_s"]
    for layer in LAYERS:
        own = sum(x.self_s for name, x in totals.items() if name.split(".")[0] == layer)
        m[f"{layer}.self_s"] = own
        attributed += own
    m["trace.unattributed_s"] = wall_s - attributed
    ns = m["dirichlet_eval.ns_per_node_term"]
    m = {name: value / sets for name, value in m.items()}
    m["dirichlet_eval.ns_per_node_term"] = ns
    return m
