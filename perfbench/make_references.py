"""Compute the frozen reference values the benchmark checks outputs against.

Run once from the repository root; it rewrites perfbench/references.json:

    python3 perfbench/make_references.py

Each reference comes from a finer or an independent rule than the one the
CLI uses, so a benchmark check compares two routes to the same number:

* EK values: the library's Gauss-Legendre rule with 16 nodes per panel and
  panels half the default width (the CLI uses 8 nodes on default panels).
* proof-step integrals: 128 nodes per panel instead of 8.  Step 6's
  integrand |y| x^2 has a corner at every zero of y, so this converges only
  to about 1e-7 (64 and 128 nodes differ by 1.3e-7; see checks.STEP_RTOL).
* L2 left-hand sides: the closed form
      int_0^T |sum a_n n^{it}|^2 dt
          = T sum a_n^2 + sum_{m<n} 2 a_m a_n sin(T theta) / theta,
  theta = log(n/m), summed with math.fsum; no quadrature at all.
* sup-norm monitor: every grid point evaluated directly (exact trig
  arguments, math.fsum) instead of by the phase-recurrence kernel.

The T = 4000 EK reference dominates the cost (a few minutes on one core).
"""

from __future__ import annotations

import json
import math
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from dirichlet_roots.core import Interval, make_spec  # noqa: E402
from dirichlet_roots.diagnostics import proof_step_integrals  # noqa: E402
from dirichlet_roots.dirichlet_eval import make_weight_table  # noqa: E402
from dirichlet_roots.kac_rice import (  # noqa: E402
    expected_count_deterministic,
    panel_width,
)

# (T, k, part) of every EK value a workload checks.
EK_CASES = [(500.0, 0, "cosine"), (500.0, 2, "sine"), (4000.0, 0, "cosine")]
L2_T = 1000.0
STEPS_T = 1000.0
SUP_T = 2000.0
SUP_GRIDPOINTS = 10_000  # u_sup_monitor's default grid


def ek_key(T: float, k: int, part: str) -> str:
    return f"T={T:g},k={k},part={part}"


def ek_reference(T: float, k: int, part: str) -> dict:
    spec = make_spec(T, k, 0.5, part)
    res = expected_count_deterministic(
        spec, Interval(T, 2.0 * T), nodes_per_panel=16,
        max_panel_width=panel_width(spec) / 2.0, node_cap=10**9)
    return {"value": res.value, "halving_difference": res.abs_error_estimate,
            "nodes": res.nodes_used}


def l2_families() -> list[tuple[str, np.ndarray]]:
    """The coefficient families of `diagnostics --suite l2`, in CLI order."""
    n = np.arange(1, 501, dtype=np.float64)
    return [("ones", np.ones(2)), ("1_over_n", 1.0 / n),
            ("logn_over_n", np.log(n) / n)]


def l2_closed_form(a: np.ndarray, T: float) -> float:
    n = a.shape[0]
    logs = np.log(np.arange(1, n + 1, dtype=np.float64))
    terms = [T * math.fsum(a * a)]
    for m in range(n - 1):
        theta = logs[m + 1:] - logs[m]
        terms.extend(2.0 * a[m] * a[m + 1:] * np.sin(T * theta) / theta)
    return math.fsum(terms)


def sup_reference(T: float) -> dict:
    spec = make_spec(T, 0, 0.5, "cosine")
    table = make_weight_table(spec)
    sq, logs = np.asarray(table.squared_weights), np.asarray(table.logs)
    step = T / (SUP_GRIDPOINTS - 1)
    sup_u = sup_u1 = sup_u2 = 0.0
    for i in range(SUP_GRIDPOINTS):
        tau = 2.0 * T + i * (2.0 * step)
        phase = tau * logs
        c, s = np.cos(phase), np.sin(phase)
        sup_u = max(sup_u, abs(math.fsum(sq[1:] * c[1:])))
        sup_u1 = max(sup_u1, abs(math.fsum(sq * logs * s)))
        sup_u2 = max(sup_u2, abs(math.fsum(sq * logs * logs * c)))
    return {"sup_u": sup_u, "sup_u1": sup_u1, "sup_u2": sup_u2}


def main() -> int:
    out = {"ek": {}, "steps_T": STEPS_T, "l2_T": L2_T, "sup_T": SUP_T}
    for T, k, part in EK_CASES:
        out["ek"][ek_key(T, k, part)] = ek_reference(T, k, part)
        print(ek_key(T, k, part), out["ek"][ek_key(T, k, part)], flush=True)
    reports = proof_step_integrals(make_spec(STEPS_T, 0, 0.5, "cosine"),
                                   nodes_per_panel=128)
    out["steps"] = [r.integral_value for r in reports]
    out["l2"] = {name: l2_closed_form(a, L2_T) for name, a in l2_families()}
    out["sup"] = sup_reference(SUP_T)
    path = os.path.join(HERE, "references.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
