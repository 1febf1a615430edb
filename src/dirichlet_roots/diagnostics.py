"""Numerical reproduction of the proof's internal estimates.

Three independent probes of the machinery behind the zero-count asymptotic:

* proof_step_integrals: the nine pieces into which the fluctuation integral
  splits, each paired with its claimed envelope scale at finite T.  The
  claims are O(.) statements, so they are checked as bounded ratios, never
  as limits.
* l2_mean_value_check: the mean-value identity for L2 averages of Dirichlet
  polynomials, integral vs T sum|a_n|^2 with budget sum n |a_n|^2.
* u_sup_monitor: grid suprema of the fluctuation sums u, u', u'' against
  their zeta-driven log-power scales (reported, never asserted: the implied
  constants are not available).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import stieltjes_constant
from .core import Interval, Part, PolynomialSpec
from .dirichlet_eval import make_weight_table, oscillating_sums
from .kac_rice import (NODES_PER_PANEL, _breakdown_streams, _gauss_legendre, _moment_sums,
                       panel_width)

__all__ = [
    "StepReport",
    "USupReport",
    "proof_step_integrals",
    "l2_mean_value_check",
    "u_sup_monitor",
]


@dataclass(frozen=True)
class StepReport:
    step_id: int
    integral_value: float
    envelope_scale: float
    observed_ratio: float


@dataclass(frozen=True)
class USupReport:
    sup_u: float
    sup_u1: float
    sup_u2: float
    log_power_ratios: tuple[float, float, float]


# Envelope exponents: step_id -> power of log T under T (step 1 is special).
_STEP_LOG_POWERS = {2: 3.0, 3: 4.0, 4: 4.0, 5: 2.0, 6: 5.0 - 4.0 / 3.0,
                    7: 4.0 - 4.0 / 3.0, 8: 4.0, 9: 6.0 - 4.0 / 3.0}


def proof_step_integrals(spec: PolynomialSpec,
                         nodes_per_panel: int = NODES_PER_PANEL) -> list[StepReport]:
    """Integrate the nine proof-step integrands of k=0, sigma=1/2 over [T, 2T].

    Step 1 carries the signed integral -int x dt against its exact second
    order value -gamma T / log T; steps 2-9 are |integral| against T over the
    claimed log power.
    """
    if spec.k != 0 or spec.sigma != 0.5 or spec.part is not Part.COSINE:
        raise ValueError("proof-step integrals are defined for the k=0, sigma=1/2 cosine model")
    table = make_weight_table(spec)
    interval = Interval(spec.T, 2.0 * spec.T)
    n_panels = max(1, math.ceil(interval.length / panel_width(spec)))

    def pieces(br):
        x, y, z = br["x"], br["y"], br["z"]
        return np.vstack([x, y, x * y, z, x * x, np.abs(y) * x * x, x**4,
                          x * x * y * y, y * y * x**4])

    integrals = _gauss_legendre(lambda *grid: map(pieces, _breakdown_streams(spec, table, *grid)),
                                interval, n_panels, nodes_per_panel)

    L = math.log(spec.T)
    scale = stieltjes_constant(0) * spec.T / L
    val = float(integrals[0])
    reports = [StepReport(step_id=1, integral_value=-val, envelope_scale=scale,
                          observed_ratio=abs(val) / scale)]
    for step_id in range(2, 10):
        scale = spec.T / L ** _STEP_LOG_POWERS[step_id]
        val = float(integrals[step_id - 1])
        reports.append(StepReport(step_id=step_id, integral_value=val,
                                  envelope_scale=scale,
                                  observed_ratio=abs(val) / scale))
    return reports


def l2_mean_value_check(coefficients, T: float) -> tuple[float, float, float]:
    """lhs, main, error budget of the L2 mean-value identity on [0, T].

    lhs = int_0^T |sum_n a_n n^{it}|^2 dt by composite Gauss-Legendre with
    panels a quarter period of the fastest oscillation wide; main is
    T sum |a_n|^2 and the budget is sum n |a_n|^2.
    """
    a = np.asarray(coefficients, dtype=np.complex128)
    n = a.shape[0]
    if n == 0:
        raise ValueError("need at least one coefficient")
    if not 0 < T < math.inf:
        raise ValueError(f"T must be positive and finite, got {T}")
    logs = np.log(np.arange(1, n + 1, dtype=np.float64))
    rows = np.vstack([a.real, a.imag])
    width = math.pi / (4.0 * math.log(max(n, 2)))

    def modulus_squared(sums):
        c_rows, s_rows = sums
        return (c_rows[0] - s_rows[1])**2 + (s_rows[0] + c_rows[1])**2

    lhs = float(_gauss_legendre(lambda *grid: map(modulus_squared,
                                                  oscillating_sums(logs, rows, *grid)),
                                Interval(0.0, T), max(1, math.ceil(T / width))))
    main = T * math.fsum(np.abs(a) ** 2)
    budget = math.fsum(np.arange(1, n + 1) * np.abs(a) ** 2)
    return lhs, main, budget


def u_sup_monitor(spec: PolynomialSpec, interval: Interval,
                  gridpoints: int = 10_000) -> USupReport:
    """Grid suprema of |u(2t)|, |u'(2t)|, |u''(2t)| over the interval.

    u(t) = sum_n w_n^2 cos(t log n) with the spec's weights, minus its
    t-independent n = 1 term (a DC offset, nonzero only for k = 0): what the
    log-power scales describe is the oscillatory content.  The ratios report
    each supremum against (log T)^{2/3}, (log T)^{4/3}, (log T)^2.
    Diagnostics only: the implied constants in those bounds are not pinned down.
    """
    if gridpoints < 1_000:
        raise ValueError("use at least 1000 grid points for a meaningful supremum")
    table = make_weight_table(spec)
    step = interval.length / (gridpoints - 1)
    p0, p1s, p2 = _moment_sums(table, 2.0 * interval.lo, 2.0 * step, gridpoints)
    sup_u = float(np.max(np.abs(p0 - table.squared_weights[0])))
    sup_u1 = float(np.max(np.abs(p1s)))
    sup_u2 = float(np.max(np.abs(p2)))
    L = math.log(spec.T)
    ratios = (sup_u / L ** (2.0 / 3.0), sup_u1 / L ** (4.0 / 3.0), sup_u2 / L**2)
    return USupReport(sup_u=sup_u, sup_u1=sup_u1, sup_u2=sup_u2,
                      log_power_ratios=ratios)
