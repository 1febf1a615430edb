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
from .kac_rice import (NODES_PER_PANEL, _breakdown_streams, _gauss_legendre, _map_rows,
                       _moment_streams, panel_width)

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


# Gauss-Legendre nodes per panel of the proof steps only (L2 takes EK's rule),
# on panels a quarter period of their fastest oscillation wide: step 6
# integrates |y| x^2, which has corners, and moved by 9.6e-5 of its scale
# on EK's half-period panels.
_NODES_PER_PANEL = 8

# Envelope exponents: step_id -> power of log T under T (step 1 is special).
_STEP_LOG_POWERS = {2: 3.0, 3: 4.0, 4: 4.0, 5: 2.0, 6: 5.0 - 4.0 / 3.0,
                    7: 4.0 - 4.0 / 3.0, 8: 4.0, 9: 6.0 - 4.0 / 3.0}


def proof_step_integrals(spec: PolynomialSpec,
                         nodes_per_panel: int = _NODES_PER_PANEL) -> list[StepReport]:
    """Integrate the nine proof-step integrands of k=0, sigma=1/2 over [T, 2T].

    Step 1 carries the signed integral -int x dt against its exact second
    order value -gamma T / log T; steps 2-9 are |integral| against T over the
    claimed log power.
    """
    if spec.k != 0 or spec.sigma != 0.5 or spec.part is not Part.COSINE:
        raise ValueError("proof-step integrals are defined for the k=0, sigma=1/2 cosine model")
    table = make_weight_table(spec)
    interval = Interval(spec.T, 2.0 * spec.T)
    n_panels = max(1, math.ceil(interval.length / (0.5 * panel_width(spec))))

    integrals = _gauss_legendre(
        lambda *grid: _map_rows(_pieces, _breakdown_streams(spec, table, *grid)),
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


def _pieces(br) -> np.ndarray:
    """Steps 1-9's integrands x, y, xy, z, x^2, |y| x^2, x^4, x^2 y^2, y^2 x^4, filled in place."""
    x, y = br["x"], br["y"]
    out = np.empty((9, x.size))
    out[0], out[1], out[3] = x, y, br["z"]
    np.multiply(x, y, out=out[2])
    np.multiply(x, x, out=out[4])
    np.power(x, 4, out=out[6])
    np.multiply(np.abs(y, out=out[5]), x, out=out[5])  # (|y| x) x
    np.multiply(out[5], x, out=out[5])
    np.multiply(np.multiply(out[4], y, out=out[7]), y, out=out[7])  # ((x x) y) y
    np.multiply(np.multiply(y, y, out=out[8]), out[6], out=out[8])  # (y y) x^4
    return out


def l2_mean_value_check(coefficients, T: float) -> tuple[float, float, float]:
    """lhs, main, error budget of the L2 mean-value identity on [0, T].

    lhs = int_0^T |sum_n a_n n^{it}|^2 dt by EK's rule: NODES_PER_PANEL
    Gauss-Legendre nodes on panels a half period of the fastest oscillation
    cos(t log n) wide, so every point lies in turn 0 and one spread serves
    every node pair (oscillating_sums).  Real a_n spread one row, and both
    its parts are read: C^2 + S^2.  main is T sum |a_n|^2 and the budget is
    sum n |a_n|^2.
    """
    a = np.asarray(coefficients, dtype=np.complex128)
    if a.ndim != 1 or a.size == 0 or not np.isfinite(a).all():
        raise ValueError(f"need a nonempty, finite 1-D array of coefficients, got shape {a.shape}")
    n = a.size
    if not 0 < T < math.inf:
        raise ValueError(f"T must be positive and finite, got {T}")
    logs = np.log(np.arange(1, n + 1, dtype=np.float64))
    cos, sin = Part.COSINE, Part.SINE
    if a.imag.any():  # F = (C_re - S_im) + i (S_re + C_im)
        rows, parts = np.vstack([a.real, a.imag]), ((0, cos), (1, sin), (0, sin), (1, cos))
    else:
        rows, parts = a.real[None], ((0, cos), (0, sin))
    width = math.pi / math.log(max(n, 2))

    def modulus_squared(s):
        return (s[0] - s[1])**2 + (s[2] + s[3])**2 if len(s) == 4 else s[0]**2 + s[1]**2

    lhs = float(_gauss_legendre(lambda *grid: _map_rows(modulus_squared,
                                                        oscillating_sums(logs, rows, parts, *grid)),
                                Interval(0.0, T), max(1, math.ceil(T / width)),
                                NODES_PER_PANEL))
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
    _, (p0, p1s, p2) = next(_moment_streams(table, interval.lo, step, gridpoints))
    sup_u = float(np.max(np.abs(p0 - table.weights[0] * table.weights[0])))
    sup_u1 = float(np.max(np.abs(p1s)))
    sup_u2 = float(np.max(np.abs(p2)))
    L = math.log(spec.T)
    ratios = (sup_u / L ** (2.0 / 3.0), sup_u1 / L ** (4.0 / 3.0), sup_u2 / L**2)
    return USupReport(sup_u=sup_u, sup_u1=sup_u1, sup_u2=sup_u2,
                      log_power_ratios=ratios)
