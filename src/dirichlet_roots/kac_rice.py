"""Exact expected-zero density of the Gaussian model and its quadrature.

For v(t) = (w_1 h(t log 1), ..., w_N h(t log N)) with h = cos or sin, the
expected number of zeros of <X, v(t)> on I is (1/pi) int_I sqrt(D(t)) dt,
where D is the second mixed derivative of log v(x).v(y) on the diagonal.
Writing M_j = sum w_n^2 (log n)^j and the oscillatory moment sums
P_j(tau) = sum w_n^2 (log n)^j cos(tau log n) (Pt_1 with sine), everything
reduces to three sums at tau = 2t:

    cosine part:  B = (M_0 + P_0)/2,  A = (M_2 - P_2)/2,  C = -Pt_1 / (2B)
    sine part:    B = (M_0 - P_0)/2,  A = (M_2 + P_2)/2,  C = +Pt_1 / (2B)

(the cos^2 <-> sin^2 exchange flips the sign of every P term; C enters the
density only squared) and D = A/B - C^2 >= 0 by Cauchy-Schwarz.

The breakdown also records the proof-style normalized fluctuations
    x = (2k+1) (g_{2k} + u0) / L^{2k+1},   L = log T,
    y = (2k+3) (g_{2k+2} + u2) / L^{2k+3},
    z = (2k+3) C^2 / ((2k+1) L^2),
    w = (1+y)/(1+x) - z - 1,
with u0 the signed P_0 fluctuation and u2 the signed second-derivative sum.
u0 excludes the constant n = 1 term (nonzero only for k = 0): that term is
a DC offset with no t-dependence, and the proof's step-by-step envelopes
(gamma T / L for the x integral, decaying log powers for the rest) describe
the genuinely oscillatory part.  The density itself always uses the full
sums A, B, C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .asymptotics import stieltjes_constant
from .core import Interval, Part, PolynomialSpec
from .dirichlet_eval import WeightTable, make_weight_table, oscillating_sums, u_moment

__all__ = [
    "DensityBreakdown",
    "QuadratureResult",
    "QuadratureBudgetError",
    "breakdown_at",
    "breakdown_grid",
    "expected_count_deterministic",
    "expected_count_stratified",
    "panel_width",
    "deterministic_node_count",
    "DEFAULT_NODE_CAP",
    "NODES_PER_PANEL",
    "STRATIFIED_REPLICATES",
]

# Cauchy-Schwarz slack: A/B - C^2 may round to a tiny negative.
_NEGATIVE_TOL = 1e-12

NODES_PER_PANEL = 8
DEFAULT_NODE_CAP = 8_000_000

# Stratified EK: independent randomly shifted grids (their spread gives the
# stderr).  The shifts are folded into coefficient rows (see _shifted_grids);
# _FOLD_ELEMS caps those rows (rows x terms, per trig half) per kernel call.
STRATIFIED_REPLICATES = 25
_FOLD_ELEMS = 2_000_000


class QuadratureBudgetError(RuntimeError):
    """Deterministic quadrature would exceed its node budget."""

    def __init__(self, nodes_required: int, cap: int):
        super().__init__(
            f"deterministic quadrature needs {nodes_required} nodes (cap {cap}); "
            f"use the stratified method for this T")
        self.nodes_required = nodes_required
        self.cap = cap


@dataclass(frozen=True)
class DensityBreakdown:
    """The density at one t plus its proof-aligned decomposition."""

    t: float
    A: float
    B: float
    C: float
    x: float
    y: float
    z: float
    w: float
    density: float


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    method: Literal["composite_deterministic", "stratified_random"]
    nodes_used: int
    stderr: float | None = None


def _check_spec(spec: PolynomialSpec) -> None:
    if spec.degenerate:
        raise ValueError("identically-zero (degenerate) spec has no zero density")


def _check_integrable(spec: PolynomialSpec) -> None:
    """_check_spec, and reject a lone oscillating term for the EK integrals.

    Sine with 2 <= T < 3, or cosine with k >= 1 there, keeps only the n = 2
    term: every realization vanishes on one fixed lattice, which the
    Kac-Rice density (zero between lattice points) does not count.
    """
    _check_spec(spec)
    if spec.n_terms == 2 and (spec.part is Part.SINE or spec.k >= 1):
        lattice = "j pi" if spec.part is Part.SINE else "(j + 1/2) pi"
        raise ValueError(f"only the n = 2 term oscillates: every realization "
                         f"vanishes on the fixed lattice t = {lattice} / log 2")


def _assemble(spec: PolynomialSpec, table: WeightTable, p0, p1s, p2):
    """Breakdown fields, by name, from the three moment sums at tau = 2t."""
    s = 1.0 if spec.part is Part.COSINE else -1.0
    L = math.log(spec.T)
    k1, k3 = 2 * spec.k + 1, 2 * spec.k + 3
    g0, g2 = stieltjes_constant(2 * spec.k), stieltjes_constant(2 * spec.k + 2)
    dc = float(table.squared_weights[0])  # n=1 weight; 1 for k=0, else 0
    B = 0.5 * (table.m0 + s * p0)
    A = 0.5 * (table.m2 - s * p2)
    if np.any(B <= 0):
        # Possible only for the sine part at isolated points where every
        # sin(t log n) vanishes simultaneously.
        raise ValueError("covariance B <= 0; density undefined at this t")
    C = -s * p1s / (2.0 * B)
    ratio = A / B - C * C
    # Cauchy-Schwarz floor, scaled by the cancellation in A and B: near a
    # degenerate covariance (sine part close to a common zero of every term)
    # A/B and C^2 blow up and roundoff in the difference grows with
    # (M_2 + M_0 (A/B + C^2)) / (2B), not with an absolute epsilon.
    err_scale = (table.m2 + table.m0 * (np.abs(A) / B + C * C)) / (2.0 * B) + 1.0
    if np.any(ratio < -_NEGATIVE_TOL * err_scale):
        raise AssertionError("A/B - C^2 fell below the Cauchy-Schwarz roundoff floor")
    density = np.sqrt(np.maximum(ratio, 0.0)) / math.pi
    x = k1 * (g0 + s * (p0 - dc)) / L**k1
    y = k3 * (g2 - s * p2) / L**k3
    z = k3 * (C * C) / (k1 * L * L)
    w = (1.0 + y) / (1.0 + x) - z - 1.0
    return {"A": A, "B": B, "C": C, "x": x, "y": y, "z": z, "w": w,
            "density": density}


def breakdown_at(spec: PolynomialSpec, t: float,
                 table: WeightTable | None = None) -> DensityBreakdown:
    """Density and proof decomposition at a single point."""
    _check_spec(spec)
    if table is None:
        table = make_weight_table(spec)
    p0 = u_moment(table, 0, 2.0 * t, Part.COSINE)
    p1s = u_moment(table, 1, 2.0 * t, Part.SINE)
    p2 = u_moment(table, 2, 2.0 * t, Part.COSINE)
    fields = _assemble(spec, table, p0, p1s, p2)
    return DensityBreakdown(t=float(t), **{k: float(v) for k, v in fields.items()})


def _moment_sums(table: WeightTable, start: float, step: float,
                 count: int) -> tuple[np.ndarray, ...]:
    """P_0, Pt_1, P_2 along the uniform grid tau_i = start + i*step."""
    sq, logs = table.squared_weights, table.logs
    c_rows, s_rows = oscillating_sums(logs, np.vstack([sq, sq * logs * logs]),
                                      (sq * logs)[None, :], start, step, count)
    return c_rows[0], s_rows[0], c_rows[1]


def breakdown_grid(spec: PolynomialSpec, table: WeightTable, start: float,
                   step: float, count: int) -> dict[str, np.ndarray]:
    """Breakdown fields as arrays along the uniform grid t_i = start + i*step.

    Evaluates the moment sums with one grid-kernel call on the doubled grid
    tau_i = 2 t_i.
    """
    _check_spec(spec)
    sums = _moment_sums(table, 2.0 * start, 2.0 * step, count)
    return {"t": start + step * np.arange(count), **_assemble(spec, table, *sums)}


def _shifted_grids(spec: PolynomialSpec, table: WeightTable, interval: Interval,
                   strata: int, seed: int) -> dict[str, np.ndarray]:
    """Breakdown fields on the stratified estimator's randomly shifted grids.

    Replicate r is the grid t = lo + h (i + u_r), i < m, with h = length/m and
    u_r uniform on [0, 1); row r of every field holds replicate r.  Each
    replicate's shift s = h u_r (doubled) is folded into its coefficient rows
    by angle addition,
        cos((tau + s) l) = cos(tau l) cos(s l) - sin(tau l) sin(s l),
        sin((tau + s) l) = sin(tau l) cos(s l) + cos(tau l) sin(s l),
    so all replicates share one kernel call over tau_i = 2 (lo + i h) (one
    call per _FOLD_ELEMS coefficients when there are many terms).
    """
    reps = STRATIFIED_REPLICATES
    m = -(-strata // reps)
    h = interval.length / m
    rng = np.random.Generator(np.random.PCG64(seed))
    shifts = h * rng.random(reps)
    sq, logs = table.squared_weights, table.logs
    w0, w1, w2 = sq, sq * logs, sq * logs * logs
    parts = []
    for group in np.array_split(shifts, -(-3 * shifts.size * logs.size // _FOLD_ELEMS)):
        angles = np.outer(2.0 * group, logs)
        cs, sn = np.cos(angles), np.sin(angles)
        c_rows, s_rows = oscillating_sums(
            logs, np.concatenate([w0 * cs, w1 * sn, w2 * cs]),
            np.concatenate([-w0 * sn, w1 * cs, -w2 * sn]),
            2.0 * interval.lo, 2.0 * h, m)
        parts.append((c_rows + s_rows).reshape(3, group.size, m))
    fields = _assemble(spec, table, *np.concatenate(parts, axis=1))
    fields["t"] = interval.lo + shifts[:, None] + h * np.arange(m)
    return fields


def panel_width(spec: PolynomialSpec) -> float:
    """Quarter period of the fastest oscillation cos(2 t log T) in the sums."""
    return math.pi / (4.0 * math.log(spec.T))


def deterministic_node_count(spec: PolynomialSpec, interval: Interval,
                             nodes_per_panel: int = NODES_PER_PANEL) -> int:
    """Total nodes the deterministic rule will evaluate (base + halved pass)."""
    panels = max(1, math.ceil(interval.length / panel_width(spec)))
    return 3 * panels * nodes_per_panel


def _gauss_legendre(integrand, interval: Interval, n_panels: int,
                   nodes_per_panel: int = NODES_PER_PANEL) -> np.ndarray:
    """Composite Gauss-Legendre integrals of integrand rows over the interval.

    integrand(start, step, count) returns an array whose last axis runs along
    the uniform grid start + i*step, i < count; the result has one integral
    per row.  For a fixed in-panel offset the node abscissas across panels
    form such a grid, so each of the nodes_per_panel node streams is one
    integrand call on the grid kernel.  Per-stream sums use numpy pairwise
    reduction in panel order, fixed independently of any parallelism.

    EK, the proof steps and the L2 identity all use this rule.  Romberg on
    nested uniform grids at quarter-panel spacing missed the references of
    proof steps 6 (|y| x^2, with corners) and 9 at T = 1000 by about 8e-5
    and 1e-7 of their envelope scales; this rule misses them by 2.9e-6 and
    2e-16 (the benchmark allows 1e-5 and 1e-9).
    """
    h = interval.length / n_panels
    xi, wgt = np.polynomial.legendre.leggauss(nodes_per_panel)
    total = 0.0
    for i in range(nodes_per_panel):
        rows = integrand(interval.lo + (xi[i] + 1.0) * 0.5 * h, h, n_panels)
        total = total + wgt[i] * 0.5 * h * np.sum(rows, axis=-1)
    return total


def expected_count_deterministic(spec: PolynomialSpec, interval: Interval,
                                 nodes_per_panel: int = NODES_PER_PANEL,
                                 node_cap: int = DEFAULT_NODE_CAP,
                                 table: WeightTable | None = None,
                                 max_panel_width: float | None = None) -> QuadratureResult:
    """Expected zero count on the interval by composite Gauss-Legendre panels.

    Panels are at most a quarter period of the fastest oscillation wide
    (narrower if max_panel_width is given: useful when the density has
    corners, as in near-degenerate two-term models); the error estimate is
    |I_h - I_{h/2}| from one panel-width halving, and the finer value is
    reported.
    """
    _check_integrable(spec)
    width = panel_width(spec) if max_panel_width is None else max_panel_width
    n_panels = max(1, math.ceil(interval.length / width))
    nodes = 3 * n_panels * nodes_per_panel
    if nodes > node_cap:
        raise QuadratureBudgetError(nodes, node_cap)
    if table is None:
        table = make_weight_table(spec)

    def density(start, step, count):
        return breakdown_grid(spec, table, start, step, count)["density"]

    coarse = float(_gauss_legendre(density, interval, n_panels, nodes_per_panel))
    fine = float(_gauss_legendre(density, interval, 2 * n_panels, nodes_per_panel))
    return QuadratureResult(value=fine, abs_error_estimate=abs(fine - coarse),
                            method="composite_deterministic", nodes_used=nodes)


def expected_count_stratified(spec: PolynomialSpec, interval: Interval,
                              strata: int, seed: int,
                              table: WeightTable | None = None) -> QuadratureResult:
    """Unbiased estimate from randomly shifted uniform grids (Cranley-Patterson).

    STRATIFIED_REPLICATES independent grids of about strata / 25 points, each
    shifted by its own uniform offset, so every grid's rectangle rule is an
    unbiased estimate; the grid kernel evaluates them together (see
    _shifted_grids).  The value is their mean and stderr their standard
    deviation over sqrt(25): an honest estimate with 24 degrees of freedom,
    not an upper bound.  nodes_used is strata rounded up to a multiple of
    25; abs_error_estimate repeats stderr.
    """
    _check_integrable(spec)
    if strata < 100:
        raise ValueError("use at least 100 strata")
    if table is None:
        table = make_weight_table(spec)
    density = _shifted_grids(spec, table, interval, strata, seed)["density"]
    replicates = interval.length * np.mean(density, axis=1)
    value = float(np.mean(replicates))
    stderr = float(np.std(replicates, ddof=1)) / math.sqrt(STRATIFIED_REPLICATES)
    return QuadratureResult(value=value, abs_error_estimate=stderr,
                            method="stratified_random", nodes_used=density.size,
                            stderr=stderr)
