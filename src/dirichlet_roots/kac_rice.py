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
    "NumericalError",
    "breakdown_at",
    "breakdown_grid",
    "expected_count_deterministic",
    "expected_count_stratified",
    "panel_width",
    "NODES_PER_PANEL",
    "STRATIFIED_REPLICATES",
]

# Cauchy-Schwarz slack: A/B - C^2 may round to a tiny negative.
_NEGATIVE_TOL = 1e-12

NODES_PER_PANEL = 8
# Panels per integrand call in _gauss_legendre, which bounds the memory of
# one node stream's kernel call and assembled fields at any T.
_CHUNK_PANELS = 2**19

# Stratified EK: independent randomly shifted grids (their spread gives the
# stderr), evaluated as shifts of one grid (see _shifted_grids).
STRATIFIED_REPLICATES = 25
# Coefficients per kernel call in _moment_sums (moment rows x shifted grids
# x terms), which bounds the kernel's strength and spreading memory.
_GROUP_ELEMS = 2_000_000


class NumericalError(ValueError):
    """The model is numerically degenerate: spec at t (None: at no single t).

    A ValueError, so callers that catch those keep catching it; the CLI
    reports it with its own exit code.
    """

    def __init__(self, message: str, spec: PolynomialSpec, t: float | None = None):
        super().__init__(message if t is None else f"{message} at t = {t!r}")
        self.spec = spec
        self.t = t


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
        raise NumericalError(f"only the n = 2 term oscillates: every realization "
                             f"vanishes on the fixed lattice t = {lattice} / log 2", spec)


def _assemble(spec: PolynomialSpec, table: WeightTable, t, p0, p1s, p2):
    """Breakdown fields, by name, from t and the three moment sums at tau = 2t.

    t has the shape of the sums; a NumericalError names the first bad t.
    """
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
        raise NumericalError("covariance B <= 0 (density undefined)",
                             spec, float(np.asarray(t)[B <= 0][0]))
    C = -s * p1s / (2.0 * B)
    ratio = A / B - C * C
    # Cauchy-Schwarz floor, scaled by the cancellation in A and B: near a
    # degenerate covariance (sine part close to a common zero of every term)
    # A/B and C^2 blow up and roundoff in the difference grows with
    # (M_2 + M_0 (A/B + C^2)) / (2B), not with an absolute epsilon.
    err_scale = (table.m2 + table.m0 * (np.abs(A) / B + C * C)) / (2.0 * B) + 1.0
    below = ratio < -_NEGATIVE_TOL * err_scale
    if np.any(below):
        raise NumericalError("A/B - C^2 fell below the Cauchy-Schwarz roundoff floor",
                             spec, float(np.asarray(t)[below][0]))
    density = np.sqrt(np.maximum(ratio, 0.0)) / math.pi
    x = k1 * (g0 + s * (p0 - dc)) / L**k1
    y = k3 * (g2 - s * p2) / L**k3
    z = k3 * (C * C) / (k1 * L * L)
    w = (1.0 + y) / (1.0 + x) - z - 1.0
    return {"t": t, "A": A, "B": B, "C": C, "x": x, "y": y, "z": z, "w": w,
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
    fields = _assemble(spec, table, t, p0, p1s, p2)
    return DensityBreakdown(**{k: float(v) for k, v in fields.items()})


def _moment_sums(table: WeightTable, start: float, step: float, count: int,
                 shifts: np.ndarray | tuple[float, ...] = (0.0,)) -> tuple[np.ndarray, ...]:
    """P_0, Pt_1, P_2 along the grids tau_i = start + shifts[g] + i*step.

    Every sum is a (shifts, count) array, from one kernel call of three
    coefficient rows on all the shifted grids.  Where those rows would hold
    more than _GROUP_ELEMS coefficients (from 666,667 terms on one grid,
    26,667 on stratified EK's 25), the terms are split into blocks of at
    most that many, one call per block, and the blocks' sums are added in
    term order.
    """
    n = table.n_terms
    total = None
    for terms in np.array_split(np.arange(n), -(-3 * len(shifts) * n // _GROUP_ELEMS)):
        sq, logs = table.squared_weights[terms], table.logs[terms]
        c_rows, s_rows = oscillating_sums(logs, np.vstack([sq, sq * logs * logs]),
                                          (sq * logs)[None, :], start, step, count, shifts)
        p0, p2 = c_rows.reshape(2, -1, count)
        sums = (p0, s_rows, p2)
        total = sums if total is None else tuple(a + b for a, b in zip(total, sums))
    return total


def breakdown_grid(spec: PolynomialSpec, table: WeightTable, start: float,
                   step: float, count: int) -> dict[str, np.ndarray]:
    """Breakdown fields as arrays along the uniform grid t_i = start + i*step.

    Evaluates the moment sums with one grid-kernel call on the doubled grid
    tau_i = 2 t_i.
    """
    _check_spec(spec)
    sums = _moment_sums(table, 2.0 * start, 2.0 * step, count)
    return _assemble(spec, table, start + step * np.arange(count),
                     *(rows[0] for rows in sums))


def _shifted_grids(spec: PolynomialSpec, table: WeightTable, interval: Interval,
                   strata: int, seed: int) -> dict[str, np.ndarray]:
    """Breakdown fields on the stratified estimator's randomly shifted grids.

    Replicate r is the grid t = lo + h (i + u_r), i < m, with h = length/m and
    u_r uniform on [0, 1); row r of every field holds replicate r.  The
    replicates' doubled shifts 2 h u_r go to the grid kernel as shifts of
    the one grid tau_i = 2 (lo + i h), through _moment_sums.
    """
    m = -(-strata // STRATIFIED_REPLICATES)
    h = interval.length / m
    rng = np.random.Generator(np.random.PCG64(seed))
    shifts = h * rng.random(STRATIFIED_REPLICATES)
    sums = _moment_sums(table, 2.0 * interval.lo, 2.0 * h, m, 2.0 * shifts)
    return _assemble(spec, table, interval.lo + shifts[:, None] + h * np.arange(m), *sums)


def panel_width(spec: PolynomialSpec) -> float:
    """Quarter period of the fastest oscillation cos(2 t log T) in the sums."""
    return math.pi / (4.0 * math.log(spec.T))


def _gauss_legendre(integrand, interval: Interval, n_panels: int,
                   nodes_per_panel: int = NODES_PER_PANEL) -> np.ndarray:
    """Composite Gauss-Legendre integrals of integrand rows over the interval.

    integrand(start, step, count) returns an array whose last axis runs along
    the uniform grid start + i*step, i < count; the result has one integral
    per row.  For a fixed in-panel offset the node abscissas across panels
    form such a grid, so each of the nodes_per_panel node streams is an
    integrand call on the grid kernel.  A stream of more than _CHUNK_PANELS
    panels runs as contiguous chunks of that many (the last one shorter), so
    one call's kernel work and assembled fields stay bounded at any T; the
    boundaries depend only on n_panels.  Chunk sums use numpy pairwise
    reduction and add in panel order, fixed independently of any parallelism.

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
        start = interval.lo + (xi[i] + 1.0) * 0.5 * h
        stream = 0.0
        for lo in range(0, n_panels, _CHUNK_PANELS):
            count = min(_CHUNK_PANELS, n_panels - lo)
            # no name holds a chunk's rows while the next chunk is computed
            stream = stream + np.sum(integrand(start + lo * h, h, count), axis=-1)
        total = total + wgt[i] * 0.5 * h * stream
    return total


def expected_count_deterministic(spec: PolynomialSpec, interval: Interval,
                                 nodes_per_panel: int = NODES_PER_PANEL,
                                 max_panel_width: float | None = None) -> QuadratureResult:
    """Expected zero count on the interval by composite Gauss-Legendre panels.

    Panels are at most a quarter period of the fastest oscillation wide
    (narrower if max_panel_width is given: useful when the density has
    corners, as in near-degenerate two-term models); the error estimate is
    |I_h - I_{h/2}| from one panel-width halving, and the finer value is
    reported.  Each kernel call covers at most _CHUNK_PANELS panels, so
    memory stays bounded at any T; there is no node cap, and the stratified
    method is the fast route at large T.
    """
    _check_integrable(spec)
    width = panel_width(spec) if max_panel_width is None else max_panel_width
    n_panels = max(1, math.ceil(interval.length / width))
    table = make_weight_table(spec)

    def density(start, step, count):
        return breakdown_grid(spec, table, start, step, count)["density"]

    coarse = float(_gauss_legendre(density, interval, n_panels, nodes_per_panel))
    fine = float(_gauss_legendre(density, interval, 2 * n_panels, nodes_per_panel))
    return QuadratureResult(value=fine, abs_error_estimate=abs(fine - coarse),
                            method="composite_deterministic",
                            nodes_used=3 * n_panels * nodes_per_panel)


def expected_count_stratified(spec: PolynomialSpec, interval: Interval,
                              strata: int, seed: int) -> QuadratureResult:
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
    table = make_weight_table(spec)
    density = _shifted_grids(spec, table, interval, strata, seed)["density"]
    replicates = interval.length * np.mean(density, axis=1)
    value = float(np.mean(replicates))
    stderr = float(np.std(replicates, ddof=1)) / math.sqrt(STRATIFIED_REPLICATES)
    return QuadratureResult(value=value, abs_error_estimate=stderr,
                            method="stratified_random", nodes_used=density.size,
                            stderr=stderr)
