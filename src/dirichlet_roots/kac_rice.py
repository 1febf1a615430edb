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

import functools
import math
import operator
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
# Panels per integrand call in _node_streams, which bounds one chunk's
# memory at any T: its spread grid lives through the chunk's 8 node streams,
# beside the FFT's work buffer and one stream's sums and fields.  2^18
# panels keep deterministic EK at T = 1e5 at 136 MB peak RSS; 2^19 took 223 MB.
_CHUNK_PANELS = 2**18
# Deterministic EK's error control (_panel_estimates, _refine).  Smooth
# densities keep the tail ratio below 2e-5 on default panels from T = 200,
# two-term corners above 1e-3.  _REFINE_RTOL is 100 times inside the 1e-9
# contract: refining to roundoff costs levels of O(N) direct evaluations
# for estimates no reference resolves.  Below _MIN_NODES the coefficients
# the tail test reads, c_(n-6) to c_(n-1), would include c_0 and c_1.
_TAIL_RTOL = 1e-4
_REFINE_RTOL = 1e-11
_REFINE_DEPTH = 40
_MIN_NODES = 8

# Stratified EK: independent randomly shifted grids (their spread gives the
# stderr), evaluated as fractions of one grid's step (see _shifted_grids).
STRATIFIED_REPLICATES = 25
# Coefficients per block of moment rows (_moment_rows: moment rows x grids x
# terms), which bounds the kernel's strength and spreading memory.
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


def _assemble(spec: PolynomialSpec, table: WeightTable, t, p0, p1s, p2, proof: bool = True):
    """Breakdown fields, by name, from t and the three moment sums at tau = 2t.

    t has the shape of the sums; a NumericalError names the first bad t.
    proof=False leaves out the proof-style fields x, y, z and w.
    """
    s = 1.0 if spec.part is Part.COSINE else -1.0
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
    if not proof:
        return {"t": t, "A": A, "B": B, "C": C, "density": density}
    L = math.log(spec.T)
    k1, k3 = 2 * spec.k + 1, 2 * spec.k + 3
    g0, g2 = stieltjes_constant(2 * spec.k), stieltjes_constant(2 * spec.k + 2)
    dc = float(table.squared_weights[0])  # n=1 weight; 1 for k=0, else 0
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


def _moment_rows(table: WeightTable, grids: int):
    """Yield (logs, rows) blocks of the moment rows w_n^2 (log n)^j, j = 0, 2, 1.

    A block holds at most _GROUP_ELEMS coefficients over its grids (from
    666,667 terms on one grid, 26,667 on stratified EK's 25); blocks run in
    term order.
    """
    n = table.n_terms
    for terms in np.array_split(np.arange(n), -(-3 * grids * n // _GROUP_ELEMS)):
        sq, logs = table.squared_weights[terms], table.logs[terms]
        yield logs, np.vstack([sq, sq * logs * logs, sq * logs])


def _add_moments(block_sums) -> tuple[np.ndarray, ...]:
    """P_0, Pt_1, P_2 from each block's kernel (C, S) rows, added in term order.

    P_0 and P_2 are cosine sums, Pt_1 a sine sum.
    """
    total = None
    for c_rows, s_rows in block_sums:
        sums = (c_rows[0], s_rows[2], c_rows[1])
        total = sums if total is None else tuple(a + b for a, b in zip(total, sums))
    return total


def _moment_sums(table: WeightTable, start: float, step: float, count: int,
                 fractions=(0.0,)) -> tuple[np.ndarray, ...]:
    """P_0, Pt_1, P_2 along the grids tau_i = start + (i + f_g)*step, as (grids, count) arrays.

    One kernel call per block of moment rows (_moment_rows) on all the
    grids, consumed before the next block is built; blocks add in term order.
    """
    total = None
    for logs, rows in _moment_rows(table, len(fractions)):
        block = np.array([_add_moments([sums]) for sums in  # (grids, 3, count)
                          oscillating_sums(logs, rows, start, step, count, fractions)])
        total = block if total is None else total + block
    return total[:, 0], total[:, 1], total[:, 2]


def breakdown_grid(spec: PolynomialSpec, table: WeightTable, start: float,
                   step: float, count: int, *, proof: bool = True) -> dict[str, np.ndarray]:
    """Breakdown fields as arrays along the uniform grid t_i = start + i*step.

    Evaluates the moment sums with one grid-kernel call per block of moment
    rows on the doubled grid tau_i = 2 t_i: _breakdown_streams' one
    fraction f = 0.  proof=False leaves out x, y, z and w (EK needs only
    the density).
    """
    return next(_breakdown_streams(spec, table, start, step, count, (0.0,), proof=proof))


def _breakdown_streams(spec: PolynomialSpec, table: WeightTable, start: float, step: float,
                       count: int, fractions, *, proof: bool = True):
    """Yield breakdown_grid's fields along t_i = start + (i + f)*step for each f in fractions.

    Each block of moment rows (_moment_rows) is spread once on the doubled
    grids for all fractions (oscillating_sums); one fraction's fields
    exist at a time, and on the kernel's ramp path one fraction's sums.
    """
    _check_spec(spec)
    blocks = [oscillating_sums(logs, rows, 2.0 * start, 2.0 * step, count, fractions)
              for logs, rows in _moment_rows(table, 1)]
    for f in fractions:
        yield _assemble(spec, table, start + step * (np.arange(count) + f),
                        *_add_moments(next(b) for b in blocks), proof=proof)


def _shifted_grids(spec: PolynomialSpec, table: WeightTable, interval: Interval,
                   strata: int, seed: int) -> dict[str, np.ndarray]:
    """Breakdown fields but x, y, z and w on the stratified estimator's shifted grids.

    Replicate r is the grid t = lo + h (i + u_r), i < m, with h = length/m and
    u_r uniform on [0, 1); row r of every field holds replicate r.  The u_r
    go to the grid kernel as fractions of the one doubled grid
    tau_i = 2 lo + 2 h i, through _moment_sums.
    """
    m = -(-strata // STRATIFIED_REPLICATES)
    h = interval.length / m
    rng = np.random.Generator(np.random.PCG64(seed))
    fractions = rng.random(STRATIFIED_REPLICATES)
    sums = _moment_sums(table, 2.0 * interval.lo, 2.0 * h, m, fractions)
    return _assemble(spec, table, interval.lo + h * fractions[:, None] + h * np.arange(m),
                     *sums, proof=False)


def panel_width(spec: PolynomialSpec) -> float:
    """Quarter period of the fastest oscillation cos(2 t log T) in the sums."""
    return math.pi / (4.0 * math.log(spec.T))


@functools.cache
def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Abscissas, weights and Legendre rows of the n-node rule on [-1, 1]; cached, read-only.

    The rows map node values f to c_j = (2j+1)/2 sum_i w_i P_j(x_i) f_i,
    j = 0, n-6, n-5, n-2, n-1 (negative orders read as 0).
    """
    xi, wgt = np.polynomial.legendre.leggauss(n)
    orders = np.maximum([0, n - 6, n - 5, n - 2, n - 1], 0)
    rows = (orders[:, None] + 0.5) * wgt * np.polynomial.legendre.legvander(xi, n - 1)[:, orders].T
    xi.flags.writeable = wgt.flags.writeable = rows.flags.writeable = False
    return xi, wgt, rows


def _node_streams(integrand, interval: Interval, n_panels: int, n: int):
    """Yield (node i, rows) for every chunk of n-node panels, node by node.

    integrand(start, step, count, fractions) is called once per chunk, with
    the chunk's first panel edge, the panel width, the chunk's panel count
    and the node fractions f_i = (xi_i + 1)/2; it yields, fraction by
    fraction, rows along the grid start + (j + f_i)*step, j < count, which
    node i's abscissas across the chunk's panels form.  Panels run in chunks
    of at most _CHUNK_PANELS (boundaries fixed by n_panels), so one chunk's
    kernel work and one stream's fields stay bounded at any T if the
    consumer drops its rows before the next; no name here holds them.
    """
    h = interval.length / n_panels
    fractions = (_gauss_rule(n)[0] + 1.0) * 0.5
    for lo in range(0, n_panels, _CHUNK_PANELS):
        streams = integrand(interval.lo + lo * h, h, min(_CHUNK_PANELS, n_panels - lo), fractions)
        for i in range(n):
            yield i, next(streams)


def _gauss_legendre(integrand, interval: Interval, n_panels: int,
                    nodes_per_panel: int = NODES_PER_PANEL) -> np.ndarray:
    """Composite Gauss-Legendre integrals of integrand rows (see _node_streams).

    The result has one integral per row; each stream adds its chunk sums
    (numpy pairwise reduction) in panel order.  The proof steps and the L2
    identity use this rule, and EK reads the same streams (_panel_estimates);
    README "Notes on accuracy" records why Romberg was rejected.
    """
    streams = [0.0] * nodes_per_panel
    for i, rows in _node_streams(integrand, interval, n_panels, nodes_per_panel):
        streams[i] = streams[i] + np.sum(rows, axis=-1)
        del rows  # no name holds a call's rows while the next one is computed
    h, total = interval.length / n_panels, 0.0
    for weight, stream in zip(_gauss_rule(nodes_per_panel)[1], streams):
        total = total + weight * 0.5 * h * stream
    return total


def _panel_estimates(integrand, interval: Interval, n_panels: int, n: int):
    """Yield each chunk's per-panel integrals, flags, tail estimates and roundoff floors.

    A chunk's node streams (_node_streams) of a nonnegative density add up to
    each panel's Legendre rows c_j (_gauss_rule).  For panels of width h the
    integral is h c_0 and the roundoff floor eps n h c_0, about eps h sum_i f_i.
    A panel is flagged when its tail m = max(|c_{n-2}|, |c_{n-1}|) exceeds
    _TAIL_RTOL c_0 and h m exceeds the floor.  Its tail estimate is then h m,
    a null-rule bound that exceeds a corner's error; otherwise it is the
    geometric extrapolation h m r^((n+1)/4) to order 2n of the decay
    r = m / max(|c_{n-6}|, |c_{n-5}|) over four orders, capped at 1.
    """
    h, transform = interval.length / n_panels, _gauss_rule(n)[2]
    for i, rows in _node_streams(integrand, interval, n_panels, n):
        if i == 0:
            coeffs = np.zeros((len(transform),) + rows.shape)
        for j in range(len(transform)):
            coeffs[j] += transform[j, i] * rows
        del rows
        if i == n - 1:
            head = np.maximum(abs(coeffs[1]), abs(coeffs[2]))
            m = np.maximum(abs(coeffs[3]), abs(coeffs[4]))
            floor = np.finfo(float).eps * n * h * coeffs[0]
            flagged = (m > _TAIL_RTOL * coeffs[0]) & (h * m > floor)
            r = np.minimum(1.0, m / np.maximum(head, np.finfo(float).tiny))
            yield h * coeffs[0], flagged, h * m * np.where(flagged, 1.0, r ** ((n + 1) / 4)), floor
            del coeffs, head, m, floor, flagged, r  # nothing of a chunk outlives it


def _refine(direct, n: int, panel: Interval, whole: float, tol: float,
            corner: bool = True, depth: int = 1) -> tuple[float, float, int]:
    """Nested subdivision of the panel, whose n-node Gauss-Legendre value is whole.

    direct is a _node_streams integrand evaluating the density point by
    point; corner says the panel was flagged.  It splits in halves, or, if
    flagged, in thirds when no half is: the corner then hides in the
    node-free gaps at the halves' shared edge, which the middle third's nodes
    straddle.  The pieces replace the panel once they differ from it by at
    most tol and each tail estimate is within tol (or at depth _REFINE_DEPTH);
    otherwise each piece is refined.  Returns the integral, its error estimate
    (accepted differences plus tail estimates) and the nodes evaluated.
    """
    nodes = 0
    for parts in (2, 3):
        nodes += n * parts
        pieces, flagged, tails, _ = map(np.concatenate,
                                        zip(*_panel_estimates(direct, panel, parts, n)))
        if flagged.any() or not corner:
            break
    diff = abs(float(pieces.sum()) - whole)
    if (diff <= tol and tails.max() <= tol) or depth == _REFINE_DEPTH:
        return float(pieces.sum()), diff + float(tails.sum()), nodes
    value = error = 0.0
    edges = np.linspace(panel.lo, panel.hi, parts + 1)
    for lo, hi, piece, bad in zip(edges, edges[1:], pieces, flagged):
        v, e, k = _refine(direct, n, Interval(lo, hi), piece, tol, bad, depth + 1)
        value, error, nodes = value + v, error + e, nodes + k
    return value, error, nodes


def expected_count_deterministic(spec: PolynomialSpec, interval: Interval,
                                 nodes_per_panel: int = NODES_PER_PANEL,
                                 max_panel_width: float | None = None) -> QuadratureResult:
    """Expected zero count on the interval by one pass of Gauss-Legendre panels.

    Panels are at most a quarter period of the fastest oscillation wide,
    and no wider than max_panel_width if it is given; a wider value changes
    nothing.  (The bound keeps the doubled grid's spread from wrapping, so
    the kernel ramps one spread grid to every node fraction: see
    dirichlet_eval.oscillating_sums.)  Each chunk's node values also
    give every panel's Legendre tail (_panel_estimates) at no extra kernel
    call; only scalars outlive a chunk.  A flagged panel, in practice one
    holding a corner of the density (two effective terms), is integrated
    again as its chunk is read, by _refine with direct (fsum) evaluation,
    to _REFINE_RTOL of its integral or its roundoff floor.  A corner between
    a panel's edge and its outer node (about 2% of the width at 8 nodes)
    leaves no trace in the node values and is not flagged.

    The value adds the panels' integrals, abs_error_estimate the refined
    panels' estimates, the other panels' tail extrapolations and every
    panel's roundoff floor.  nodes_used is nodes_per_panel per panel plus
    the nodes _refine evaluates.  Memory stays bounded at any T (see
    _node_streams); the stratified method is the fast route at large T.
    """
    _check_integrable(spec)
    if nodes_per_panel < _MIN_NODES:
        raise ValueError(f"nodes_per_panel must be at least {_MIN_NODES} (the error "
                         f"estimate reads c_(n-6) to c_(n-1)), got {nodes_per_panel}")
    if max_panel_width is not None and not 0 < max_panel_width < math.inf:
        raise ValueError(f"max_panel_width must be positive and finite, got {max_panel_width}")
    width = min(panel_width(spec), max_panel_width or math.inf)
    n_panels = max(1, math.ceil(interval.length / width))
    h = interval.length / n_panels
    table = make_weight_table(spec)

    def density(start, step, count, fractions):
        return map(operator.itemgetter("density"),
                   _breakdown_streams(spec, table, start, step, count, fractions, proof=False))

    def direct(start, step, count, fractions):
        for f in fractions:
            yield np.array([breakdown_at(spec, float(t), table).density
                            for t in start + step * (np.arange(count) + f)])

    value = error = 0.0
    nodes, lo = nodes_per_panel * n_panels, 0  # lo: the chunk's first panel
    for whole, bad, tails, floor in _panel_estimates(density, interval, n_panels,
                                                     nodes_per_panel):
        value += float(np.sum(whole))
        error += float(np.sum(tails[~bad])) + float(np.sum(floor))
        for p in np.flatnonzero(bad):
            a, w = interval.lo + (lo + p) * h, float(whole[p])
            v, e, k = _refine(direct, nodes_per_panel, Interval(a, a + h), w,
                              max(float(floor[p]), _REFINE_RTOL * abs(w)))
            value, error, nodes = value + (v - w), error + e, nodes + k
        lo += whole.size
        del whole, bad, tails, floor  # nothing of a chunk outlives it
    return QuadratureResult(value=value, abs_error_estimate=error,
                            method="composite_deterministic", nodes_used=nodes)


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
