import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from dirichlet_roots import (
    Interval,
    breakdown_at,
    expected_count_deterministic,
    expected_count_stratified,
    make_spec,
    make_weight_table,
)
from dirichlet_roots import dirichlet_eval, kac_rice
from dirichlet_roots.core import experiment_interval
from dirichlet_roots.dirichlet_eval import WeightTable
from dirichlet_roots.kac_rice import (
    NODES_PER_PANEL,
    NumericalError,
    STRATIFIED_REPLICATES,
    _assemble,
    _gauss_legendre,
    _gauss_rule,
    _node_streams,
    _panel_estimates,
    _shifted_grids,
    breakdown_grid,
    panel_width,
)

from oracles import reference_quadrature

GAMMA = 0.5772156649015329


def _two_term_density(t, sigma=0.5):
    """Independent closed form for the N = 2 cosine model.

    A = l^2 sin^2(t l)/2^(2 sigma), B = 1 + cos^2(t l)/2^(2 sigma),
    C = -l sin cos/2^(2 sigma)/B with l = log 2.
    """
    el = math.log(2.0)
    w2 = 2.0 ** (-2.0 * sigma)
    B = 1.0 + w2 * np.cos(t * el) ** 2
    A = w2 * el**2 * np.sin(t * el) ** 2
    C = -w2 * el * np.sin(t * el) * np.cos(t * el) / B
    return np.sqrt(np.maximum(A / B - C**2, 0.0)) / math.pi


def test_single_term_density_zero():
    spec = make_spec(1.5, 0, 0.5, "cosine")
    for t in (0.0, 3.7, 151.0):
        assert breakdown_at(spec, t).density == 0.0
    q = expected_count_deterministic(spec, experiment_interval(spec))
    assert q.value == 0.0


def test_degenerate_spec_rejected():
    spec = make_spec(1.5, 0, 0.5, "sine")
    with pytest.raises(ValueError):
        breakdown_at(spec, 1.0)
    with pytest.raises(ValueError):
        expected_count_deterministic(spec, Interval(1.5, 3.0))


def test_breakdown_rejects_a_table_of_another_spec():
    # such a table once fed another spec's moments into this spec's
    # assembly: 0.9669 at t = 700, where the density is 1.0603
    spec, other = make_spec(500.0), make_weight_table(make_spec(300.0, 0, 0.5, "sine"))
    with pytest.raises(ValueError, match="another spec"):
        breakdown_at(spec, 700.0, other)
    with pytest.raises(ValueError, match="another spec"):
        breakdown_grid(spec, other, 500.0, 0.1, 5)
    own = breakdown_at(spec, 700.0, make_weight_table(make_spec(500.0)))
    assert own.density == breakdown_at(spec, 700.0).density == pytest.approx(1.0603, abs=1e-4)


def test_two_term_density_matches_closed_form():
    spec = make_spec(2.5, 0, 0.5, "cosine")
    for t in np.linspace(0.0, 9.0, 57):
        b = breakdown_at(spec, float(t))
        assert b.density == pytest.approx(float(_two_term_density(t)), abs=1e-13)
        assert b.B > 0


def test_two_term_density_periodic():
    # all t-dependence is through the angle t log 2
    period = math.pi / math.log(2.0)
    spec = make_spec(2.5, 0, 0.3, "cosine")
    for t in (0.21, 5.5, 80.0):
        d0 = breakdown_at(spec, t).density
        d1 = breakdown_at(spec, t + period).density
        assert d0 == pytest.approx(d1, rel=1e-10, abs=1e-12)


def test_two_term_sine_density_vanishes():
    # sine with T in [2, 3) has a single random term: its zeros are the
    # deterministic lattice, and the Kac-Rice density is identically zero
    # (up to sqrt-of-roundoff noise)
    spec = make_spec(2.5, 0, 0.5, "sine")
    for t in (0.21, 5.5, 80.0):
        assert breakdown_at(spec, t).density < 1e-6


def test_single_oscillating_term_rejected():
    # sine with 2 <= T < 3, or cosine with k >= 1 there, is a multiple of
    # sin(t log 2) or cos(t log 2): every realization has the same lattice
    # of zeros, which the Kac-Rice integral does not count
    for T, k, part, lattice in ((2.5, 0, "sine", "j pi"), (2.9, 2, "sine", "j pi"),
                                (2.0, 1, "cosine", "(j + 1/2) pi")):
        spec = make_spec(T, k, 0.5, part)
        iv = experiment_interval(spec)
        with pytest.raises(ValueError, match=re.escape(lattice) + " / log 2"):
            expected_count_deterministic(spec, iv)
        with pytest.raises(ValueError, match="lattice"):
            expected_count_stratified(spec, iv, 150, seed=1)
        assert breakdown_at(spec, 1.0).density >= 0.0


def test_numerical_errors_are_classified():
    # a sine model whose every term vanishes at t: B = 0 there
    spec = make_spec(2.5, 0, 0.5, "sine")
    t = math.pi / math.log(2.0)
    with pytest.raises(NumericalError, match="B <= 0") as exc:
        breakdown_at(spec, t)
    assert (exc.value.spec, exc.value.t) == (spec, t)
    # the lone n = 2 term: no single t applies
    with pytest.raises(NumericalError, match="lattice") as exc:
        expected_count_deterministic(spec, experiment_interval(spec))
    assert (exc.value.spec, exc.value.t) == (spec, None)
    # sums that break Cauchy-Schwarz, P_2 = 2 M_2 (so A < 0 < B), at a
    # scalar t and at the second t of a grid
    spec = make_spec(2.5, 0, 0.5, "cosine")
    table = make_weight_table(spec)
    with pytest.raises(NumericalError, match="Cauchy-Schwarz") as exc:
        _assemble(spec, table, 1.0, 0.0, 0.0, 2.0 * table.m2)
    assert exc.value.t == 1.0 and isinstance(exc.value, ValueError)
    p2 = np.array([0.0, 2.0 * table.m2, 2.0 * table.m2])
    with pytest.raises(NumericalError, match="Cauchy-Schwarz") as exc:
        _assemble(spec, table, np.array([0.0, 0.25, 0.5]), np.zeros(3), np.zeros(3), p2)
    assert exc.value.t == 0.25 and isinstance(exc.value, ValueError)


@pytest.mark.parametrize("T", [2.5, 2.9])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_near_degenerate_sine_inputs_are_classified(T, k):
    # near the lattice t = j pi / log 2, where the lone term sin(t log 2)
    # vanishes, every point ends in a NumericalError (B rounds to 0) or in a
    # finite density >= 0, never in NaN, infinity or another exception; the
    # grid over +-1e-3 around each lattice point stays finite
    spec = make_spec(T, k, 0.5, "sine")
    table = make_weight_table(spec)
    outcomes = set()
    for j in (1, 3, 17, 1000):
        t0 = j * math.pi / math.log(2.0)
        for ulps in (0, 1, -1, 4, -4, 64):
            for shift in (0.0, 1e-12, -1e-9, 1e-6):
                t = t0 + ulps * math.ulp(t0) + shift
                try:
                    density = breakdown_at(spec, t, table).density
                except NumericalError as exc:
                    assert exc.t == t
                    outcomes.add("error")
                else:
                    assert math.isfinite(density) and density >= 0.0, (j, ulps, shift)
                    outcomes.add("finite")
        fields = breakdown_grid(spec, table, t0 - 1e-3, 1e-5, 201)
        assert all(np.isfinite(v).all() for v in fields.values()), j
    assert outcomes == {"error", "finite"}


def test_two_term_integral_vs_brute_force():
    # one full period against a 1e6-node trapezoid reference; the density has
    # a corner (|sin|) at each lattice zero, so the default panel rule is
    # checked at its realistic accuracy and a refined run at 1e-8
    spec = make_spec(2.5, 0, 0.5, "cosine")
    period = math.pi / math.log(2.0)
    iv = Interval(10.0, 10.0 + period)
    ref = reference_quadrature(_two_term_density, iv.lo, iv.hi, n=1_000_000)
    q = expected_count_deterministic(spec, iv)
    assert q.value == pytest.approx(ref, abs=1e-4)
    assert q.abs_error_estimate >= abs(q.value - ref) / 10.0
    from dirichlet_roots.kac_rice import panel_width

    fine = expected_count_deterministic(spec, iv,
                                        max_panel_width=panel_width(spec) / 256.0)
    assert fine.value == pytest.approx(ref, abs=1e-8)


def test_density_parity_cosine():
    spec = make_spec(300.0, 0, 0.5, "cosine")
    table = make_weight_table(spec)
    for t in (0.9, 123.4, 4000.0):
        assert breakdown_at(spec, t, table).density == pytest.approx(
            breakdown_at(spec, -t, table).density, rel=1e-12, abs=1e-12)


def test_breakdown_identity_and_positivity():
    # density^2 * pi^2 == A/B - C^2 (clamped); w ties back to x, y, z
    spec = make_spec(150.0, 1, 0.5, "cosine")
    table = make_weight_table(spec)
    for t in np.linspace(150.0, 300.0, 37):
        b = breakdown_at(spec, float(t), table)
        assert b.density >= 0.0
        assert (math.pi * b.density) ** 2 == pytest.approx(
            max(b.A / b.B - b.C**2, 0.0), rel=1e-12, abs=1e-15)
        assert b.w == pytest.approx((1 + b.y) / (1 + b.x) - b.z - 1, rel=1e-12, abs=1e-15)


def test_breakdown_grid_matches_pointwise():
    spec = make_spec(80.0, 0, 0.5, "sine")
    table = make_weight_table(spec)
    br = breakdown_grid(spec, table, 80.0, 0.37, 50)
    for i in (0, 7, 49):
        t = 80.0 + 0.37 * i
        b = breakdown_at(spec, t, table)
        for name in ("A", "B", "C", "x", "y", "z", "w", "density"):
            assert br[name][i] == pytest.approx(getattr(b, name), rel=1e-9, abs=1e-12)


def test_gauss_legendre_rows_closed_form(monkeypatch):
    omegas = np.array([0.0, 0.5, 2.0, 7.3])
    iv = Interval(0.3, 7.1)
    exact = [iv.length] + [(math.sin(w * iv.hi) - math.sin(w * iv.lo)) / w
                           for w in omegas[1:]]
    counts = []

    def cosines(start, step, count, fractions):
        counts.append(count)
        return (np.cos(np.outer(omegas, start + step * (np.arange(count) + f)))
                for f in fractions)

    got = _gauss_legendre(cosines, iv, n_panels=40, nodes_per_panel=8)
    assert got.shape == (4,)
    assert np.max(np.abs(got - exact)) < 1e-12
    assert counts == [40]  # one integrand call per chunk serves all 8 nodes
    # 40 panels in chunks of 7: five full chunks and a last one of 5 panels
    monkeypatch.setattr(dirichlet_eval, "_CHUNK_PANELS", 7)
    counts.clear()
    got = _gauss_legendre(cosines, iv, n_panels=40, nodes_per_panel=8)
    assert np.max(np.abs(got - exact)) < 1e-12
    assert counts == [7] * 5 + [5]


def _streams(fn):
    """A _node_streams integrand from a function of the abscissas."""
    def integrand(start, step, count, fractions):
        return (fn(start + step * (np.arange(count) + f)) for f in fractions)
    return integrand


def _chunks(integrand, iv, n_panels, n):
    """_panel_estimates' integrals, flags, tails and floors, joined over chunks."""
    return [np.concatenate(parts) for parts in zip(*_panel_estimates(integrand, iv, n_panels, n))]


def test_legendre_rows_of_piecewise_polynomial():
    # |t - 1.25|^3 + t^2 is a cubic on every panel of [0, 3] (1.25 is a panel
    # edge); with 12 nodes c_6 to c_11 vanish, so every tail is roundoff and
    # the panels' h c_0 add up to the exact integral
    iv, e = Interval(0.0, 3.0), 1.25

    @_streams
    def f(t):
        return np.abs(t - e) ** 3 + t * t

    exact = (e**4 + (iv.hi - e) ** 4) / 4.0 + iv.hi**3 / 3.0
    whole, flagged, tails, floor = _chunks(f, iv, 12, 12)
    assert whole.shape == (12,) and not flagged.any()
    assert np.all(tails <= floor)
    assert math.fsum(whole) == pytest.approx(exact, rel=1e-14)
    assert math.fsum(whole) == pytest.approx(float(_gauss_legendre(f, iv, 12, 12)), rel=1e-14)


@pytest.mark.parametrize("chunk", [2**19, 4])
def test_kink_flags_its_panel_only(monkeypatch, chunk):
    # |t - t0| is linear on every panel but panel 6, which holds t0; in
    # chunks of 4 panels that is panel 2 of the second chunk
    monkeypatch.setattr(dirichlet_eval, "_CHUNK_PANELS", chunk)

    @_streams
    def kink(t):
        return np.abs(t - 6.37)

    whole, flagged, tails, floor = _chunks(kink, Interval(0.0, 10.0), 10, 8)
    assert np.flatnonzero(flagged).tolist() == [6]
    assert np.all(tails[~flagged] <= floor[~flagged])


def test_streams_release_each_call_rows(monkeypatch):
    # no name holds a call's rows while the next call is computed, in the
    # plain integrals and in EK's Legendre rows alike
    monkeypatch.setattr(dirichlet_eval, "_CHUNK_PANELS", 5)
    alive = []

    def integrand(start, step, count, fractions):
        for f in fractions:
            assert all(ref() is None for ref in alive)
            rows = np.cos(start + step * (np.arange(count) + f)) + 2.0
            alive.append(weakref.ref(rows))
            yield rows
            del rows

    _gauss_legendre(integrand, Interval(0.0, 5.0), 12, NODES_PER_PANEL)
    assert len(alive) == NODES_PER_PANEL * 3
    for estimates in _panel_estimates(integrand, Interval(0.0, 5.0), 12, NODES_PER_PANEL):
        del estimates
    assert len(alive) == 2 * NODES_PER_PANEL * 3


def test_chunks_release_their_arrays(monkeypatch):
    # four chunks of 4000 panels peak no higher than one: nothing of a chunk
    # is held while the next one is computed.  Both runs have the same exact
    # panel width, so they share the grid kernel's cached plan.
    monkeypatch.setattr(dirichlet_eval, "_CHUNK_PANELS", 4000)
    spec, h = make_spec(2000.0, 0, 0.5), 2.0**-5
    intervals = [Interval(spec.T, spec.T + 4000 * chunks * h) for chunks in (1, 4)]

    def peak(iv):
        tracemalloc.start()
        try:
            expected_count_deterministic(spec, iv, max_panel_width=h)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    expected_count_deterministic(spec, intervals[0], max_panel_width=h)  # builds the plan
    one, four = (peak(iv) for iv in intervals)
    assert four <= 1.02 * one


def test_moment_rows_take_one_array(monkeypatch):
    # the moment rows w_n^2 (log n)^j fill one (3, N) array: one N-length
    # temporary beside it would add a third to the peak
    def zeros(logs, coeffs, start, step, count, fractions):
        yield np.zeros((3, count)), np.zeros((3, count))

    monkeypatch.setattr(kac_rice, "oscillating_sums", zeros)
    table = make_weight_table(make_spec(2e5, 0, 0.5))
    tracemalloc.start()
    try:
        next(kac_rice._moment_streams(table, 2e5, 0.01, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 3 * table.logs.size * 8


@pytest.mark.parametrize("T,k,part", [(2000.0, 0, "cosine"), (500.0, 2, "sine")])
def test_chunked_streams_match_whole_streams(monkeypatch, T, k, part):
    # chunking every node stream into 1000-panel kernel calls (10 chunks per
    # stream at T = 2000, 2 at T = 500) changes EK only by roundoff
    spec = make_spec(T, k, 0.5, part)
    whole = expected_count_deterministic(spec, experiment_interval(spec))
    monkeypatch.setattr(dirichlet_eval, "_CHUNK_PANELS", 1000)
    chunked = expected_count_deterministic(spec, experiment_interval(spec))
    assert chunked.nodes_used == whole.nodes_used
    assert abs(chunked.value - whole.value) <= 1e-13 * whole.value


@pytest.mark.parametrize("T,k,part", [(300.0, 0, "cosine"), (300.0, 2, "sine"),
                                      (14_000.0, 0, "cosine"), (30_000.0, 0, "cosine")])
def test_shifted_grids_match_pointwise(T, k, part):
    # the replicates' shifts, applied inside the grid kernel, reproduce the
    # direct moment sums at every stratified node (at T = 30000 the terms are
    # split over two kernel calls); each replicate puts exactly one node in
    # each of its equal cells
    spec = make_spec(T, k, 0.5, part)
    table = make_weight_table(spec)
    iv = experiment_interval(spec)
    br = _shifted_grids(spec, table, iv, 400, seed=7)
    reps, m = br["t"].shape
    assert (reps, m) == (STRATIFIED_REPLICATES, 16)
    cells = np.sort(np.floor((br["t"] - iv.lo) / (iv.length / m)), axis=1)
    assert np.array_equal(cells, np.broadcast_to(np.arange(m), (reps, m)))
    for r, i in ((0, 0), (3, 9), (24, 15), (11, 4)):
        b = breakdown_at(spec, float(br["t"][r, i]), table)
        for name in ("A", "B", "C", "density"):
            assert br[name][r, i] == pytest.approx(getattr(b, name), rel=1e-9, abs=1e-12)


def test_shifted_grids_term_blocks(monkeypatch):
    # with a small per-call budget the terms split into more spreading
    # blocks (43 of at most 7 terms) than there are replicates, each spread
    # one turn at a time; the groups fold into the replicates' grids and
    # give the one-block values
    spec = make_spec(300.0, 0, 0.5, "cosine")
    table = make_weight_table(spec)
    iv = experiment_interval(spec)
    whole = _shifted_grids(spec, table, iv, 400, seed=7)
    monkeypatch.setattr(dirichlet_eval, "_GROUP_ELEMS", 3 * 7 * dirichlet_eval._SPREAD_WIDTH)
    split = _shifted_grids(spec, table, iv, 400, seed=7)
    assert np.array_equal(split["t"], whole["t"])
    for name in ("A", "B", "C", "density"):
        assert np.allclose(split[name], whole[name], rtol=1e-12, atol=1e-12)


def test_weight_scale_invariance():
    # common factor on every weight leaves the density unchanged
    spec = make_spec(120.0, 0, 0.5, "cosine")
    base = make_weight_table(spec)
    for c in (1e-6, 3.0, 1e6):
        scaled = WeightTable(spec=spec, logs=base.logs.copy(), weights=base.weights * c)
        for t in (0.5, 130.0, 777.7):
            d0 = breakdown_at(spec, t, base).density
            d1 = breakdown_at(spec, t, scaled).density
            assert abs(d0 - d1) <= 1e-12 * (1.0 + abs(d0))


def test_first_order_value_approaches_limit(ek_cache):
    # interval average of density * pi / log T drifts toward 1/sqrt(3); the
    # measured gap tracks its (1 + gamma)/(2 log T) second-order scale
    gaps = {}
    for T in (1000.0, 4000.0):
        q = ek_cache.get(T)
        avg = q.value / T
        r = avg * math.pi / math.log(T)
        gaps[T] = 1.0 - r * math.sqrt(3.0)
    for T, gap in gaps.items():
        scale = (1.0 + GAMMA) / (2.0 * math.log(T))
        assert 0.6 * scale < gap < 1.1 * scale
    assert gaps[4000.0] < gaps[1000.0]


def test_deterministic_error_estimate_small(ek_cache):
    q = ek_cache.get(500.0)
    assert q.method == "composite_deterministic"
    assert q.abs_error_estimate < 1e-9
    # one pass of NODES_PER_PANEL nodes per panel; no panel is refined at T = 500
    assert q.nodes_used == NODES_PER_PANEL * math.ceil(500.0 / panel_width(make_spec(500.0)))


def _panels(spec, iv):
    return math.ceil(iv.length / panel_width(spec))


@pytest.mark.parametrize("T,k,part", [(200.0, 0, "cosine"), (500.0, 0, "cosine"),
                                      (2000.0, 0, "cosine"), (20_000.0, 0, "cosine"),
                                      (200.0, 1, "cosine"), (500.0, 1, "cosine"),
                                      (500.0, 2, "sine"), (2000.0, 2, "sine")])
def test_smooth_density_flags_no_panel(T, k, part):
    # the Legendre tails of a smooth density decay on every default panel:
    # no panel is refined, so the pass uses exactly NODES_PER_PANEL nodes per panel
    spec = make_spec(T, k, 0.5, part)
    iv = experiment_interval(spec)
    assert (expected_count_deterministic(spec, iv).nodes_used
            == NODES_PER_PANEL * _panels(spec, iv))


def test_corner_panel_refined_across_chunks(monkeypatch):
    # the two-term density's corner (t = 3 pi / log 2) lies in panel 2 of 3;
    # in chunks of 2 panels it is panel 0 of the second chunk, so a
    # chunk-local index would refine the wrong panel
    spec = make_spec(2.5, 0, 0.5, "cosine")
    iv = Interval(10.0, 10.0 + math.pi / math.log(2.0))
    assert _panels(spec, iv) == 3
    assert int((3.0 * math.pi / math.log(2.0) - iv.lo) / (iv.length / 3)) == 2
    whole = expected_count_deterministic(spec, iv)
    assert whole.nodes_used > NODES_PER_PANEL * 3
    monkeypatch.setattr(dirichlet_eval, "_CHUNK_PANELS", 2)
    chunked = expected_count_deterministic(spec, iv)
    assert chunked.nodes_used == whole.nodes_used
    assert abs(chunked.value - whole.value) <= 1e-13 * whole.value


@pytest.mark.parametrize("T,k,part", [(200.0, 0, "cosine"), (200.0, 1, "cosine"),
                                      (500.0, 0, "cosine"), (500.0, 2, "sine")])
def test_deterministic_error_estimate_honest(T, k, part):
    # against a 16-node rule on panels an eighth of a period wide, a quarter
    # of the default (the benchmark's EK references use a quarter period),
    # the error is within the estimate, and the estimate within the 1e-9
    # contract
    spec = make_spec(T, k, 0.5, part)
    iv = experiment_interval(spec)
    q = expected_count_deterministic(spec, iv)
    ref = expected_count_deterministic(spec, iv, nodes_per_panel=16,
                                       max_panel_width=panel_width(spec) / 4.0).value
    assert abs(q.value - ref) <= q.abs_error_estimate < 1e-9 * q.value


def test_wider_max_panel_width_changes_nothing():
    # panels never exceed the half period: a wider cap (0.5 here, 1.7 times
    # the half period at T = 200) gives the default result
    spec = make_spec(200.0, 0, 0.5)
    iv = experiment_interval(spec)
    assert 0.5 > panel_width(spec)
    assert (expected_count_deterministic(spec, iv, max_panel_width=0.5)
            == expected_count_deterministic(spec, iv))


@pytest.mark.parametrize("chunk,spreads", [(2**19, 1), (1000, 4)])
def test_one_spreading_pass_per_chunk(monkeypatch, chunk, spreads):
    # EK at T = 900 has 3898 panels: one spreading pass serves a chunk's
    # node streams, in one chunk or in four of at most 1000 panels
    calls = []

    def counted(*args):
        calls.append(args[0].shape)
        return spread(*args)

    spread = dirichlet_eval._spread
    monkeypatch.setattr(dirichlet_eval, "_spread", counted)
    monkeypatch.setattr(dirichlet_eval, "_CHUNK_PANELS", chunk)
    spec = make_spec(900.0, 0, 0.5)
    q = expected_count_deterministic(spec, experiment_interval(spec))
    assert q.nodes_used == NODES_PER_PANEL * 3898
    assert len(calls) == spreads


def test_deterministic_ek_builds_no_integer_mode_table(monkeypatch):
    # every EK chunk reads the deconvolution table of its Gauss-Legendre
    # fractions, never 0: the plain grid's table, of (0.0,), is never built
    built = []
    table = dirichlet_eval._deconvolution
    monkeypatch.setattr(dirichlet_eval, "_deconvolution",
                        lambda *key: built.append(key) or table(*key))
    monkeypatch.setattr(dirichlet_eval, "_CHUNK_PANELS", 1000)
    spec = make_spec(500.0, 0, 0.5)
    expected_count_deterministic(spec, experiment_interval(spec))
    assert len(built) == 2 and all(0.0 not in fractions for _, fractions in built)
    breakdown_grid(spec, make_weight_table(spec), 500.0, 0.1, 50)
    assert built[2:] == [(50, (0.0,))]


def test_deterministic_pass_builds_its_tables_once(monkeypatch):
    # 1800 panels in three full chunks of 600, whose 500 terms spread in
    # three term blocks: the chunks share one deconvolution table and one
    # plan per term block, each built at the first chunk and read at the
    # next two
    monkeypatch.setattr(dirichlet_eval, "_CHUNK_PANELS", 600)
    monkeypatch.setattr(dirichlet_eval, "_GROUP_ELEMS", 3 * 200)
    dirichlet_eval._deconvolution.cache_clear()
    dirichlet_eval._cached_plan.cache_clear()
    spec = make_spec(500.0, 0, 0.5)
    q = expected_count_deterministic(spec, Interval(500.0, 950.0), max_panel_width=0.25)
    assert q.nodes_used == NODES_PER_PANEL * 1800
    tables = dirichlet_eval._deconvolution.cache_info()
    plans = dirichlet_eval._cached_plan.cache_info()
    assert (tables.misses, tables.hits) == (1, 2) and (plans.misses, plans.hits) == (3, 6)


def test_stream_term_blocks_match_one_block(monkeypatch):
    # with the 3 moment rows' terms in four spreading blocks (166, 166, 166
    # and 2 terms, as from 166,667 terms on one grid), every block adds into
    # one fine grid per chunk and the EK value is the one-block value up to
    # roundoff
    spec = make_spec(500.0, 0, 0.5)
    iv = experiment_interval(spec)
    whole = expected_count_deterministic(spec, iv)
    monkeypatch.setattr(dirichlet_eval, "_GROUP_ELEMS", 500)
    blocks = expected_count_deterministic(spec, iv)
    assert blocks.nodes_used == whole.nodes_used
    assert abs(blocks.value - whole.value) <= 1e-13 * whole.value


def test_bad_panel_parameters_rejected():
    spec = make_spec(200.0)
    iv = experiment_interval(spec)
    for width in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="max_panel_width"):
            expected_count_deterministic(spec, iv, max_panel_width=width)
    with pytest.raises(ValueError, match="nodes_per_panel"):
        expected_count_deterministic(spec, iv, nodes_per_panel=7)


def test_stratified_runs_at_large_T():
    spec = make_spec(1e5, 0, 0.5)
    q = expected_count_stratified(spec, experiment_interval(spec), 200, seed=1)
    assert q.value > 0 and q.stderr is not None


def test_stratified_zero_integrand():
    spec = make_spec(1.5, 0, 0.5, "cosine")
    q = expected_count_stratified(spec, experiment_interval(spec), 150, seed=3)
    assert q.value == 0.0 and q.stderr == 0.0


def test_stratified_agrees_with_deterministic(ek_cache):
    spec = make_spec(1000.0, 0, 0.5)
    det = ek_cache.get(1000.0)
    st = expected_count_stratified(spec, experiment_interval(spec), 10_000, seed=5)
    assert abs(st.value - det.value) <= 3.0 * st.stderr
    assert st.method == "stratified_random" and st.nodes_used == 10_000


def test_stratified_requires_enough_strata():
    spec = make_spec(100.0)
    with pytest.raises(ValueError):
        expected_count_stratified(spec, experiment_interval(spec), 50, seed=0)


def test_stratified_stderr_is_honest():
    # the stderr comes from independent replicates, so the z-scores against
    # the deterministic value have rms ~1 (t with 24 degrees of freedom)
    spec = make_spec(500.0, 2, 0.5, "sine")
    iv = experiment_interval(spec)
    det = expected_count_deterministic(spec, iv).value
    z = [(q.value - det) / q.stderr
         for q in (expected_count_stratified(spec, iv, 1000, seed=300 + s)
                   for s in range(40))]
    assert 0.7 <= math.sqrt(np.mean(np.square(z))) <= 1.4


def test_stratified_stderr_scaling():
    # doubling strata shrinks stderr by ~1/sqrt(2) (20% tolerance, 20 reps)
    spec = make_spec(300.0)
    iv = experiment_interval(spec)
    ratios = [expected_count_stratified(spec, iv, 400, seed=1000 + r).stderr
              / expected_count_stratified(spec, iv, 800, seed=2000 + r).stderr
              for r in range(20)]
    assert abs(np.mean(ratios) - math.sqrt(2.0)) < 0.2 * math.sqrt(2.0)


def test_expected_count_near_predicted_scale(ek_cache):
    # T = 1000: the integral sits within O(T/log T) of the two-term asymptotic
    from dirichlet_roots import predict_expected_zeros

    q = ek_cache.get(1000.0)
    pred = predict_expected_zeros(1000.0, 0)
    assert abs(q.value - pred.total) < 1.0 * 1000.0 / math.log(1000.0)


@pytest.mark.parametrize("ulps,resolved", [(5.0, True), (3.0, False)])
def test_node_streams_reject_nodes_within_four_ulp(ulps, resolved):
    # panels so narrow that neighbouring nodes (here across a panel edge,
    # the closest pair) lie within 4 ulp of interval.hi raise before the
    # integrand runs; at 5 ulp the first chunk is evaluated
    iv, calls = Interval(0.0, 1e6), []
    f = (_gauss_rule(10)[0] + 1.0) / 2.0
    n_panels = math.floor(iv.length * 2.0 * f[0] / (ulps * math.ulp(iv.hi)))

    def integrand(start, step, count, fractions):
        calls.append(count)
        return (np.zeros(count) for _ in fractions)

    streams = _node_streams(integrand, iv, n_panels, 10)
    if resolved:
        assert next(streams)[0] == 0 and calls == [dirichlet_eval._CHUNK_PANELS]
    else:
        with pytest.raises(NumericalError, match=re.escape(f"{n_panels:.4g} panels on")):
            next(streams)
        assert calls == []
