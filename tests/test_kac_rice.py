import math
import re

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
from dirichlet_roots import kac_rice
from dirichlet_roots.core import experiment_interval
from dirichlet_roots.dirichlet_eval import WeightTable
from dirichlet_roots.kac_rice import (
    NumericalError,
    STRATIFIED_REPLICATES,
    _gauss_legendre,
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
    # a negative squared weight breaks Cauchy-Schwarz: A < 0 < B
    spec = make_spec(2.5, 0, 0.5, "cosine")
    bad = WeightTable(spec=spec, logs=np.log([1.0, 2.0]), weights=np.ones(2),
                      squared_weights=np.array([1.0, -0.5]))
    with pytest.raises(NumericalError, match="Cauchy-Schwarz") as exc:
        breakdown_at(spec, 1.0, bad)
    assert exc.value.t == 1.0 and isinstance(exc.value, ValueError)
    with pytest.raises(NumericalError, match="Cauchy-Schwarz") as exc:
        breakdown_grid(spec, bad, 0.0, 0.25, 20)
    assert exc.value.t == 0.25  # t = 0 has sin(t log 2) = 0, so A = 0 there


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

    def cosines(start, step, count):
        counts.append(count)
        return np.cos(np.outer(omegas, start + step * np.arange(count)))

    got = _gauss_legendre(cosines, iv, n_panels=40)
    assert got.shape == (4,)
    assert np.max(np.abs(got - exact)) < 1e-12
    assert counts == [40] * 8
    # 40 panels in chunks of 7: five full chunks and a last one of 5 panels
    monkeypatch.setattr(kac_rice, "_CHUNK_PANELS", 7)
    counts.clear()
    got = _gauss_legendre(cosines, iv, n_panels=40)
    assert np.max(np.abs(got - exact)) < 1e-12
    assert counts == [7, 7, 7, 7, 7, 5] * 8


@pytest.mark.parametrize("T,k,part", [(2000.0, 0, "cosine"), (500.0, 2, "sine")])
def test_chunked_streams_match_whole_streams(monkeypatch, T, k, part):
    # chunking every node stream into 1000-panel kernel calls (20 and 39
    # chunks per stream at T = 2000, 4 and 8 at T = 500) changes EK only by
    # roundoff
    spec = make_spec(T, k, 0.5, part)
    whole = expected_count_deterministic(spec, experiment_interval(spec))
    monkeypatch.setattr(kac_rice, "_CHUNK_PANELS", 1000)
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
    # with a small per-call budget the terms split into more blocks than
    # there are replicates; the blocks' sums add up to the one-call values
    spec = make_spec(300.0, 0, 0.5, "cosine")
    table = make_weight_table(spec)
    iv = experiment_interval(spec)
    whole = _shifted_grids(spec, table, iv, 400, seed=7)
    monkeypatch.setattr(kac_rice, "_GROUP_ELEMS", 3 * STRATIFIED_REPLICATES * 7)
    split = _shifted_grids(spec, table, iv, 400, seed=7)
    assert np.array_equal(split["t"], whole["t"])
    for name in ("A", "B", "C", "density"):
        assert np.allclose(split[name], whole[name], rtol=1e-12, atol=1e-12)


def test_weight_scale_invariance():
    # common factor on every weight leaves the density unchanged
    spec = make_spec(120.0, 0, 0.5, "cosine")
    base = make_weight_table(spec)
    for c in (1e-6, 3.0, 1e6):
        scaled = WeightTable(spec=spec, logs=base.logs.copy(),
                             weights=base.weights * c,
                             squared_weights=base.squared_weights * c * c)
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
    # base pass plus the halved pass: three panel counts of 8 nodes each
    assert q.nodes_used == 3 * 8 * math.ceil(500.0 / panel_width(make_spec(500.0)))


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
