import math

import numpy as np
import pytest

from dirichlet_roots import (
    Interval,
    eval_polynomial,
    log_moment_sum,
    make_spec,
    make_weight_table,
    sample_coefficients,
    u_moment,
)
from dirichlet_roots import dirichlet_eval
from dirichlet_roots.core import CoefficientSample
from dirichlet_roots.dirichlet_eval import (
    _SPREAD_WIDTH,
    _cached_plan,
    _fine_grid,
    _grid_values,
    _shifted_strengths,
    _spread_kernel,
    oscillating_sums,
)
from dirichlet_roots.kac_rice import _moment_sums

from oracles import direct_power_sum


def _fixed_sample(spec, values):
    return CoefficientSample(spec=spec, master_seed=0, trial_index=0,
                             values=np.asarray(values, dtype=np.float64))


@pytest.fixture(scope="module")
def two_term():
    spec = make_spec(2.5, 0, 0.5, "cosine")
    return spec, make_weight_table(spec)


def test_weight_table_invariants():
    table = make_weight_table(make_spec(50.0, 2, 0.5))
    assert np.all(np.diff(table.logs) > 0)
    assert table.logs[0] == 0.0
    assert table.weights[0] == 0.0  # (log 1)^k kills n=1 for k >= 1
    k0 = make_weight_table(make_spec(50.0, 0, 0.5))
    assert k0.weights[0] == 1.0


def test_eval_cos_quarter_period(two_term):
    spec, table = two_term
    sample = _fixed_sample(spec, [0.0, 1.0])
    t = math.pi / (2.0 * math.log(2.0))
    assert abs(eval_polynomial(sample, table, t)) < 1e-15


def test_eval_constant_term(two_term):
    spec, table = two_term
    sample = _fixed_sample(spec, [1.0, 0.0])
    for t in (0.0, 1.7, -42.0, 1e4):
        assert eval_polynomial(sample, table, t) == 1.0


def test_eval_all_ones_at_zero():
    spec = make_spec(10.0, 0, 0.5)
    table = make_weight_table(spec)
    sample = _fixed_sample(spec, np.ones(10))
    expected = direct_power_sum(10, 0, 0.5)  # sum 1/sqrt(n) = 5.020997899...
    assert abs(expected - 5.0209978986) < 1e-9
    assert abs(eval_polynomial(sample, table, 0.0) - expected) < 1e-12


def test_eval_spec_mismatch(two_term):
    _, table = two_term
    other = make_spec(3.5, 0, 0.5)
    sample = sample_coefficients(other, 0, 0)
    with pytest.raises(ValueError):
        eval_polynomial(sample, table, 1.0)


def test_cosine_parity():
    spec = make_spec(200.0, 0, 0.5, "cosine")
    table = make_weight_table(spec)
    sample = sample_coefficients(spec, 3, 0)
    for t in (0.3, 17.9, 400.0):
        assert eval_polynomial(sample, table, t) == pytest.approx(
            eval_polynomial(sample, table, -t), rel=1e-13, abs=1e-13)


def test_grid_matches_two_term_closed_form(two_term):
    spec, table = two_term
    iv = Interval(5.0, 9.0)
    step, values = _grid_values(table, np.array([[0.0, 1.0]]) * table.weights, iv, 0.01)
    grid = iv.lo + step * np.arange(values.shape[1])
    expected = np.cos(grid * math.log(2.0)) / math.sqrt(2.0)
    assert np.max(np.abs(values[0] - expected)) < 1e-10


def test_grid_matches_direct_random():
    # grid kernel vs direct on ~1e3 points, T = 500
    spec = make_spec(500.0, 0, 0.5)
    table = make_weight_table(spec)
    sample = sample_coefficients(spec, 11, 0)
    iv = Interval(500.0, 600.0)
    step, values = _grid_values(table, (sample.values * table.weights)[None, :], iv, 0.1)
    assert values.shape[1] >= 1000
    mass = math.fsum(np.abs(sample.values) * table.weights)
    idx = np.linspace(0, values.shape[1] - 1, 101).astype(int)
    worst = max(abs(values[0, i] - eval_polynomial(sample, table, iv.lo + step * i))
                for i in idx)
    assert worst < 1e-9 * mass


def test_grid_long_run_accuracy():
    # the last of > 9000 grid points stays inside the contract
    spec = make_spec(200.0, 1, 0.5, "sine")
    table = make_weight_table(spec)
    sample = sample_coefficients(spec, 4, 2)
    iv = Interval(200.0, 400.0)
    step, values = _grid_values(table, (sample.values * table.weights)[None, :], iv, 0.02)
    assert values.shape[1] > 9000
    mass = math.fsum(np.abs(sample.values) * table.weights)
    i = values.shape[1] - 1
    assert abs(values[0, i] - eval_polynomial(sample, table, iv.lo + step * i)) < 1e-9 * mass


@pytest.mark.parametrize("T,start,step,count,n_rows,points", [
    (500.0, 500.0, 3.0, 64, 2, None),         # step * log N > 2 pi: points wrap
    (300.0, 300.0, 0.05, 1, 2, None),
    (300.0, 300.0, 0.05, 2, 2, None),
    (300.0, 300.0, 0.05, 7, 2, None),         # fewer modes than the kernel width
    (300.0, -450.0, 0.02, 500, 2, (0, 1, 249, 250, 499)),
    (4000.0, 8000.0, 40.0, 200, 300, (0, 101, 199)),  # stratified EK's shape
])
def test_kernel_matches_fsum(T, start, step, count, n_rows, points):
    # every row of both halves against the fsum evaluator
    cos_spec, sin_spec = make_spec(T, 0, 0.5, "cosine"), make_spec(T, 0, 0.5, "sine")
    cos_table, sin_table = make_weight_table(cos_spec), make_weight_table(sin_spec)
    X = np.array([sample_coefficients(cos_spec, 5, r).values for r in range(n_rows)])
    rows = X * cos_table.weights
    C, S = next(oscillating_sums(cos_table.logs, rows, start, step, count))
    assert C.shape == S.shape == (n_rows, count)
    mass = np.abs(rows).sum(axis=1)
    for i in range(count) if points is None else points:
        t = start + i * step
        for r in range(n_rows):
            c = eval_polynomial(_fixed_sample(cos_spec, X[r]), cos_table, t)
            s = eval_polynomial(_fixed_sample(sin_spec, X[r]), sin_table, t)
            assert abs(C[r, i] - c) < 1e-12 * mass[r]
            assert abs(S[r, i] - s) < 1e-12 * mass[r]


def test_kernel_exact_constant_and_zero_rows():
    # the log n = 0 term is added exactly to every cosine row on every
    # fraction's grid (ramped, then by angle addition), the sine rows are
    # exact zeros, and zero rows give exact zeros
    rows = [[2.5], [-1.0], [1.5]]
    logs = np.log(np.arange(1, 301, dtype=np.float64))
    for start, fractions in ((3.0, (0.0,)), (6e4, (0.0, 0.25, 1.0)),
                             (6e4, (0.0, 0.4, -10.0, 1e4))):
        sums = list(oscillating_sums(np.zeros(1), rows, start, 0.7, 40, fractions))
        assert len(sums) == len(fractions)
        for C, S in sums:
            assert C.shape == S.shape == (3, 40)
            assert np.all(C == np.asarray(rows)) and np.all(S == 0.0)
        for C, S in oscillating_sums(logs, np.zeros((2, 300)), -5.0, 0.1, 33, fractions):
            assert C.shape == S.shape == (2, 33)
            assert np.all(C == 0.0) and np.all(S == 0.0)


def test_kernel_zero_shift_is_unshifted_bitwise():
    # the plain grid is one zero fraction, whose angle-addition factor is
    # exactly 1: the strengths are the unshifted coeffs * exp(i phase), bit for bit
    spec = make_spec(500.0, 0, 0.5)
    table = make_weight_table(spec)
    X = np.array([sample_coefficients(spec, 9, r).values for r in range(5)]) * table.weights
    for start in (500.0, 60000.0):
        phase = start * table.logs
        got = _shifted_strengths(X, phase, np.zeros(1), table.logs)
        assert np.array_equal(got, np.vstack([X * np.cos(phase), X * np.sin(phase)]))
        plain = next(oscillating_sums(table.logs, X, start, 0.1, 300))
        shifted = next(oscillating_sums(table.logs, X, start, 0.1, 300, np.array([0.0])))
        assert all(np.array_equal(a, b) for a, b in zip(plain, shifted))


@pytest.mark.parametrize("T,start,step,count,shifts,nodes", [
    (300.0, -450.0, 0.5, 40, (0.0, 0.125, -3.25, 17.0), None),
    (4000.0, 8000.0, 40.0, 50, (0.0, 7.5, 39.875), (0, 24, 49)),
    # stratified T = 30000's doubled grid tau = 2 lo + 2 h (i + u), h = 1875
    (30000.0, 60000.0, 3750.0, 16, (0.0, 7.0, 1234.5625, 3749.875), (0, 9, 15)),
])
def test_kernel_shifted_rows_match_fsum(T, start, step, count, shifts, nodes):
    # the grids start + shift + i*step, from the fractions shift / step (the
    # spreads wrap: angle addition), yield one (C, S) each.  Both the kernel
    # and the fsum oracles round each phase t log n, which bounds their
    # agreement at large |t| by about eps |t| ||c_n log n||_2 (measured
    # 0.6-0.9 of it at all three starts); at moderate |t| the 1e-12 L1-mass
    # term dominates
    spec, sin_spec = make_spec(T, 0, 0.5, "cosine"), make_spec(T, 0, 0.5, "sine")
    table, sin_table = make_weight_table(spec), make_weight_table(sin_spec)
    X = sample_coefficients(spec, 5, 0).values
    sq, logs = table.squared_weights, table.logs
    rows = np.vstack([X * table.weights, sq, sq * logs, sq * logs * logs])
    sums = list(oscillating_sums(logs, rows, start, step, count, np.array(shifts) / step))
    assert len(sums) == len(shifts)
    assert all(C.shape == S.shape == (4, count) for C, S in sums)

    def direct(r, t):
        if r == 0:
            return (eval_polynomial(_fixed_sample(spec, X), table, t),
                    eval_polynomial(_fixed_sample(sin_spec, X), sin_table, t))
        return u_moment(table, r - 1, t, "cosine"), u_moment(table, r - 1, t, "sine")

    eps = np.finfo(np.float64).eps
    for r, row in enumerate(rows):
        mass, spread = math.fsum(np.abs(row)), float(np.linalg.norm(row * logs))
        for shift, (C, S) in zip(shifts, sums):
            for i in range(count) if nodes is None else nodes:
                t = start + shift + i * step
                c, s = direct(r, t)
                bound = 1e-12 * mass + 2.0 * eps * abs(t) * spread
                assert abs(C[r, i] - c) < bound
                assert abs(S[r, i] - s) < bound


@pytest.fixture
def ramps(monkeypatch):
    """The argument tuples of every _ramp call: the kernel's ramp path ran."""
    calls, ramp = [], dirichlet_eval._ramp
    monkeypatch.setattr(dirichlet_eval, "_ramp", lambda *args: calls.append(args) or ramp(*args))
    return calls


@pytest.mark.parametrize("T", [500.0, 1000.0])
def test_streams_match_fsum_at_gauss_legendre_fractions(ramps, T):
    # both halves of every row at the 8 node fractions (xi + 1)/2, on EK's
    # doubled grid (step * log T = pi/2), against the fsum evaluators; the
    # spread cannot wrap, so every fraction is ramped
    spec, sin_spec = make_spec(T, 0, 0.5, "cosine"), make_spec(T, 0, 0.5, "sine")
    table, sin_table = make_weight_table(spec), make_weight_table(sin_spec)
    X = sample_coefficients(spec, 3, 0).values
    sq, logs = table.squared_weights, table.logs
    rows = np.vstack([X * table.weights, sq, sq * logs * logs])
    start, step, count = 2.0 * T, math.pi / (2.0 * math.log(T)), 700
    fractions = (np.polynomial.legendre.leggauss(8)[0] + 1.0) / 2.0
    streams = oscillating_sums(logs, rows, start, step, count, fractions)
    for f, (C, S) in zip(fractions, streams):
        assert C.shape == S.shape == (3, count)
        for i in (0, 1, 349, 699):
            t = start + (i + f) * step
            cs = [(eval_polynomial(_fixed_sample(spec, X), table, t),
                   eval_polynomial(_fixed_sample(sin_spec, X), sin_table, t))]
            cs += [(u_moment(table, j, t, "cosine"), u_moment(table, j, t, "sine"))
                   for j in (0, 2)]
            for r, (c, s) in enumerate(cs):
                mass = math.fsum(np.abs(rows[r]))
                assert abs(C[r, i] - c) < 1e-12 * mass
                assert abs(S[r, i] - s) < 1e-12 * mass
    assert len(ramps) == 8


def test_streams_short_chunk_at_quarter_period():
    # a chunk of 3 panels at step * log N = pi/2 exactly: the fine grid of
    # at least 4 kernel widths keeps the spread from wrapping
    logs = np.log(np.arange(1, 201, dtype=np.float64))
    coeffs = np.random.default_rng(4).standard_normal((1, 200)) / np.sqrt(np.arange(1, 201))
    start, step = 400.0, math.pi / (2.0 * logs[-1])
    fractions = (0.02, 0.5, 0.98)
    mass = math.fsum(np.abs(coeffs[0]))
    for f, (C, S) in zip(fractions, oscillating_sums(logs, coeffs, start, step, 3, fractions)):
        for i in range(3):
            t = start + (i + f) * step
            assert abs(C[0, i] - math.fsum(coeffs[0] * np.cos(t * logs))) < 1e-12 * mass
            assert abs(S[0, i] - math.fsum(coeffs[0] * np.sin(t * logs))) < 1e-12 * mass


def _check_fractions_against_fsum(logs, coeffs, start, step, count, fractions):
    sums = list(oscillating_sums(logs, coeffs, start, step, count, fractions))
    assert len(sums) == len(fractions)
    for f, (C, S) in zip(fractions, sums):
        for i in sorted({0, count // 2, count - 1}):
            t = start + (i + f) * step
            for r, row in enumerate(coeffs):
                mass = math.fsum(np.abs(row))
                assert abs(C[r, i] - math.fsum(row * np.cos(t * logs))) < 1e-12 * mass
                assert abs(S[r, i] - math.fsum(row * np.sin(t * logs))) < 1e-12 * mass


@pytest.mark.parametrize("scale,count", [(0.995, 1000), (1.0, 1000), (3.0, 40), (0.8, 5)])
def test_streams_on_wrapping_spreads_match_fsum(ramps, scale, count):
    # step * max log n plus the kernel's half width pi w / nf (pi/125 on the
    # 2000-cell fine grid of 1000 modes, pi/4 on the 64-cell floor) reaches
    # pi, or some log n is negative (log(n / 7), n < 7): the spread could
    # wrap, so several fractions enter by angle addition, never ramped
    logs = np.log(np.arange(1, 301, dtype=np.float64))
    coeffs = np.random.default_rng(6).standard_normal((2, 300)) / np.sqrt(np.arange(1, 301))
    step = scale * math.pi / logs[-1]
    for points in (logs, logs - math.log(7.0)):
        _check_fractions_against_fsum(points, coeffs, 10.0, step, count, (0.125, 0.5, 0.875))
    assert not ramps


def test_fractions_outside_unit_interval_are_not_ramped(ramps):
    # a ramp reads modes j + f, which only f in [0, 1] keeps inside the
    # kernel's band: other fractions enter by angle addition on any spread
    logs = np.log(np.arange(1, 201, dtype=np.float64))
    coeffs = np.random.default_rng(2).standard_normal((1, 200)) / np.sqrt(np.arange(1, 201))
    step = math.pi / (2.0 * logs[-1])
    _check_fractions_against_fsum(logs, coeffs, 400.0, step, 50, (0.5, -3.25, 40.0))
    assert not ramps


def test_moment_sums_row_mapping_on_shifted_grids():
    # _moment_sums reads P_0 and P_2 from the cosine half and Pt_1 from the
    # sine half of its one coefficient block, on every fraction's grid
    table = make_weight_table(make_spec(700.0, 1, 0.5))
    start, step, fractions = 1400.0, 0.3, (0.0, 0.5, -7.5)
    sums = _moment_sums(table, start, step, 100, fractions)
    assert all(rows.shape == (3, 100) for rows in sums)
    for j, part in enumerate(("cosine", "sine", "cosine")):
        mass = math.fsum(table.squared_weights * table.logs**j)
        for g, f in enumerate(fractions):
            for i in (0, 63, 99):
                t = start + (i + f) * step
                assert abs(sums[j][g, i] - u_moment(table, j, t, part)) < 1e-12 * mass


def test_kernel_plan_reuse_is_bitwise():
    # a call on a warm plan equals the same call after another point set
    # has evicted the plan
    spec = make_spec(500.0, 0, 0.5)
    table = make_weight_table(spec)
    X = np.array([sample_coefficients(spec, 4, r).values for r in range(3)]) * table.weights
    args = (X, 1000.0, 0.05, 400)
    first = next(oscillating_sums(table.logs, *args))
    warm = next(oscillating_sums(table.logs, *args))
    next(oscillating_sums(table.logs[::-1].copy(), *args))
    cold = next(oscillating_sums(table.logs, *args))
    for got in (warm, cold):
        assert all(np.array_equal(a, b) for a, b in zip(first, got))


def test_kernel_alternating_point_sets_match_fsum():
    # two point sets of equal length, same step and count, called alternately:
    # the plan is keyed by the content of logs, not its length or identity
    low = np.log(np.arange(1, 301, dtype=np.float64))
    high = np.log(np.arange(301, 601, dtype=np.float64))
    rng = np.random.default_rng(8)
    coeffs = rng.standard_normal((2, 300)) / np.sqrt(np.arange(1, 301))
    start, step, count = 600.0, 0.05, 300
    for logs in (low, high, low, high):
        C, S = next(oscillating_sums(logs, coeffs, start, step, count))
        for r in range(2):
            mass = math.fsum(np.abs(coeffs[r]))
            for i in (0, 149, 299):
                t = start + i * step
                assert abs(C[r, i] - math.fsum(coeffs[r] * np.cos(t * logs))) < 1e-12 * mass
                assert abs(S[r, i] - math.fsum(coeffs[r] * np.sin(t * logs))) < 1e-12 * mass


def test_kernel_plan_memory_is_linear_in_terms():
    # the cached plan keeps O(terms) arrays; the terms x kernel-width weights
    # are built per call, which keeps deterministic EK at large T in memory
    logs = np.log(np.arange(1, 2001, dtype=np.float64))
    next(oscillating_sums(logs, np.ones((3, 2000)), 4000.0, 0.01, 5000))
    plan = _cached_plan(logs.tobytes(), 0.01, 5000, 3)
    assert _cached_plan.cache_info().currsize == 1
    arrays = [v for v in plan if isinstance(v, np.ndarray)]
    assert len(arrays) == 3 and max(a.size for a in arrays) <= logs.size
    assert len(plan.spans) <= logs.size


@pytest.mark.parametrize("start,step,shifts", [
    (math.nan, 0.1, (0.0,)), (math.inf, 0.1, (0.0,)), (1.0, math.nan, (0.0,)),
    (1.0, math.inf, (0.0,)), (1.0, 0.0, (0.0,)), (1.0, 0.1, (0.0, math.nan)),
    (1.0, 0.1, (-math.inf,)),
    # several fractions in [0, 1] but one on a spread that cannot wrap: the ramp path's
    (1.0, 0.1, (0.25, math.nan)), (1.0, 0.1, (0.5, math.inf, 0.75)),
])
def test_kernel_rejects_non_finite_grids(start, step, shifts):
    # shifts are the grids' offsets in steps, the kernel's fractions; every
    # bad grid is rejected at the first next(), before a plan is built or
    # looked up
    logs = np.log(np.arange(1, 51, dtype=np.float64))
    before = _cached_plan.cache_info()
    with pytest.raises(ValueError, match="finite"):
        next(oscillating_sums(logs, np.ones((1, 50)), start, step, 20, np.array(shifts)))
    after = _cached_plan.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


@pytest.mark.parametrize("count", [1, 7, 33, 400, 4591, 2**18])
def test_fine_grid_transform_matches_sampled_kernel_fft(count):
    # the one deconvolution: the cached integer-mode table is the kernel
    # polynomial at modes i - count//2, equal to the FFT of the kernel
    # sampled on the fine grid (this test's oracle) to a few ulp
    nf, scale = _fine_grid(count)
    assert nf >= max(2 * count, 64) and scale.shape == (count,)
    wrap = _SPREAD_WIDTH // 2
    kernel = np.zeros(nf)
    kernel[:wrap + 1] = _spread_kernel(np.arange(wrap + 1.0))
    kernel[nf - wrap:] = kernel[wrap:0:-1]
    oracle = np.fft.rfft(kernel).real[np.abs(np.arange(count) - count // 2)]
    assert np.all(np.abs(scale - oracle) <= 16 * np.spacing(oracle))


def test_grid_snapping_and_errors(two_term):
    # the step snaps down to length / ceil(length / step): 4 cells of 0.25
    _, table = two_term
    iv = Interval(0.0, 1.0)
    coeffs = np.array([[1.0, 1.0]]) * table.weights
    step, values = _grid_values(table, coeffs, iv, 0.3)
    grid = iv.lo + step * np.arange(values.shape[1])
    assert grid[0] == 0.0 and grid[-1] == pytest.approx(1.0, abs=1e-15)
    assert step <= 0.3
    assert values.shape == (1, 5)
    assert np.max(np.abs(np.diff(grid) - step)) < 1e-15
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            _grid_values(table, coeffs, iv, bad)


def test_u_moment_harmonic_at_zero():
    table = make_weight_table(make_spec(10.0, 0, 0.5))
    h10 = direct_power_sum(10, 0, 1.0)  # 2 sigma = 1: the harmonic sum H_10
    assert abs(h10 - 2.9289682539) < 1e-9
    assert u_moment(table, 0, 0.0, "cosine") == pytest.approx(h10, rel=1e-14)


def test_u_moment_matches_log_moment_at_zero():
    for (T, k, sigma, j) in [(50.0, 0, 0.5, 1), (80.0, 1, 0.25, 2), (33.0, 2, 0.75, 0)]:
        table = make_weight_table(make_spec(T, k, sigma))
        assert u_moment(table, j, 0.0, "cosine") == pytest.approx(
            log_moment_sum(T, j + 2 * k, sigma), rel=1e-13)


def test_u_moment_single_term_sine_vanishes():
    table = make_weight_table(make_spec(1.9, 0, 0.5))
    for j in (0, 1, 2):
        assert u_moment(table, j, 123.456, "sine") == 0.0


def test_u_moment_bounded_by_triangle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        T = float(rng.uniform(5, 200))
        k = int(rng.integers(0, 3))
        sigma = float(rng.uniform(0.0, 1.0))
        table = make_weight_table(make_spec(T, k, sigma))
        t = float(rng.uniform(-4 * T, 4 * T))
        j = int(rng.integers(0, 3))
        cap = log_moment_sum(T, j + 2 * k, sigma)
        assert abs(u_moment(table, j, t, "cosine")) <= cap + 1e-12
        assert abs(u_moment(table, j, t, "sine")) <= cap + 1e-12


def test_u_moment_rejects_bad_order():
    table = make_weight_table(make_spec(10.0))
    with pytest.raises(ValueError):
        u_moment(table, 3, 0.0, "cosine")


def test_log_moment_examples():
    assert log_moment_sum(10.0, 0, 0.5) == pytest.approx(2.9289682539682538, rel=1e-14)
    # single nonzero term n = 2
    assert log_moment_sum(2.5, 1, 0.5) == pytest.approx(math.log(2.0) / 2.0, rel=1e-15)
    # Euler-Maclaurin: H_N - log N - gamma ~ 1/(2N)
    resid = log_moment_sum(1e4, 0, 0.5) - math.log(1e4) - 0.5772156649015329
    assert abs(resid) < 1e-4
    assert log_moment_sum(0.5, 0, 0.5) == 0.0
    with pytest.raises(ValueError):
        log_moment_sum(10.0, -1, 0.5)
