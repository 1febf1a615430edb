import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from dirichlet_roots import (
    Interval,
    WeightTable,
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
    _TILE_CELLS,
    _TILE_POINTS,
    _cached_plan,
    _deconvolution,
    _fine_length,
    _kernel_transform,
    _ramp,
    _spread_kernel,
    _strengths,
    oscillating_sums,
)
from dirichlet_roots.kac_rice import _moment_streams
from dirichlet_roots.monte_carlo import _count_rows

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
    assert np.array_equal(table.squared_weights, table.weights * table.weights)


def test_weight_table_holds_two_arrays():
    # the table keeps logs and weights and squares the weights on each read:
    # a stored third array, or n kept alive while the sums run, shows here
    assert [f.name for f in dataclasses.fields(WeightTable) if f.init] == ["spec", "logs",
                                                                          "weights"]
    assert isinstance(WeightTable.squared_weights, property)
    spec = make_spec(2e5)
    tracemalloc.start()
    try:
        table = make_weight_table(spec)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = 8 * spec.n_terms
    assert held <= 2.05 * size and peak <= 4.2 * size
    assert not table.weights.flags.writeable and not table.logs.flags.writeable


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


def _grid_values(table, x, iv, step):
    """The snapped step and the (rows, points) values of Monte Carlo's grid
    chunks (_count_rows), joined; a later chunk repeats the value before it."""
    chunks = list(_count_rows(table, x, iv, step))
    return chunks[0][0], np.concatenate([c[2][:, i > 0:] for i, c in enumerate(chunks)], axis=1)


def test_grid_matches_two_term_closed_form(two_term):
    spec, table = two_term
    iv = Interval(5.0, 9.0)
    step, values = _grid_values(table, np.array([[0.0, 1.0]]), iv, 0.01)
    grid = iv.lo + step * np.arange(values.shape[1])
    expected = np.cos(grid * math.log(2.0)) / math.sqrt(2.0)
    assert np.max(np.abs(values[0] - expected)) < 1e-10


def test_grid_matches_direct_random():
    # grid kernel vs direct on ~1e3 points, T = 500
    spec = make_spec(500.0, 0, 0.5)
    table = make_weight_table(spec)
    sample = sample_coefficients(spec, 11, 0)
    iv = Interval(500.0, 600.0)
    step, values = _grid_values(table, sample.values[None, :], iv, 0.1)
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
    step, values = _grid_values(table, sample.values[None, :], iv, 0.02)
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
    # fraction's grid, the sine rows are exact zeros, and zero rows give
    # exact zeros, on points in turn 0 (step 0.1) and in several turns (3.0).
    # The grids 6e4 + (i - 10) 0.7 and 6e4 + (i + 1e4) 0.7 take their
    # whole steps in the start
    rows = [[2.5], [-1.0], [1.5]]
    logs = np.log(np.arange(1, 301, dtype=np.float64))
    for start, fractions in ((3.0, (0.0,)), (6e4, (0.0, 0.25, 1.0)), (6e4, (0.0, 0.4)),
                             (6e4 - 7.0, (0.0,)), (6e4 + 7e3, (0.0,))):
        sums = list(oscillating_sums(np.zeros(1), rows, start, 0.7, 40, fractions))
        assert len(sums) == len(fractions)
        for C, S in sums:
            assert C.shape == S.shape == (3, 40)
            assert np.all(C == np.asarray(rows)) and np.all(S == 0.0)
        for step in (0.1, 3.0):
            for C, S in oscillating_sums(logs, np.zeros((2, 300)), -5.0, step, 33, fractions):
                assert C.shape == S.shape == (2, 33)
                assert np.all(C == 0.0) and np.all(S == 0.0)


def test_kernel_zero_shift_is_unshifted_bitwise():
    # the plain grid is one zero fraction, and the strengths are coeffs *
    # exp(i phase) bit for bit: one row set, which spreads where the points
    # lie in turn 0 and where they span several turns alike
    spec = make_spec(500.0, 0, 0.5)
    table = make_weight_table(spec)
    X = np.array([sample_coefficients(spec, 9, r).values for r in range(5)]) * table.weights
    for start in (500.0, 60000.0):
        phase = start * table.logs
        exact = np.vstack([X * np.cos(phase), X * np.sin(phase)])
        assert np.array_equal(_strengths(X, table.logs, start), exact)
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
    # the grids start + shift + i*step, from the fractions shift / step with
    # their whole steps in the start (the spreads wrap: the points span many
    # turns), yield one (C, S) each.  Both the kernel
    # and the fsum oracles round each phase t log n, which bounds their
    # agreement at large |t| by about eps |t| ||c_n log n||_2 (measured
    # 0.6-0.9 of it at all three starts); at moderate |t| the 1e-12 L1-mass
    # term dominates
    spec, sin_spec = make_spec(T, 0, 0.5, "cosine"), make_spec(T, 0, 0.5, "sine")
    table, sin_table = make_weight_table(spec), make_weight_table(sin_spec)
    X = sample_coefficients(spec, 5, 0).values
    sq, logs = table.squared_weights, table.logs
    rows = np.vstack([X * table.weights, sq, sq * logs, sq * logs * logs])
    whole = np.floor(np.array(shifts) / step)
    sums = [None] * len(shifts)
    for w in np.unique(whole):
        at = np.flatnonzero(whole == w)
        grids = oscillating_sums(logs, rows, start + w * step, step, count,
                                 np.array(shifts)[at] / step - w)
        for g, s in zip(at, grids, strict=True):
            sums[g] = s
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


def _wrapped_case(case):
    """(logs, rows, start, step, count, fractions) of a spread whose points span many turns."""
    rng = np.random.default_rng(11)
    if case == "negative":  # log(n / 300) <= 0: turns -3 .. -1, and 0 at n = 300
        logs = np.log(np.arange(1, 301, dtype=np.float64) / 300.0)
        rows = rng.standard_normal((2, 300)) / np.sqrt(np.arange(1, 301))
        return logs, rows, 50.0, 3.0, 64, (0.0, 0.3, 1.0)
    T = 4000.0 if case == "stratified" else 600.0
    spec = make_spec(T, 0, 0.5)
    table = make_weight_table(spec)
    sq, logs = table.squared_weights, table.logs
    X = sample_coefficients(spec, 5, 0).values
    rows = np.vstack([X * table.weights, sq, sq * logs, sq * logs * logs])
    if case == "stratified":  # T = 4000, 10,000 strata: the doubled grid 2 lo + 2 h (i + u)
        return logs, rows, 8000.0, 20.0, 400, rng.random(25)
    return logs, rows, 1200.0, 40.0, 50, rng.random(4)  # 600 terms over turns 0 .. 40


@pytest.mark.parametrize("case,block", [("stratified", None), ("negative", None),
                                        ("blocks", 200)])
def test_wrapped_fractions_match_fsum(monkeypatch, case, block):
    # fractions on spreads whose points span many turns: each turn's factor
    # exp(2 pi i f k) multiplies its segment of the spread grid, and a
    # point's position in its turn enters by the ramp.  On stratified EK's
    # T = 4000 shape, on negative logs (negative turns) and in three term
    # blocks of 200 terms with turns 4 .. 33, 33 .. 38 and 38 .. 40, every
    # row of both halves matches fsum within
    # test_kernel_shifted_rows_match_fsum's bound
    logs, rows, start, step, count, fractions = _wrapped_case(case)
    if block:
        monkeypatch.setattr(dirichlet_eval, "_GROUP_ELEMS", block * len(rows) * _SPREAD_WIDTH)
    sums = list(oscillating_sums(logs, rows, start, step, count, fractions))
    assert len(sums) == len(fractions)
    eps = np.finfo(np.float64).eps
    for r, row in enumerate(rows):
        mass, spread = math.fsum(np.abs(row)), float(np.linalg.norm(row * logs))
        for f, (C, S) in zip(fractions, sums):
            assert C.shape == S.shape == (len(rows), count)
            for i in (0, count // 2, count - 1):
                t = start + (i + f) * step
                bound = 1e-12 * mass + 2.0 * eps * abs(t) * spread
                assert abs(C[r, i] - math.fsum(row * np.cos(t * logs))) < bound
                assert abs(S[r, i] - math.fsum(row * np.sin(t * logs))) < bound


@pytest.fixture
def ramps(monkeypatch):
    """The argument tuples of every _ramp call: grid ramps, and turn tables (one cell per turn).

    Where every point lies in turn 0, each fraction takes its own grid ramp;
    otherwise one grid ramp and one turn table per group of turns serve
    every fraction."""
    calls, ramp = [], dirichlet_eval._ramp
    monkeypatch.setattr(dirichlet_eval, "_ramp", lambda *args: calls.append(args) or ramp(*args))
    return calls


def _ramp_kinds(calls):
    """(grid ramps, turn tables) among recorded _ramp calls."""
    tables = sum(args[1] == 1 for args in calls)
    return len(calls) - tables, tables


@pytest.mark.parametrize("T", [500.0, 1000.0])
def test_streams_match_fsum_at_gauss_legendre_fractions(ramps, T):
    # both halves of every row at the 8 node fractions (xi + 1)/2, on EK's
    # doubled grid (step * log T = pi/2), against the fsum evaluators; every
    # point lies in turn 0, so one spread serves every fraction's ramp
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
    assert _ramp_kinds(ramps) == (8, 0)


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
    # step * max log n = scale * pi.  Up to pi, as on EK's doubled grid of
    # half-period panels, every point lies in turn 0, also on the 64-cell
    # floor of 5 modes: one spread serves the three fractions' ramps.  At
    # 3 pi the points span turns 0 and 1, and negative logs (log(n / 7),
    # n < 7) turns -1 and 0: the turns' segments then fold in by one turn
    # table and one ramp for all fractions.  All match fsum.
    logs = np.log(np.arange(1, 301, dtype=np.float64))
    coeffs = np.random.default_rng(6).standard_normal((2, 300)) / np.sqrt(np.arange(1, 301))
    step, fractions = scale * math.pi / logs[-1], (0.125, 0.5, 0.875)
    _check_fractions_against_fsum(logs, coeffs, 10.0, step, count, fractions)
    assert _ramp_kinds(ramps) == ((3, 0) if scale <= 1.0 else (1, 1))
    ramps.clear()
    _check_fractions_against_fsum(logs - math.log(7.0), coeffs, 10.0, step, count, fractions)
    assert _ramp_kinds(ramps) == (1, 1)


@pytest.mark.parametrize("count", [1000, 40, 5])
def test_streams_one_cell_past_the_gap_take_angle_addition(ramps, count):
    # reach = step * max log n * nf / (2 pi) fine cells.  One cell either
    # side of nf - w - 1, where the kept support first reaches the images
    # nf - w/2 .. nf - 1 of the halo cells -w/2 .. -1, and half a cell
    # below nf, where it runs into the halo past cell nf, every point lies
    # in turn 0 and one spread serves every fraction.  Half a cell past nf
    # the last point starts turn 1, and the two turns' segments fold in by
    # one turn table for all fractions.  All match fsum.
    logs = np.log(np.arange(1, 301, dtype=np.float64))
    coeffs = np.random.default_rng(6).standard_normal((2, 300)) / np.sqrt(np.arange(1, 301))
    nf, fractions = _fine_length(count), (0.125, 0.5, 0.875)
    for reach, kinds in ((nf - _SPREAD_WIDTH - 1.5, (3, 0)), (nf - _SPREAD_WIDTH - 0.5, (3, 0)),
                         (nf - 0.5, (3, 0)), (nf + 0.5, (1, 1))):
        ramps.clear()
        step = reach * 2.0 * math.pi / (nf * logs[-1])
        _check_fractions_against_fsum(logs, coeffs, 10.0, step, count, fractions)
        assert _ramp_kinds(ramps) == kinds


def test_fractions_outside_unit_interval_are_rejected(ramps):
    # a ramp reads modes j + f, which only f in [0, 1] keeps inside the
    # kernel's band: other fractions raise at the first next(), before a
    # plan is built or looked up; whole steps belong in the start
    logs = np.log(np.arange(1, 201, dtype=np.float64))
    coeffs = np.random.default_rng(2).standard_normal((1, 200)) / np.sqrt(np.arange(1, 201))
    step = math.pi / (2.0 * logs[-1])
    for fractions in ((0.5, -3.25, 40.0), (1.0 + 2.0**-52,), (-1e-300, 0.5)):
        before = _cached_plan.cache_info()
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            next(oscillating_sums(logs, coeffs, 400.0, step, 50, fractions))
        after = _cached_plan.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)
    assert not ramps


@pytest.fixture
def turn_groups(monkeypatch):
    """(first turn, segments) of every group of turns that _spread_rows yields."""
    groups, spread_rows = [], dirichlet_eval._spread_rows

    def recorded(*args):
        for first, segments in spread_rows(*args):
            groups.append((first, segments.shape[1]))
            yield first, segments

    monkeypatch.setattr(dirichlet_eval, "_spread_rows", recorded)
    return groups


@pytest.mark.parametrize("case,count", [("positive", 40), ("negative", 40), ("positive", 5)])
def test_turn_blocks_span_a_bounded_number_of_turns(monkeypatch, turn_groups, case, count):
    # with a budget of two turns' cells per complex row, 600 terms over
    # about 20 turns (log(n / 300): turns -19 .. 2) run in term blocks of
    # 4 nf / w terms, each spread in groups of two turns plus their halos,
    # whose segments fold in with their own turns' factors.  Fractions 0
    # and 1 (the same grid shifted a step) and 0.3 match fsum within 1e-12
    # of each row's L1 mass on every mode checked, also on 5 modes (nf = 64
    # < tile)
    n = np.arange(1, 601, dtype=np.float64)
    logs = np.log(n / 300.0) if case == "negative" else np.log(n)
    coeffs = np.random.default_rng(12).standard_normal((2, 600)) / np.sqrt(n)
    nf, fractions = _fine_length(count), (0.0, 0.3, 1.0)
    monkeypatch.setattr(dirichlet_eval, "_GROUP_ELEMS", 2 * 2 * len(coeffs) * nf)
    start, step = 50.0, 20.0
    sums = list(oscillating_sums(logs, coeffs, start, step, count, fractions))
    assert len(sums) == len(fractions)
    firsts = sorted({first for first, _ in turn_groups})
    assert len(turn_groups) >= 5 and len(firsts) >= 5
    assert (firsts[0] < -1) == (case == "negative")
    tail = -(-(_TILE_CELLS + _SPREAD_WIDTH) // nf)  # the last span's tile and halo
    assert all(segments <= 2 + 1 + tail for _, segments in turn_groups)
    for f, (C, S) in zip(fractions, sums):
        assert C.shape == S.shape == (2, count)
        for i in sorted({0, count // 2, count - 1}):
            t = start + (i + f) * step
            for r, row in enumerate(coeffs):
                mass = math.fsum(np.abs(row))
                assert abs(C[r, i] - math.fsum(row * np.cos(t * logs))) < 1e-12 * mass
                assert abs(S[r, i] - math.fsum(row * np.sin(t * logs))) < 1e-12 * mass


def test_turn_blocks_share_one_transform(monkeypatch, turn_groups):
    # stratified fractions on a spread of about 76 turns: the 3 moment rows
    # are spread once, whole turns fold in after the spread, and one
    # _transform serves all 25 fractions.  In one term block of one group of
    # turns, and in 3 term blocks of 200 terms with groups of 25 turns, the
    # sums agree within 1e-13 of each row's L1 mass
    table = make_weight_table(make_spec(600.0, 0, 0.5))
    sq, logs = table.squared_weights, table.logs
    moments = np.vstack([sq, sq * logs * logs, sq * logs])
    fractions = np.random.default_rng(5).random(25)
    args = (moments, 1200.0, 75.0, 16, fractions)
    spreads, transforms = [], []
    spread, transform = dirichlet_eval._spread, dirichlet_eval._transform
    monkeypatch.setattr(dirichlet_eval, "_spread", lambda *a: spreads.append(a) or spread(*a))
    monkeypatch.setattr(dirichlet_eval, "_transform",
                        lambda *a: transforms.append(a[0].shape) or transform(*a))
    one = list(oscillating_sums(logs, *args))
    assert len(spreads) == len(turn_groups) == 1
    assert transforms == [(3, 25, _fine_length(16))]
    monkeypatch.setattr(dirichlet_eval, "_GROUP_ELEMS", 200 * 3 * _SPREAD_WIDTH)
    three = list(oscillating_sums(logs, *args))
    assert len(spreads) == len(turn_groups) >= 1 + 4 and len(transforms) == 2
    assert all(a[0].shape[1] <= 200 for a in spreads[1:])
    mass = np.abs(moments).sum(axis=1)
    for (C1, S1), (C3, S3) in zip(one, three, strict=True):
        for a, b in ((C1, C3), (S1, S3)):
            assert np.all(np.abs(a - b).max(axis=1) <= 1e-13 * mass)


def test_ramp_rows_equal_one_fraction_ramps():
    # the multi-turn path takes every fraction's grid ramp, and each group's
    # turn table, in one call: row g is fraction g's own ramp bit for bit
    fractions = np.random.default_rng(3).random(5)
    for nf, first, length in ((800, 0, 800), (1, -19, 7), (64, -8, 80)):
        rows = _ramp(fractions[:, None], nf, first, length)
        assert rows.shape == (5, length)
        for g, f in enumerate(fractions):
            assert np.array_equal(rows[g], _ramp(f, nf, first, length))


@pytest.mark.parametrize("path", ["ramp", "mc"])
def test_term_blocks_share_one_transform_per_fraction(monkeypatch, path):
    # _GROUP_ELEMS // rows terms per spreading block: 600 terms run as 1
    # block and as 3, which add into one fine grid.  The sums agree within
    # 1e-13 of each row's L1 mass, and _transform runs once per fraction:
    # on Gauss-Legendre fractions on EK's doubled grid (turn 0, "ramp") and
    # on an 8-row MC block's plain grid
    spec = make_spec(600.0, 0, 0.5)
    table = make_weight_table(spec)
    sq, logs = table.squared_weights, table.logs
    moments = np.vstack([sq, sq * logs * logs, sq * logs])
    if path == "ramp":
        fractions = (np.polynomial.legendre.leggauss(10)[0] + 1.0) / 2.0
        args, rows = (moments, 1200.0, math.pi / (2.0 * logs[-1]), 300, fractions), 3
    else:
        X = np.array([sample_coefficients(spec, 5, r).values for r in range(8)])
        args, rows = (X * table.weights, 600.0, 0.05, 2001, (0.0,)), 8
    spreads, transforms = [], []
    spread, transform = dirichlet_eval._spread, dirichlet_eval._transform
    monkeypatch.setattr(dirichlet_eval, "_spread",
                        lambda *a: spreads.append(a[1].tile) or spread(*a))
    monkeypatch.setattr(dirichlet_eval, "_transform",
                        lambda *a: transforms.append(a[2]) or transform(*a))
    one = list(oscillating_sums(logs, *args))
    assert len(spreads) == 1
    calls = len(transforms)
    assert calls == len(args[-1])
    monkeypatch.setattr(dirichlet_eval, "_GROUP_ELEMS", 200 * rows)
    three = list(oscillating_sums(logs, *args))
    assert len(spreads) == 4 and len(set(spreads[1:])) == 1  # one tile for every block
    assert len(transforms) == 2 * calls
    mass = np.abs(args[0]).sum(axis=1)
    for (C1, S1), (C3, S3) in zip(one, three, strict=True):
        for a, b in ((C1, C3), (S1, S3)):
            err = np.abs(a - b).reshape(-1, len(mass), a.shape[-1]).max(axis=(0, 2))
            assert np.all(err <= 1e-13 * mass)


def test_moment_sums_row_mapping_on_shifted_grids():
    # _moment_streams reads P_0 and P_2 from the cosine half and Pt_1 from
    # the sine half of its one coefficient block, on every fraction's grid
    # (the grid start + (i - 7.5) step takes its whole steps in the start).
    # It takes the t-grid and doubles it: halving tau's start and step is exact
    table = make_weight_table(make_spec(700.0, 1, 0.5))
    step = 0.3
    for start, fractions in ((1400.0, (0.0, 0.5)), (1400.0 - 8 * step, (0.5,))):
        streams = list(_moment_streams(table, start / 2, step / 2, 100, fractions))
        assert len(streams) == len(fractions)
        for g, f in enumerate(fractions):
            assert all(rows.shape == (100,) for rows in streams[g])
            for j, part in enumerate(("cosine", "sine", "cosine")):
                mass = math.fsum(table.squared_weights * table.logs**j)
                for i in (0, 63, 99):
                    tau = start + (i + f) * step
                    assert abs(streams[g][j][i] - u_moment(table, j, tau, part)) < 1e-12 * mass


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


def test_kernel_plan_memory_is_linear_in_terms(monkeypatch):
    # the cached plan keeps O(terms) arrays; the terms x kernel-width weights
    # are built per call, which keeps deterministic EK at large T in memory.
    # A spread holds its fine grid, its kernel block and one terms x w array,
    # the weights, computed in place: the scatter index is built per span
    # (at most _TILE_POINTS x w), not for the whole block, which once held
    # another 8 w bytes per term (1.9 times this bound at 40,000 terms)
    plans = []
    monkeypatch.setattr(dirichlet_eval, "_cached_plan",
                        lambda *key: plans.append(_cached_plan(*key)) or plans[-1])
    for terms in (2000, 40_000):
        logs = np.log(np.arange(1, terms + 1, dtype=np.float64))
        _cached_plan.cache_clear()
        next(oscillating_sums(logs, np.ones((3, terms)), 4000.0, 0.01, 5000))
        plan = plans.pop()
        assert _cached_plan.cache_info().currsize == 1 and not plans
        arrays = [v for v in plan if isinstance(v, np.ndarray)]
        assert len(arrays) == 3 and max(a.size for a in arrays) <= logs.size
        assert len(plan.spans) <= logs.size
        w, nf, strengths = _SPREAD_WIDTH, _fine_length(5000), np.ones((6, plan.terms.size))
        tracemalloc.start()
        try:
            fine = dirichlet_eval._spread(strengths, plan, nf, None, plan.spans)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = 8 * plan.widest * (plan.tile + w)
        span = 8 * _TILE_POINTS * (3 * w + len(strengths))  # a span's index, numpy's copies
        assert peak <= fine.nbytes + block + 8 * w * plan.terms.size + span + 65536


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
    # the one deconvolution: the plain grid's cached table, of the one
    # fraction 0, is the kernel polynomial at modes i - count//2, equal to
    # the FFT of the kernel sampled on the fine grid (this test's oracle)
    # to a few ulp
    nf, (scale,) = _fine_length(count), _deconvolution(count, (0.0,))
    assert nf >= max(2 * count, 64) and scale.shape == (count,)
    wrap = _SPREAD_WIDTH // 2
    kernel = np.zeros(nf)
    kernel[:wrap + 1] = _spread_kernel(np.arange(wrap + 1.0))
    kernel[nf - wrap:] = kernel[wrap:0:-1]
    oracle = np.fft.rfft(kernel).real[np.abs(np.arange(count) - count // 2)]
    assert np.all(np.abs(scale - oracle) <= 16 * np.spacing(oracle))


@pytest.mark.parametrize("count,fractions", [
    (1, (0.0,)), (400, (0.0,)), (33, (0.0, 0.5, 1.0)), (1979, tuple((np.arange(10) + 0.5) / 10)),
])
def test_deconvolution_rows_are_the_kernel_transform(count, fractions):
    # row g of the table is bitwise the kernel's transform at modes
    # i - count//2 + fractions[g], built once per (count, fractions) and
    # shared read-only
    table = _deconvolution(count, fractions)
    assert table.shape == (len(fractions), count) and not table.flags.writeable
    for row, f in zip(table, fractions):
        expected = _kernel_transform(np.arange(count) - count // 2 + f, _fine_length(count))
        assert np.array_equal(row, expected)
    assert _deconvolution(count, fractions) is table


def test_grid_snapping_and_errors(two_term):
    # the step snaps down to length / ceil(length / step): 4 cells of 0.25
    _, table = two_term
    iv = Interval(0.0, 1.0)
    coeffs = np.array([[1.0, 1.0]])
    step, values = _grid_values(table, coeffs, iv, 0.3)
    grid = iv.lo + step * np.arange(values.shape[1])
    assert grid[0] == 0.0 and grid[-1] == pytest.approx(1.0, abs=1e-15)
    assert step <= 0.3
    assert values.shape == (1, 5)
    assert np.max(np.abs(np.diff(grid) - step)) < 1e-15
    for bad in (0.0, -0.3, math.nan, math.inf, 1e-310):
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
