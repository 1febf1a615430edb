import math
import os
import sys

import numpy as np
import pytest

from dirichlet_roots import (
    Interval,
    count_roots,
    eval_polynomial,
    make_spec,
    make_weight_table,
    run_trials,
    sample_coefficients,
    sigma_sweep,
)
from dirichlet_roots import dirichlet_eval, monte_carlo
from dirichlet_roots.core import CoefficientSample, experiment_interval
from dirichlet_roots.dirichlet_eval import oscillating_sums
from dirichlet_roots.monte_carlo import (
    _sign_events,
    default_grid_step,
    mean_zero_spacing,
)

from oracles import sign_pattern_events


def _grid_values(table, x, interval, step):
    """The snapped step and the (rows, points) grid values of every chunk, joined."""
    chunks = list(monte_carlo._count_rows(table, x, interval, step))
    return chunks[0][0], np.concatenate([c[2][:, i > 0:] for i, c in enumerate(chunks)], axis=1)


def _fixed_sample(spec, values):
    return CoefficientSample(spec=spec, master_seed=0, trial_index=0,
                             values=np.asarray(values, dtype=np.float64))


@pytest.fixture(scope="module")
def cos_lattice():
    """X = (0, 1), T in [2, 3): zeros exactly at (pi/2 + m pi)/log 2."""
    spec = make_spec(2.5, 0, 0.5, "cosine")
    return spec, _fixed_sample(spec, [0.0, 1.0])


def test_default_step_is_eighth_of_spacing():
    for k in (0, 1, 3):
        spec = make_spec(500.0, k, 0.5)
        spacing = math.pi * math.sqrt((2 * k + 3) / (2 * k + 1)) / math.log(500.0)
        assert mean_zero_spacing(spec) == pytest.approx(spacing, rel=1e-15)
        assert default_grid_step(spec) == pytest.approx(spacing / 8.0, rel=1e-15)


def test_lattice_count_and_roots(cos_lattice):
    spec, sample = cos_lattice
    res = count_roots(sample, Interval(100.0, 200.0), step=0.05,
                      refine_tol=1e-10, keep_roots=True)
    exact = [(math.pi / 2 + m * math.pi) / math.log(2.0) for m in range(22, 44)]
    assert res.count == 22
    assert res.roots is not None and len(res.roots) == 22
    assert np.all(np.diff(res.roots) > 0)
    assert np.all((res.roots >= 100.0) & (res.roots <= 200.0))
    assert max(abs(r - e) for r, e in zip(res.roots, exact)) < 1e-9


def test_roots_bracket_sign_change(cos_lattice):
    spec, sample = cos_lattice
    table = make_weight_table(spec)
    tol = 1e-8
    res = count_roots(sample, Interval(30.0, 60.0), step=0.11,
                      refine_tol=tol, keep_roots=True)
    lip = math.fsum(np.abs(sample.values) * table.weights * table.logs)
    for r in res.roots:
        lo = eval_polynomial(sample, table, r - tol)
        hi = eval_polynomial(sample, table, r + tol)
        assert lo * hi < 0  # sign change inside [r - tol, r + tol]
        assert abs(eval_polynomial(sample, table, float(r))) <= lip * tol


def test_constant_sample_no_roots():
    spec = make_spec(5.9, 0, 0.5, "cosine")
    sample = _fixed_sample(spec, [1.0, 0.0, 0.0, 0.0, 0.0])
    res = count_roots(sample, Interval(10.0, 20.0), step=0.1, keep_roots=True)
    assert res.count == 0 and len(res.roots) == 0


def test_grid_zero_tie_breaks_left():
    # sine two-term model: S = sin(t log 2)/sqrt(2) vanishes exactly at the
    # grid point t = 0; the -, 0, + pattern counts once, at the zero itself
    spec = make_spec(2.5, 0, 0.5, "sine")
    sample = _fixed_sample(spec, [5.0, 1.0])
    res = count_roots(sample, Interval(-1.0, 1.0), step=0.25, keep_roots=True)
    assert res.count == 1
    assert res.roots[0] == 0.0


@pytest.mark.parametrize("chunk", range(1, 10))
def test_grid_zero_tie_breaks_left_across_chunks(monkeypatch, chunk):
    # the zero at grid point 4 of 9 is a chunk's last point (chunk 1 or 5),
    # its first (4), or inside one; the -, 0, + pattern counts once
    monkeypatch.setattr(dirichlet_eval, "_CHUNK_PANELS", chunk)
    spec = make_spec(2.5, 0, 0.5, "sine")
    sample = _fixed_sample(spec, [5.0, 1.0])
    res = count_roots(sample, Interval(-1.0, 1.0), step=0.25, keep_roots=True)
    assert res.count == 1
    assert res.roots.tolist() == [0.0]


def _events(values, zero_tol):
    _, zero, flips = _sign_events(values, zero_tol)
    return sorted([(int(i), True) for i in np.flatnonzero(zero)]
                  + [(int(i), False) for i in np.flatnonzero(flips)],
                  key=lambda e: e[0] + (not e[1]))


def test_sign_pattern_adjacent_and_end_zeros():
    # grid zeros at both ends and two adjacent ones in the middle; a flip
    # counts only between adjacent non-zero values
    values = np.array([0.0, 2.0, -1.0, 1e-20, -0.0, 3.0, 1.5, -2.0, -2.5,
                       1e-20, 4.0, 0.0])
    assert _sign_events(values, 1e-12)[0] == 7
    assert _events(values, 1e-12) == [(0, True), (1, False), (3, True), (4, True),
                                      (6, False), (9, True), (11, True)]
    assert _events(values, 1e-12) == sign_pattern_events(values, 1e-12)
    rng = np.random.default_rng(4)
    for _ in range(300):
        values = rng.choice([-1.5, -0.5, 0.0, 0.5, 1.5], size=rng.integers(1, 16))
        expected = sign_pattern_events(values, 1.0)
        assert _events(values, 1.0) == expected
        assert _sign_events(values, 1.0)[0] == len(expected)
    # rows of one array, each with its own tolerance, count as they do alone
    rows = rng.choice([-1.5, -0.5, 0.0, 0.5, 1.5], size=(40, 15))
    tols = rng.choice([0.25, 1.0], size=40)
    counts = _sign_events(rows, tols[:, None])[0]
    assert counts.tolist() == [len(sign_pattern_events(r, t)) for r, t in zip(rows, tols)]


def test_chunk_carry_matches_sign_pattern_oracle(monkeypatch):
    # _count_rows on fixed grid values, split by the chunk rule at every
    # chunk size: grid zeros on a chunk's last or first point, the -, 0, +
    # pattern and adjacent zeros across a boundary give the oracle's events
    # on the whole row, each once, at their grid indices
    table = make_weight_table(make_spec(2.5, 0, 0.5, "cosine"))
    x = np.array([[1.0, 0.0]])  # L1 mass 1: grid zeros below 1e-13

    def kernel_on(values):  # oscillating_sums on the grid 0, 1, ..., values.size - 1
        return lambda logs, coeffs, start, step, count: iter(
            [(values[None, int(start):int(start) + count],) * 2])

    rng = np.random.default_rng(8)
    patterns = [np.array([1.0, -1.0, 0.0, 1.0, 2.0, -3.0, 0.0, 0.0, 5.0, -1.0])]
    patterns += [rng.choice([-1.0, 0.0, 1.0], size=rng.integers(2, 14)) for _ in range(60)]
    for values in patterns:
        expected = sign_pattern_events(values, 1e-13)
        monkeypatch.setattr(monte_carlo, "oscillating_sums", kernel_on(values))
        iv = Interval(0.0, values.size - 1.0)
        for chunk in range(1, values.size + 1):
            monkeypatch.setattr(dirichlet_eval, "_CHUNK_PANELS", chunk)
            events, total = [], 0
            for _, first, _, counts, zero, flips in monte_carlo._count_rows(table, x, iv, 1.0):
                total += int(counts[0])
                events += [(first + int(i), True) for i in np.flatnonzero(zero[0])]
                events += [(first + int(i), False) for i in np.flatnonzero(flips[0])]
            assert sorted(events, key=lambda e: e[0] + (not e[1])) == expected
            assert total == len(expected)


@pytest.mark.parametrize("chunk", [7, 500])
def test_chunked_counts_match_one_chunk(monkeypatch, chunk):
    # about 1,560 grid points at T = 200: counts, bisected roots and
    # run_trials' per-trial counts do not depend on where chunks end
    spec = make_spec(200.0)
    iv = experiment_interval(spec)
    samples = [sample_coefficients(spec, 9, i) for i in range(6)]
    whole = [count_roots(sample, iv, keep_roots=True) for sample in samples]
    trials = run_trials(spec, iv, trials=12, master_seed=9).per_trial_counts
    assert iv.length / whole[0].grid_step > 3 * chunk
    monkeypatch.setattr(dirichlet_eval, "_CHUNK_PANELS", chunk)
    for sample, one in zip(samples, whole):
        res = count_roots(sample, iv, keep_roots=True)
        assert (res.count, res.grid_step) == (one.count, one.grid_step)
        assert np.array_equal(res.roots, one.roots)
    assert np.array_equal(run_trials(spec, iv, trials=12, master_seed=9).per_trial_counts,
                          trials)


def test_near_grid_zero_still_counts_once(cos_lattice):
    spec, sample = cos_lattice
    root = (math.pi / 2 + 50 * math.pi) / math.log(2.0)
    # grid lands within rounding of the root; either the exact-zero or the
    # sign-change path must count it exactly once
    res = count_roots(sample, Interval(root - 1.0, root + 1.0), step=0.25,
                      keep_roots=True)
    assert res.count == 1
    assert res.roots[0] == pytest.approx(root, abs=1e-9)


def test_degenerate_and_bad_args():
    sine = make_spec(1.5, 0, 0.5, "sine")
    s = sample_coefficients(sine, 0, 0)
    with pytest.raises(ValueError):
        count_roots(s, Interval(1.5, 3.0))
    for degenerate in (sine, make_spec(1.5, 1, 0.5, "cosine")):
        with pytest.raises(ValueError):
            run_trials(degenerate, Interval(1.5, 3.0), trials=4, master_seed=0)
    spec = make_spec(10.0)
    smp = sample_coefficients(spec, 0, 0)
    with pytest.raises(ValueError):
        count_roots(smp, Interval(10.0, 20.0), step=-1.0)
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="refine_tol"):
            count_roots(smp, Interval(10.0, 20.0), refine_tol=tol, keep_roots=True)
    with pytest.raises(ValueError):
        run_trials(spec, Interval(10.0, 20.0), trials=1, master_seed=0)


def test_step_warning_flag():
    spec = make_spec(200.0)
    sample = sample_coefficients(spec, 1, 0)
    iv = Interval(200.0, 210.0)
    coarse = count_roots(sample, iv, step=mean_zero_spacing(spec))
    fine = count_roots(sample, iv)
    assert coarse.step_warning and not fine.step_warning


def test_count_monotone_under_nested_refinement():
    # halving an interval-aligned step gives a nested grid: counts never drop
    spec = make_spec(200.0)
    iv = experiment_interval(spec)
    m = math.ceil(iv.length / default_grid_step(spec))
    s1 = iv.length / m
    base, gained = 0, 0
    for i in range(30):
        sample = sample_coefficients(spec, 97, i)
        c1 = count_roots(sample, iv, step=s1).count
        c2 = count_roots(sample, iv, step=s1 / 2).count
        assert c2 >= c1
        base += c1
        gained += c2 - c1
    # near-tangent pairs below spacing/8 exist but are a sub-1% effect
    assert gained <= 0.01 * base


def test_grid_signs_match_direct_evaluation():
    # the counts rest on the grid signs: every one of them, on 20 trials,
    # agrees with the fsum evaluator at the same grid point
    spec = make_spec(200.0)
    table = make_weight_table(spec)
    iv = experiment_interval(spec)
    for i in range(20):
        sample = sample_coefficients(spec, 7, i)
        step, values = _grid_values(table, sample.values[None, :], iv, default_grid_step(spec))
        grid = iv.lo + step * np.arange(values.shape[1])
        direct = [eval_polynomial(sample, table, t) for t in grid]
        assert np.array_equal(np.sign(values[0]), np.sign(direct))


def test_run_trials_deterministic_and_thread_invariant():
    spec = make_spec(120.0)
    iv = experiment_interval(spec)
    a = run_trials(spec, iv, trials=12, master_seed=5, threads=1)
    b = run_trials(spec, iv, trials=12, master_seed=5, threads=1)
    c = run_trials(spec, iv, trials=12, master_seed=5, threads=4)
    assert np.array_equal(a.per_trial_counts, b.per_trial_counts)
    assert np.array_equal(a.per_trial_counts, c.per_trial_counts)


def test_run_trials_blocks_run_in_this_process(monkeypatch):
    # 37 trials are 5 blocks; worker threads count them in this process,
    # so every _count_rows call is recorded here, and 8 threads against 5
    # blocks (the pool is capped at the block count) count the same, also
    # when the interpreter switches threads every microsecond
    pids = []

    def recorded(*args):
        pids.append(os.getpid())
        return count_rows(*args)

    count_rows = monte_carlo._count_rows
    monkeypatch.setattr(monte_carlo, "_count_rows", recorded)
    spec = make_spec(120.0)
    iv = experiment_interval(spec)
    three = run_trials(spec, iv, trials=37, master_seed=3, threads=3)
    assert pids == [os.getpid()] * 5
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        others = [run_trials(spec, iv, trials=37, master_seed=3, threads=threads)
                  for threads in (1, 8)]
    finally:
        sys.setswitchinterval(interval)
    for other in others:
        assert np.array_equal(other.per_trial_counts, three.per_trial_counts)


def test_run_trials_blocks_do_not_depend_on_trial_count(monkeypatch):
    # trials run in fixed blocks of 8 indices with a short last block padded
    # by zero rows; at 8x the default step the kernel's tile width depends on
    # the row count, so an unpadded block would round differently
    shapes = []

    def recorded(logs, coeffs, *args):
        shapes.append(coeffs.shape)
        return oscillating_sums(logs, coeffs, *args)

    monkeypatch.setattr(monte_carlo, "oscillating_sums", recorded)
    spec = make_spec(200.0)
    table = make_weight_table(spec)
    iv = experiment_interval(spec)
    rows = np.array([sample_coefficients(spec, 13, i).values for i in range(32, 40)])
    padded = np.where(np.arange(8)[:, None] < 5, rows, 0.0)
    for step in (default_grid_step(spec), 8.0 * default_grid_step(spec)):
        shapes.clear()
        short = run_trials(spec, iv, trials=37, master_seed=13, step=step)
        full = run_trials(spec, iv, trials=64, master_seed=13, step=step)
        assert np.array_equal(short.per_trial_counts, full.per_trial_counts[:37])
        assert shapes == [(8, 200)] * 13
        assert np.array_equal(_grid_values(table, padded, iv, step)[1][:5],
                              _grid_values(table, rows, iv, step)[1][:5])


@pytest.mark.parametrize("T", [200.0, 500.0])
def test_run_trials_counts_match_count_roots(T):
    spec = make_spec(T)
    iv = experiment_interval(spec)
    agg = run_trials(spec, iv, trials=40, master_seed=21)
    direct = [count_roots(sample_coefficients(spec, 21, i), iv).count
              for i in range(40)]
    assert agg.per_trial_counts.tolist() == direct


def test_run_trials_aggregate_consistency():
    spec = make_spec(150.0)
    agg = run_trials(spec, experiment_interval(spec), trials=25, master_seed=9)
    counts = agg.per_trial_counts
    assert agg.trials == 25 and len(counts) == 25
    assert agg.mean == pytest.approx(float(np.mean(counts)))
    assert agg.stderr == pytest.approx(float(np.std(counts, ddof=1) / math.sqrt(25)))
    assert agg.min <= agg.mean <= agg.max
    assert agg.min == counts.min() and agg.max == counts.max()


def test_run_trials_matches_expected_count(ek_cache):
    # the EK integral is the exact expectation for Gaussian coefficients
    spec = make_spec(200.0)
    iv = experiment_interval(spec)
    agg = run_trials(spec, iv, trials=120, master_seed=42)
    q = ek_cache.get(200.0)
    assert abs(agg.mean - q.value) <= 4.0 * agg.stderr


def test_sigma_sweep_shape():
    rows = sigma_sweep(60.0, [0.0, 0.5, 1.0], trials=4, seed=2)
    assert [s for s, _ in rows] == [0.0, 0.5, 1.0]
    for _, agg in rows:
        assert agg.trials == 4
        assert agg.min <= agg.mean <= agg.max


def test_sigma_half_reproduces_main_regime():
    # mean/(T log T) tracks the 1/(pi sqrt 3) = 0.1838 regime from below:
    # the second-order deficit is (1 + gamma)/(2 pi sqrt 3 log T), ~10% here
    T = 500.0
    [(_, agg)] = sigma_sweep(T, [0.5], trials=80, seed=11)
    norm = agg.mean / (T * math.log(T))
    coeff = 1.0 / (math.pi * math.sqrt(3.0))
    assert 0.75 * coeff < norm < 1.02 * coeff
