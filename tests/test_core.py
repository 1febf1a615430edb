import dataclasses

import numpy as np
import pytest

from dirichlet_roots import (Interval, Part, PolynomialSpec, count_roots,
                             expected_count_deterministic, make_spec, mix_seed, run_trials,
                             sample_coefficients)
from dirichlet_roots.core import experiment_interval


def test_make_spec_valid():
    spec = make_spec(1000.0, 0, 0.5, "cosine")
    assert spec.T == 1000.0 and spec.k == 0 and spec.sigma == 0.5
    assert spec.part is Part.COSINE
    assert not spec.degenerate
    assert spec.n_terms == 1000


def test_make_spec_degenerate_sine():
    # sine part with T < 2 keeps only n = 1 and sin(t log 1) = 0
    spec = make_spec(1.5, 0, 0.5, "sine")
    assert spec.degenerate
    assert not make_spec(2.5, 0, 0.5, "sine").degenerate
    assert not make_spec(1.5, 0, 0.5, "cosine").degenerate


def test_make_spec_degenerate_weightless_term():
    # with T < 2 the only term is n = 1, whose weight (log 1)^k is 0 for k >= 1
    assert make_spec(1.5, 1, 0.5, "cosine").degenerate
    assert make_spec(1.9, 3, 0.0, "cosine").degenerate
    assert not make_spec(2.0, 1, 0.5, "cosine").degenerate


def test_directly_built_spec_derives_its_degeneracy():
    # the spec stores only (T, k, sigma, part): a directly built spec equals
    # make_spec's and is flagged degenerate, so every estimator refuses it
    assert [f.name for f in dataclasses.fields(PolynomialSpec)] == ["T", "k", "sigma", "part"]
    assert isinstance(PolynomialSpec.degenerate, property)
    spec = PolynomialSpec(1.5, 1, 0.5, Part.COSINE)
    assert spec == make_spec(1.5, 1) and spec.degenerate
    with pytest.raises(ValueError, match="identically-zero"):
        expected_count_deterministic(spec, experiment_interval(spec))
    with pytest.raises(ValueError, match="cannot count roots"):
        run_trials(spec, experiment_interval(spec), trials=4, master_seed=0)
    with pytest.raises(ValueError, match="cannot count roots"):
        count_roots(sample_coefficients(spec, 0, 0), experiment_interval(spec))


_BAD_SPECS = [
    dict(T=0.5), dict(T=1.0), dict(T=-3.0),
    dict(T=10.0, k=-1), dict(T=10.0, sigma=-0.1),
    dict(T=float("nan")), dict(T=10.0, sigma=float("nan")), dict(T=10.0, sigma=float("inf")),
    dict(T=10.0, k=1.5), dict(T=10.0, part="tangent"),
    dict(T=float("inf")), dict(T=10.0, k=float("inf")), dict(T=10.0, k=float("nan")),
    dict(T=10.0, k=10**400),  # no float holds it: once an OverflowError
]


# each case through make_spec and through the dataclass itself: a directly
# built spec is checked as make_spec's is (the make_spec ids stay bad<i>)
@pytest.mark.parametrize("build, bad", [
    pytest.param(build, bad, id=f"{prefix}bad{i}")
    for prefix, build in (("", make_spec), ("direct-", PolynomialSpec))
    for i, bad in enumerate(_BAD_SPECS)
])
def test_make_spec_rejects(build, bad):
    with pytest.raises(ValueError):
        build(**{"k": 0, "sigma": 0.5, "part": "cosine", **bad})


def test_string_part_builds_the_enum():
    # Part is a str Enum, so a plain string once built a spec that compared
    # equal to make_spec's while every `part is Part...` test failed on it:
    # EK on the cosine string gave the sine value, and MC counted cosine for
    # the sine string
    spec = PolynomialSpec(500.0, 0, 0.5, "cosine")
    assert spec.part is Part.COSINE
    assert expected_count_deterministic(spec, experiment_interval(spec)).value == 510.74800319645936
    sine = PolynomialSpec(100.0, 0, 0.5, "sine")
    assert sine.part is Part.SINE
    by_name, by_enum = (run_trials(s, Interval(100.0, 200.0), 8, 1).per_trial_counts
                        for s in (sine, make_spec(100.0, 0, 0.5, Part.SINE)))
    assert np.array_equal(by_name, by_enum)


def test_interval_validation():
    inf, nan = float("inf"), float("nan")
    for lo, hi in [(2.0, 2.0), (3.0, 2.0), (nan, 2.0), (50.0, inf), (-inf, 2.0), (-inf, inf)]:
        with pytest.raises(ValueError):
            Interval(lo, hi)
    iv = experiment_interval(make_spec(250.0))
    assert (iv.lo, iv.hi) == (250.0, 500.0)


def test_floor_length():
    assert sample_coefficients(make_spec(10.9), 1, 0).values.shape == (10,)
    assert sample_coefficients(make_spec(10.0), 1, 0).values.shape == (10,)


def test_sampling_deterministic():
    spec = make_spec(100.0)
    a = sample_coefficients(spec, 1234, 7)
    b = sample_coefficients(spec, 1234, 7)
    assert np.array_equal(a.values, b.values)


def test_sampling_streams_distinct():
    spec = make_spec(100.0)
    a = sample_coefficients(spec, 1234, 0)
    b = sample_coefficients(spec, 1234, 1)
    c = sample_coefficients(spec, 1235, 0)
    assert not np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_mix_seed_counter_based():
    seen = {mix_seed(99, i) for i in range(10_000)}
    assert len(seen) == 10_000
    assert all(0 <= s < 2**64 for s in seen)
    with pytest.raises(ValueError):
        mix_seed(99, -1)


def test_pooled_moments():
    # law of large numbers: 1e6 pooled draws
    spec = make_spec(1000.0)
    pool = np.concatenate([sample_coefficients(spec, 5, i).values
                           for i in range(1000)])
    assert pool.shape == (1_000_000,)
    assert abs(pool.mean()) < 0.005
    assert abs(pool.var() - 1.0) < 0.01


def test_value_types_immutable():
    spec = make_spec(10.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.T = 20.0
    sample = sample_coefficients(spec, 0, 0)
    with pytest.raises(ValueError):
        sample.values[0] = 3.0
