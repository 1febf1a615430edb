import dataclasses

import numpy as np
import pytest

from dirichlet_roots import Interval, Part, make_spec, mix_seed, sample_coefficients
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


@pytest.mark.parametrize("bad", [
    dict(T=0.5), dict(T=1.0), dict(T=-3.0),
    dict(T=10.0, k=-1), dict(T=10.0, sigma=-0.1),
])
def test_make_spec_rejects(bad):
    with pytest.raises(ValueError):
        make_spec(**{"k": 0, "sigma": 0.5, "part": "cosine", **bad})


def test_make_spec_rejects_unknown_part():
    with pytest.raises(ValueError):
        make_spec(10.0, 0, 0.5, "tangent")


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(2.0, 2.0)
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
