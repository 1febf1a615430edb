import math

import mpmath as mp
import pytest

from dirichlet_roots import (
    expected_count_deterministic,
    experiment_interval,
    make_spec,
    model_vs_zeta_ratio,
    predict_expected_zeros,
    stieltjes_constant,
    stieltjes_sum_check,
    stieltjes_table,
    zeta_zero_count,
)
from dirichlet_roots.asymptotics import MAX_STIELTJES_INDEX

from oracles import em_stieltjes

TWO_OVER_SQRT3 = 2.0 / math.sqrt(3.0)


def test_stieltjes_table_vs_euler_maclaurin_oracle():
    for m in range(MAX_STIELTJES_INDEX + 1):
        oracle = float(em_stieltjes(m, cutoff=20_000, bernoulli_terms=6))
        assert stieltjes_constant(m) == pytest.approx(oracle, abs=1e-13), m


def test_gamma0_is_euler_mascheroni():
    assert abs(stieltjes_constant(0) - float(mp.euler)) < 1e-13


def test_stieltjes_examples():
    assert stieltjes_constant(0) == pytest.approx(0.5772156649, abs=1e-10)
    assert stieltjes_constant(1) == pytest.approx(-0.0728158454, abs=1e-10)
    assert stieltjes_constant(2) == pytest.approx(-0.0096903632, abs=1e-10)


def test_stieltjes_range():
    assert len(stieltjes_table()) == MAX_STIELTJES_INDEX + 1
    with pytest.raises(ValueError):
        stieltjes_constant(MAX_STIELTJES_INDEX + 1)
    with pytest.raises(ValueError):
        stieltjes_constant(-1)


def test_predict_k0_matches_direct_arithmetic():
    # the second term carries the n = 1 constant: -(gamma_0 + 1) for cosine
    # (the default part), -(gamma_0 - 1) for sine, times T / (2 pi sqrt 3)
    T = 1000.0
    L = math.log(T)
    main = T * L / (math.pi * math.sqrt(3.0))
    for part, dc, second_term, total in (("cosine", 1.0, -144.9274, 1124.5543),
                                         ("sine", -1.0, 38.8489, 1308.3306)):
        pred = predict_expected_zeros(T, 0, part)
        second = -(stieltjes_constant(0) + dc) * T / (2.0 * math.pi * math.sqrt(3.0))
        assert pred.main_term == main  # bit-level k=0 specialization
        assert pred.second_term == pytest.approx(second, rel=1e-15)
        assert pred.total == pred.main_term + pred.second_term
        assert pred.main_term == pytest.approx(1269.4817, abs=1e-3)
        assert pred.second_term == pytest.approx(second_term, abs=1e-3)
        assert pred.total == pytest.approx(total, abs=1e-3)
        assert pred.error_scale == pytest.approx(T / L)
    assert predict_expected_zeros(T, 0) == predict_expected_zeros(T, 0, "cosine")


@pytest.mark.parametrize("part", ["cosine", "sine"])
def test_k0_remainder_does_not_drift(part):
    # (EK - prediction) / (T / log T) stays put from T = 500 to 4000 (0.01 for
    # cosine, 0.002 for sine); without the n = 1 constant it moves by
    # 0.0919 ln 8 = 0.19, away from 0 for both parts
    remainders = []
    for T in (500.0, 4000.0):
        spec = make_spec(T, 0, 0.5, part)
        ek = expected_count_deterministic(spec, experiment_interval(spec)).value
        remainders.append((ek - predict_expected_zeros(T, 0, part).total) / (T / math.log(T)))
    assert abs(remainders[1] - remainders[0]) < 0.05
    assert predict_expected_zeros(500.0, 1, part) == predict_expected_zeros(500.0, 1)  # w_1 = 0


def test_predict_k1_example():
    pred = predict_expected_zeros(1000.0, 1)
    main = math.sqrt(0.6) / math.pi * 1000.0 * math.log(1000.0)
    assert pred.main_term == pytest.approx(main, rel=1e-15)
    assert pred.main_term == pytest.approx(1703.1884, abs=1e-3)
    assert pred.error_scale == pytest.approx(1000.0 / math.log(1000.0) ** 3)


def test_main_coefficient_monotone_in_k():
    # second term needs gamma_{2k}, so predictions cover k <= 8
    pred_coeffs = [predict_expected_zeros(100.0, k).main_term
                   / (100.0 * math.log(100.0)) for k in range(9)]
    for k, c in enumerate(pred_coeffs):
        assert c == pytest.approx(math.sqrt((2 * k + 1) / (2 * k + 3)) / math.pi,
                                  rel=1e-13)
    coeffs = [math.sqrt((2 * k + 1) / (2 * k + 3)) / math.pi for k in range(60)]
    seq = pred_coeffs + coeffs[9:]
    assert all(b > a for a, b in zip(seq, seq[1:]))
    assert seq[-1] < 1.0 / math.pi


def test_predict_rejects():
    with pytest.raises(ValueError):
        predict_expected_zeros(1.5, 0)
    with pytest.raises(ValueError):
        predict_expected_zeros(100.0, -1)


def test_zeta_zero_count_values():
    assert zeta_zero_count(2.0 * math.pi * math.e) == pytest.approx(0.0, abs=1e-12)
    assert zeta_zero_count(2.0 * math.pi) == pytest.approx(-1.0, rel=1e-15)
    x = 1e4 / (2.0 * math.pi)
    assert zeta_zero_count(1e4) == pytest.approx(x * math.log(x) - x, rel=1e-15)
    assert zeta_zero_count(1e4) == pytest.approx(10142.09, abs=0.01)
    with pytest.raises(ValueError):
        zeta_zero_count(1.0)


def test_ratio_linear_in_ek():
    base = model_vs_zeta_ratio(500.0, 100.0)
    assert model_vs_zeta_ratio(500.0, 300.0) == pytest.approx(3.0 * base, rel=1e-14)


def test_ratio_with_predicted_totals_converges():
    # relative distance to 2/sqrt(3) shrinks as T grows and is ~0.35/log T
    errs = []
    for T in (1e4, 1e5, 1e6):
        ratio = model_vs_zeta_ratio(T, predict_expected_zeros(T, 0).total)
        errs.append(abs(ratio - TWO_OVER_SQRT3) / TWO_OVER_SQRT3)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.03  # 2.52% measured at T = 1e6 (1.22% without the n = 1 constant)
    with pytest.raises(ValueError):
        model_vs_zeta_ratio(50.0, 10.0)


def test_stieltjes_sum_check_residuals():
    for m in (0, 1, 2):
        for T in (1e3, 1e4):
            resid = stieltjes_sum_check(T, m)
            assert abs(resid) <= 10.0 * math.log(T) ** m / T
        shrink = abs(stieltjes_sum_check(1e3, m)) / abs(stieltjes_sum_check(1e4, m))
        assert 5.0 <= shrink <= 20.0


def test_stieltjes_sum_check_trend():
    # residual envelope decreases monotonically as T doubles five times
    vals = [abs(stieltjes_sum_check(1000.0 * 2**j, 0)) for j in range(6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
