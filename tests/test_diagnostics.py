import json
import math

import numpy as np
import pytest

from dirichlet_roots import (
    Interval,
    l2_mean_value_check,
    log_moment_sum,
    make_spec,
    proof_step_integrals,
    u_sup_monitor,
)
from dirichlet_roots import diagnostics
from dirichlet_roots.cli import main
from dirichlet_roots.core import NumericalError, experiment_interval
from dirichlet_roots.dirichlet_eval import make_weight_table
from dirichlet_roots.kac_rice import NODES_PER_PANEL, _breakdown_streams

from oracles import l2_pair_sum

GAMMA = 0.5772156649015329


def test_proof_steps_validation():
    for bad in (make_spec(100.0, 1, 0.5), make_spec(100.0, 0, 0.25),
                make_spec(100.0, 0, 0.5, "sine")):
        with pytest.raises(ValueError):
            proof_step_integrals(bad)
    # no cost budget in T: the node streams run in bounded chunks
    reports = proof_step_integrals(make_spec(9000.0, 0, 0.5))
    assert len(reports) == 9
    assert all(math.isfinite(r.integral_value) for r in reports)
    assert reports[0].observed_ratio == pytest.approx(1.0, rel=0.01)


def test_proof_steps_well_posed():
    reports = proof_step_integrals(make_spec(500.0, 0, 0.5))
    assert [r.step_id for r in reports] == list(range(1, 10))
    for r in reports:
        assert r.envelope_scale > 0
        assert math.isfinite(r.integral_value)
        assert r.observed_ratio >= 0
    # steps 5, 7, 9 integrate even powers: strictly positive integrals
    assert reports[4].integral_value > 0
    assert reports[6].integral_value > 0
    assert reports[8].integral_value > 0


def test_step1_reproduces_second_order_term():
    T = 2000.0
    reports = proof_step_integrals(make_spec(T, 0, 0.5))
    step1 = reports[0]
    target = -GAMMA * T / math.log(T)
    assert step1.envelope_scale == pytest.approx(abs(target), rel=1e-12)
    assert abs(step1.integral_value - target) <= 0.10 * abs(target)


def test_step_envelopes_stable_between_scales():
    r1 = {r.step_id: r.observed_ratio for r in proof_step_integrals(make_spec(1000.0, 0, 0.5))}
    r4 = {r.step_id: r.observed_ratio for r in proof_step_integrals(make_spec(4000.0, 0, 0.5))}
    for step_id in range(2, 10):
        assert r4[step_id] / r1[step_id] < 8.0
    # step 5 example: common constant bound at both scales
    assert r1[5] < 10.0 and r4[5] < 10.0


def test_l2_single_constant_coefficient():
    lhs, main, budget = l2_mean_value_check([1.0], 37.5)
    assert lhs == pytest.approx(37.5, rel=1e-13)
    assert main == 37.5
    assert budget == 1.0


def test_l2_two_ones_closed_form():
    lhs, main, budget = l2_mean_value_check([1.0, 1.0], 100.0)
    closed = 200.0 + 2.0 * math.sin(100.0 * math.log(2.0)) / math.log(2.0)
    assert lhs == pytest.approx(closed, rel=1e-12)
    assert main == 200.0 and budget == 3.0
    assert abs(lhs - main) <= budget


def test_l2_quadrature_vs_pair_sum_oracle():
    rng = np.random.default_rng(7)
    a = rng.normal(size=50) + 1j * rng.normal(size=50)
    lhs, main, budget = l2_mean_value_check(a, 200.0)
    assert lhs == pytest.approx(l2_pair_sum(a, 200.0), rel=1e-10)
    assert main == pytest.approx(200.0 * float(np.sum(np.abs(a) ** 2)), rel=1e-12)


def test_l2_log_weight_families():
    n = np.arange(1, 501)
    for k in (0, 1):
        a = np.log(n) ** k / n
        lhs, main, budget = l2_mean_value_check(a, 1000.0)
        assert abs(lhs - main) <= 5.0 * budget  # realized constant ~0.15


def test_proof_step_pieces_match_stacked_formula():
    # the pieces fill one array in place, with the stacked formula's
    # association in every product, so the steps stay bitwise equal
    spec = make_spec(1000.0, 0, 0.5)
    _, br = next(_breakdown_streams(spec, make_weight_table(spec), 1000.0, 0.05, 4000, (0.3, 0.8)))
    x, y, z = br["x"], br["y"], br["z"]
    stacked = np.vstack([x, y, x * y, z, x * x, np.abs(y) * x * x, x**4,
                         x * x * y * y, y * y * x**4])
    assert diagnostics._pieces(br).tobytes() == stacked.tobytes()


@pytest.mark.parametrize("T, n", [(1000.0, 500), (137.0, 2), (10.0, 1), (3.5, 40)])
def test_l2_half_period_panels(monkeypatch, T, n):
    # EK's rule against the integrand's own bandwidth: panels pi / log n wide
    # (a half period of cos(t log n)) with NODES_PER_PANEL nodes; real
    # coefficients spread one kernel row, complex ones two
    layouts, shapes = [], []

    def gauss_legendre(integrand, interval, n_panels, nodes):
        layouts.append((n_panels, nodes))
        return real_gauss_legendre(integrand, interval, n_panels, nodes)

    def sums(logs, coeffs, *grid):
        shapes.append(np.shape(coeffs))
        return real_sums(logs, coeffs, *grid)

    real_gauss_legendre, real_sums = diagnostics._gauss_legendre, diagnostics.oscillating_sums
    monkeypatch.setattr(diagnostics, "_gauss_legendre", gauss_legendre)
    monkeypatch.setattr(diagnostics, "oscillating_sums", sums)
    rng = np.random.default_rng(n)
    real = rng.normal(size=n)
    for a in (real, real + 0j, real + 1j * rng.normal(size=n)):
        lhs, _, _ = l2_mean_value_check(a, T)
        assert lhs == pytest.approx(l2_pair_sum(a, T), rel=1e-12)
    panels = max(1, math.ceil(T / (math.pi / math.log(max(n, 2)))))
    assert layouts == [(panels, NODES_PER_PANEL)] * 3
    assert shapes == [(1, n), (1, n), (2, n)]


@pytest.mark.parametrize("T", ["137", "1000"])
def test_cli_l2_families_match_pair_sum(capsys, T):
    assert main(["diagnostics", "--suite", "l2", "--T", T]) == 0
    n = np.arange(1, 501)
    families = {"ones": np.ones(2), "1_over_n": 1.0 / n, "logn_over_n": np.log(n) / n}
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["family"] for r in rows] == list(families)
    for row in rows:
        ref = l2_pair_sum(families[row["family"]], float(T))
        assert row["lhs"] == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("bad", [[math.nan], [math.inf, 1.0], [1.0, complex(0, math.nan)],
                                 np.ones((2, 3)), np.ones((1, 1)), 2.0])
def test_l2_rejects_bad_coefficients(bad):
    # non-finite values once came back as NaN or infinite lhs, and a 2-D
    # array raised an unclassified TypeError
    with pytest.raises(ValueError, match="finite 1-D array"):
        l2_mean_value_check(bad, 10.0)


def test_l2_rejects():
    with pytest.raises(ValueError):
        l2_mean_value_check([], 10.0)
    # no cost budget in the number of coefficients
    a = 1.0 / np.arange(1, 2001)
    lhs, main, budget = l2_mean_value_check(a, 1000.0)
    assert abs(lhs - main) <= 5.0 * budget
    for T in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="T must be"):
            l2_mean_value_check([1.0], T)


def test_l2_unresolvable_T_is_a_numerical_error(capsys):
    # at T = 1e300 the 2.2e299 half-period panels would put neighbouring
    # nodes near T far within 4 ulp of each other (the chunk loop over them
    # once ran without end): a NumericalError naming T and the panel
    # count, exit 4 from the CLI, before any kernel call
    with pytest.raises(NumericalError, match=r"2\.206e\+299 panels on \[0\.0, 1e\+300\]"):
        l2_mean_value_check([1, 2], 1e300)
    assert main(["diagnostics", "--suite", "l2", "--T", "1e300"]) == 4
    assert "2.206e+299 panels on [0.0, 1e+300]" in capsys.readouterr().err


def test_u_sup_single_term_zero():
    spec = make_spec(1.5, 0, 0.5)
    rep = u_sup_monitor(spec, Interval(1.5, 3.0), gridpoints=1000)
    assert rep.sup_u == 0.0 and rep.sup_u1 == 0.0 and rep.sup_u2 == 0.0


def test_u_sup_triangle_caps():
    spec = make_spec(300.0, 0, 0.5)
    rep = u_sup_monitor(spec, experiment_interval(spec), gridpoints=2000)
    # oscillatory u excludes the n=1 DC weight; its cap drops by that weight
    assert rep.sup_u <= log_moment_sum(300.0, 0, 0.5) - 1.0 + 1e-12
    assert rep.sup_u1 <= log_moment_sum(300.0, 1, 0.5) + 1e-12
    assert rep.sup_u2 <= log_moment_sum(300.0, 2, 0.5) + 1e-12
    assert all(r > 0 for r in rep.log_power_ratios)


def test_u_sup_grid_stability():
    spec = make_spec(1000.0, 0, 0.5)
    iv = experiment_interval(spec)
    a = u_sup_monitor(spec, iv, gridpoints=10_000)
    b = u_sup_monitor(spec, iv, gridpoints=20_000)
    for x, y in ((a.sup_u, b.sup_u), (a.sup_u1, b.sup_u1), (a.sup_u2, b.sup_u2)):
        assert 0.5 < x / y < 2.0


def test_u_sup_rejects_small_grid():
    spec = make_spec(100.0)
    with pytest.raises(ValueError):
        u_sup_monitor(spec, experiment_interval(spec), gridpoints=10)
