"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The heavy Kac-Rice integrals are shared through the session-scoped
cache, so the whole suite stays inside its runtime budgets on one core.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from dirichlet_roots import (
    eval_polynomial,
    l2_mean_value_check,
    make_spec,
    make_weight_table,
    predict_expected_zeros,
    proof_step_integrals,
    run_trials,
    sample_coefficients,
    sigma_sweep,
    stieltjes_sum_check,
)
from dirichlet_roots.core import experiment_interval
from dirichlet_roots.dirichlet_eval import WeightTable
from dirichlet_roots.kac_rice import breakdown_at, breakdown_grid
from dirichlet_roots.monte_carlo import count_roots, default_grid_step

TWO_OVER_SQRT3 = 2.0 / math.sqrt(3.0)
SEED = 20260809


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_01_ek_vs_two_term_prediction(ek_cache):
    ts = (500.0, 1000.0, 2000.0, 4000.0)
    gaps, secs = [], 0.0
    for T in ts:
        q = ek_cache.get(T)
        secs += ek_cache.seconds(T)
        pred = predict_expected_zeros(T, 0)
        gaps.append(abs(q.value - pred.total) / (T * math.log(T)))
    bounds_ok = all(g <= 3.0 / math.log(T) ** 2 for g, T in zip(gaps, ts))
    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    detail = ("gaps " + ", ".join(f"{T:.0f}:{g:.5f}" for T, g in zip(ts, gaps))
              + f"; quadrature {secs:.0f}s")
    _report(1, "EK vs two-term prediction convergence",
            bounds_ok and decreasing and secs < 300.0, detail)


def test_criterion_02_mc_vs_ek(ek_cache):
    configs = [(200.0, 0, 0.5), (500.0, 0, 0.5), (200.0, 1, 0.5), (200.0, 0, 0.25)]
    t0 = time.perf_counter()
    pulls = []
    for T, k, sigma in configs:
        spec = make_spec(T, k, sigma, "cosine")
        agg = run_trials(spec, experiment_interval(spec), trials=400,
                         master_seed=SEED, threads=2)
        q = ek_cache.get(T, k, sigma)
        pulls.append(abs(agg.mean - q.value) / agg.stderr)
    elapsed = time.perf_counter() - t0
    detail = ("|z| " + ", ".join(f"{c}:{p:.2f}" for c, p in zip(configs, pulls))
              + f"; {elapsed:.0f}s")
    _report(2, "MC vs EK exactness (400 trials, 4 sigma)",
            all(p <= 4.0 for p in pulls) and elapsed < 600.0, detail)


def test_criterion_03_headline_constant(cli_env):
    cmd = [sys.executable, "-m", "dirichlet_roots.cli", "compare",
           "--T-list", "1000,2000,4000", "--trials", "4", "--seed", "9",
           "--method", "stratified", "--strata", "40000"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, env=cli_env)
    rows = json.loads(proc.stdout)["rows"]
    off = {r["T"]: abs(r["ratio"] - TWO_OVER_SQRT3) / TWO_OVER_SQRT3 for r in rows}
    ok = off[2000.0] <= 0.05 and off[4000.0] < off[1000.0]
    detail = ("rel offset from 2/sqrt3 " +
              ", ".join(f"{T:.0f}:{o:.4f}" for T, o in sorted(off.items())))
    _report(3, "cmd_compare ratio near 2/sqrt(3)", ok, detail)


def test_criterion_04_derivative_main_coefficient(ek_cache):
    offs = {}
    for k in (1, 2):
        q = ek_cache.get(2000.0, k)
        coef = q.value / (2000.0 * math.log(2000.0))
        target = math.sqrt((2 * k + 1) / (2 * k + 3)) / math.pi
        offs[k] = abs(coef - target) / target
    detail = ", ".join(f"k={k}: rel {o:.5f}" for k, o in offs.items())
    _report(4, "derivative-order main coefficient at T=2000",
            all(o <= 0.03 for o in offs.values()), detail)


def test_criterion_05_stieltjes_lemma():
    ok = True
    details = []
    for m in (0, 1, 2):
        r3 = stieltjes_sum_check(1e3, m)
        r4 = stieltjes_sum_check(1e4, m)
        env3 = 10.0 * math.log(1e3) ** m / 1e3
        env4 = 10.0 * math.log(1e4) ** m / 1e4
        shrink = abs(r3) / abs(r4)
        ok &= abs(r3) <= env3 and abs(r4) <= env4 and 5.0 <= shrink <= 20.0
        details.append(f"m={m}: shrink {shrink:.2f}")
    _report(5, "Stieltjes lemma residuals", ok, ", ".join(details))


def test_criterion_06_l2_mean_value():
    n = np.arange(1, 501)
    ok = True
    details = []
    for k in (0, 1):
        lhs, main, budget = l2_mean_value_check(np.log(n) ** k / n, 1000.0)
        c = abs(lhs - main) / budget
        ok &= abs(lhs - main) <= 10.0 * budget
        details.append(f"k={k}: C={c:.3f}")
    _report(6, "L2 mean-value identity (N=500, T=1000)", ok, ", ".join(details))


def test_criterion_07_proof_step_envelopes():
    gamma = 0.5772156649015329
    step1 = proof_step_integrals(make_spec(2000.0, 0, 0.5))[0]
    target = -gamma * 2000.0 / math.log(2000.0)
    step1_ok = abs(step1.integral_value - target) <= 0.10 * abs(target)
    r1 = {r.step_id: r.observed_ratio
          for r in proof_step_integrals(make_spec(1000.0, 0, 0.5))}
    r4 = {r.step_id: r.observed_ratio
          for r in proof_step_integrals(make_spec(4000.0, 0, 0.5))}
    growth = {s: r4[s] / r1[s] for s in range(2, 10)}
    ok = step1_ok and all(g < 8.0 for g in growth.values())
    detail = (f"step1 {step1.integral_value:.2f} vs {target:.2f}; growth max "
              f"{max(growth.values()):.2f}")
    _report(7, "proof-step envelopes", ok, detail)


def test_criterion_08_sigma_transition():
    norms = {0.25: [], 0.75: []}
    for T in (250.0, 500.0, 1000.0):
        for sigma, agg in sigma_sweep(T, [0.25, 0.75], trials=80, seed=11,
                                      threads=2):
            norms[sigma].append(agg.mean / (T * math.log(T)))
    flat = norms[0.25]
    spread = (max(flat) - min(flat)) / min(flat)
    falling = norms[0.75]
    decreasing = all(a > b for a, b in zip(falling, falling[1:]))
    detail = (f"sigma=0.25 spread {spread:.3f}; sigma=0.75 norms "
              + ", ".join(f"{v:.4f}" for v in falling))
    _report(8, "sigma transition trends", spread < 0.15 and decreasing, detail)


def test_criterion_09_determinism(tmp_path, cli_env):
    base = [sys.executable, "-m", "dirichlet_roots.cli", "simulate",
            "--T", "200", "--trials", "64", "--seed", "7"]
    paths = [tmp_path / f"run{i}.csv" for i in range(3)]
    runs = [base + ["--threads", "1", "--out", str(paths[0])],
            base + ["--threads", "1", "--out", str(paths[1])],
            base + ["--threads", "8", "--out", str(paths[2])]]
    for cmd in runs:
        subprocess.run(cmd, capture_output=True, check=True, env=cli_env)
    b = [p.read_bytes() for p in paths]
    ok = b[0] == b[1] == b[2]
    _report(9, "byte-identical CSV across runs and 1 vs 8 threads", ok,
            f"{len(b[0])} bytes")


def test_criterion_10_property_suite():
    rng = np.random.default_rng(3)

    # density nonnegativity on 1e5 random (spec, t) probes
    probes = 0
    for _ in range(250):
        T = float(np.exp(rng.uniform(math.log(2.1), math.log(300.0))))
        k = int(rng.integers(0, 4))
        sigma = float(rng.uniform(0.0, 1.0))
        part = "cosine" if rng.random() < 0.5 else "sine"
        spec = make_spec(T, k, sigma, part)
        table = make_weight_table(spec)
        start = float(rng.uniform(0.01, 4.0 * T))
        step = float(rng.uniform(0.01, 2.3)) * 1.0000001
        br = breakdown_grid(spec, table, start, step, 400)
        assert np.all(br["density"] >= 0.0)
        assert np.all(np.isfinite(br["density"]))
        probes += 400
    assert probes >= 100_000

    # weight-scale invariance to 1e-12
    for _ in range(10):
        T = float(rng.uniform(5.0, 200.0))
        spec = make_spec(T, int(rng.integers(0, 3)), 0.5, "cosine")
        base = make_weight_table(spec)
        c = float(np.exp(rng.uniform(-10, 10)))
        scaled = WeightTable(spec=spec, logs=base.logs.copy(), weights=base.weights * c)
        for t in rng.uniform(0, 3 * T, size=10):
            d0 = breakdown_at(spec, float(t), base).density
            d1 = breakdown_at(spec, float(t), scaled).density
            assert abs(d0 - d1) <= 1e-12 * (1.0 + abs(d0))

    # cosine parity of density and of the polynomial itself
    spec = make_spec(250.0, 0, 0.5, "cosine")
    table = make_weight_table(spec)
    sample = sample_coefficients(spec, 17, 0)
    for t in rng.uniform(0.1, 1000.0, size=25):
        t = float(t)
        assert breakdown_at(spec, t, table).density == pytest.approx(
            breakdown_at(spec, -t, table).density, rel=1e-12, abs=1e-12)
        assert eval_polynomial(sample, table, t) == pytest.approx(
            eval_polynomial(sample, table, -t), rel=1e-12, abs=1e-12)

    # grid-refinement count monotonicity on 50 trials
    spec = make_spec(500.0, 0, 0.5, "cosine")
    iv = experiment_interval(spec)
    m = math.ceil(iv.length / default_grid_step(spec))
    s1 = iv.length / m
    violations = 0
    for i in range(50):
        smp = sample_coefficients(spec, SEED, i)
        c1 = count_roots(smp, iv, step=s1).count
        c2 = count_roots(smp, iv, step=s1 / 2.0).count
        violations += int(c2 < c1)
    _report(10, "property suite", violations == 0,
            f"1e5 density probes, scale/parity checks, monotonicity "
            f"violations {violations}/50")
