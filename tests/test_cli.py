import json
import math
import subprocess
import sys

import numpy as np
import pytest

from dirichlet_roots.cli import main
from dirichlet_roots.kac_rice import QuadratureResult


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expected_json(capsys):
    code, out, _ = run_cli(["expected", "--T", "200", "--k", "0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == "2"
    assert payload["spec"] == {"T": 200.0, "k": 0, "sigma": 0.5,
                               "part": "cosine", "degenerate": False}
    assert payload["method"] == "composite_deterministic"
    assert payload["ek_value"] == pytest.approx(171.2754, abs=1e-3)
    assert payload["nodes_used"] > 0
    assert "quadrature" in payload["wall_time_s"]


def test_expected_degenerate_is_zero(capsys):
    # T < 2 keeps only n = 1: zero for the sine part and, as w_1 = 0, for k >= 1
    for flags in (["--part", "sine"], ["--k", "1"]):
        code, out, _ = run_cli(["expected", "--T", "1.5", *flags], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["ek_value"] == 0.0
        assert payload["method"] == "degenerate"
        assert payload["spec"]["degenerate"]


def test_expected_deterministic_in_chunks(capsys, monkeypatch):
    # the default method stays deterministic when the node streams run in
    # chunks; the chunked value matches the one-call value to roundoff
    from dirichlet_roots import dirichlet_eval

    code, out, _ = run_cli(["expected", "--T", "2000"], capsys)
    whole = json.loads(out)
    monkeypatch.setattr(dirichlet_eval, "_CHUNK_PANELS", 5000)
    code, out, _ = run_cli(["expected", "--T", "2000"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "composite_deterministic"
    assert payload["nodes_used"] == whole["nodes_used"]
    assert payload["ek_value"] == pytest.approx(whole["ek_value"], rel=1e-13, abs=0)


def test_expected_stratified_at_large_T(capsys):
    code, out, _ = run_cli(["expected", "--T", "1e5", "--method", "stratified",
                            "--strata", "500", "--seed", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "stratified_random"
    assert payload["stderr"] > 0


def test_expected_stratified_seed_modulo_two_to_the_64(capsys):
    # the stratified offsets take the seed modulo 2^64, as the Monte Carlo
    # sampler does: -1 runs as 2^64 - 1, and 2^64 + 1 as 1
    def value(seed):
        code, out, _ = run_cli(["expected", "--T", "100", "--method", "stratified",
                                "--strata", "200", "--seed", str(seed)], capsys)
        assert code == 0
        return json.loads(out)["ek_value"]

    assert value(-1) == value(2**64 - 1)
    assert value(2**64 + 1) == value(1)
    assert value(1) != value(2)


def test_usage_errors_exit_two(capsys):
    assert run_cli(["expected", "--T", "0.5"], capsys)[0] == 2
    assert run_cli(["simulate", "--T", "100", "--trials", "1"], capsys)[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(["expected"])  # missing required --T
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["diagnostics", "--suite", "bogus", "--T", "100"])
    assert exc.value.code == 2


def test_bad_numeric_inputs_exit_two(capsys, monkeypatch):
    for args, name in ((["expected", "--T", "100", "--sigma", "nan"], "sigma"),
                       (["simulate", "--T", "100", "--trials", "4", "--sigma", "nan"], "sigma"),
                       (["simulate", "--T", "100", "--trials", "4", "--step", "inf"], "step"),
                       (["simulate", "--T", "100", "--trials", "4", "--step", "nan"], "step"),
                       (["diagnostics", "--suite", "l2", "--T", "inf"], "T must be"),
                       (["diagnostics", "--suite", "l2", "--T", "nan"], "T must be")):
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == "" and name in err
    for threads in ("0", "-2", "1.5"):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--T", "100", "--threads", threads])
        assert exc.value.code == 2
    # a bad DIRICHLET_ROOTS_THREADS stops only the commands that take --threads
    monkeypatch.setenv("DIRICHLET_ROOTS_THREADS", "four")
    assert run_cli(["expected", "--T", "100"], capsys)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--T", "100"])
    assert exc.value.code == 2
    assert "DIRICHLET_ROOTS_THREADS" in capsys.readouterr().err


def test_unwritable_out_exits_two(tmp_path, capsys, monkeypatch):
    # an --out that cannot be written stops the run before anything is
    # computed or printed, and no file is created or truncated
    from dirichlet_roots import cli

    def never(args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "cmd_expected", never)
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n")
    for out, reason in ((tmp_path / "missing" / "x.csv", "writable directory"),
                        (tmp_path, "is a directory"), (kept / "x.csv", "writable directory")):
        code, stdout, err = run_cli(["expected", "--T", "20", "--out", str(out)], capsys)
        assert code == 2 and stdout == ""
        assert err.startswith(f"error: --out {out} ") and reason in err
        assert err.count("\n") == 1
    assert not (tmp_path / "missing").exists()
    # a directory that is not writable (os.access stands in: root writes anywhere)
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    code, stdout, err = run_cli(["expected", "--T", "20", "--out", str(kept)], capsys)
    assert code == 2 and stdout == "" and "writable directory" in err
    assert kept.read_text() == "old\n"


def test_numerical_error_exit_four(capsys):
    # only the n = 2 term oscillates: every realization vanishes on j pi / log 2
    code, out, err = run_cli(["expected", "--T", "2.5", "--part", "sine"], capsys)
    assert code == 4 and out == "" and "lattice" in err
    # a stratified grid far coarser than the density's spikes (sine k = 30
    # at T = 3.5) once printed 0.0342 +- 0.0210 with exit 0: the count is
    # about 1
    code, out, err = run_cli(["expected", "--T", "3.5", "--k", "30", "--part", "sine",
                              "--method", "stratified"], capsys)
    assert code == 4 and out == "" and "spikes" in err and "grid step" in err
    from dirichlet_roots.cli import build_parser

    assert "4 numerical error" in build_parser().epilog


@pytest.mark.parametrize("k", [8, 9, 150])
def test_large_k_gives_a_value_or_exits_four(capsys, k):
    # EK reads no Stieltjes constant: the refined panels of T = 3.5 (sine)
    # assemble the density only.  k = 8 and 9 give finite values, the
    # deterministic one within 5 stderr of the stratified one; at k = 150
    # the n = 2 term's squared weight is below rounding of the n = 3 term's,
    # and both methods exit 4
    results = {}
    for method in ("deterministic", "stratified"):
        code, out, err = run_cli(["expected", "--T", "3.5", "--k", str(k), "--part", "sine",
                                  "--method", method], capsys)
        if k == 150:
            assert code == 4 and out == "" and "n = 3 term oscillates" in err
        else:
            assert code == 0, err
            results[method] = json.loads(out)
            assert math.isfinite(results[method]["ek_value"])
    if results:
        det, strat = results["deterministic"], results["stratified"]
        assert abs(det["ek_value"] - strat["ek_value"]) <= 5 * strat["stderr"]
        assert det["nodes_used"] > 10 * math.ceil(3.5 / (math.pi / (2 * math.log(3.5))))


def test_compare_rejects_k_above_the_stieltjes_table(capsys):
    # the two-term prediction needs gamma_(2k), tabulated up to gamma_16:
    # --k 9 is a usage error naming the range, before any quadrature runs
    code, out, err = run_cli(["compare", "--T-list", "100", "--k", "9", "--trials", "4"], capsys)
    assert code == 2 and out == ""
    assert "0 <= --k <= 8" in err and "gamma_16" in err
    from dirichlet_roots.cli import build_parser

    with pytest.raises(SystemExit):
        build_parser().parse_args(["compare", "--help"])
    assert "0 to 8" in capsys.readouterr().out


@pytest.mark.parametrize("bad", ["50", "nan", "inf"])
def test_compare_checks_its_whole_t_list_first(capsys, monkeypatch, bad):
    # a T the zeta ratio cannot take is a usage error naming --T-list and
    # the value, before EK or any Monte Carlo trial runs at the valid T = 200
    from dirichlet_roots import cli

    def never(*_args, **_kwargs):
        raise AssertionError("compare ran before checking its --T-list")

    for name in ("expected_count_deterministic", "expected_count_stratified", "run_trials"):
        monkeypatch.setattr(cli, name, never)
    code, out, err = run_cli(["compare", "--T-list", f"200,{bad}", "--trials", "100"], capsys)
    assert code == 2 and out == ""
    assert "--T-list" in err and f"got {float(bad)!r}" in err
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["compare", "--help"])
    assert "T >= 100" in capsys.readouterr().out


@pytest.mark.parametrize("method", ["deterministic", "stratified"])
def test_non_finite_result_exits_four(capsys, monkeypatch, method):
    # no payload carries a non-finite number with exit 0, and the error
    # names the fields.  The weight table rejects the overflowing weights
    # that once reached this backstop (below), so a NaN result stands in
    from dirichlet_roots import cli

    nan = QuadratureResult(math.nan, math.inf, "stratified_random", 1, math.nan)
    monkeypatch.setattr(cli, "expected_count_deterministic", lambda *args: nan)
    monkeypatch.setattr(cli, "expected_count_stratified", lambda *args, **kwargs: nan)
    code, out, err = run_cli(["expected", "--T", "500", "--method", method], capsys)
    assert code == 4 and out == ""
    assert err.startswith("error: the result is not finite: ")
    assert "ek_value" in err and "ek_error" in err


@pytest.mark.parametrize("step", ["1e-14", "1e-300"])
def test_grid_points_within_four_ulp_exit_four(capsys, step):
    # --step 1e-14 once ended in an OverflowError traceback (exit 1): grid
    # points 1e-14 apart round onto each other near t = 200 (4 ulp: 1.1e-13)
    code, out, err = run_cli(["simulate", "--T", "100", "--trials", "2", "--step", step], capsys)
    assert code == 4 and out == ""
    assert "grid points on [100.0, 200.0] put neighbouring points" in err
    assert "they would round onto each other" in err


def test_grid_beyond_the_point_bound_exits_two(capsys, monkeypatch):
    # --step 1e-12 asks for 10^14 grid points per trial, which would run for
    # years: a usage error names the count and the bound before the kernel
    # is called once
    from dirichlet_roots import monte_carlo

    def kernel(*args, **kwargs):
        raise AssertionError("the grid kernel was called")

    monkeypatch.setattr(monte_carlo, "oscillating_sums", kernel)
    code, out, err = run_cli(["simulate", "--T", "100", "--trials", "2", "--step", "1e-12"],
                             capsys)
    assert code == 2 and out == ""
    assert "100,000,000,000,001 grid points" in err and "4,294,967,296 allowed" in err


def test_panels_beyond_the_point_bound_exit_two(capsys, monkeypatch):
    # the L2 identity at T = 1e12 asks for 2.2e11 half-period panels, which
    # would run for hours: the grid point bound that Monte Carlo's grid
    # obeys names the count and the bound before the kernel is called once
    from dirichlet_roots import diagnostics

    def kernel(*args, **kwargs):
        raise AssertionError("the grid kernel was called")

    monkeypatch.setattr(diagnostics, "oscillating_sums", kernel)
    code, out, err = run_cli(["diagnostics", "--suite", "l2", "--T", "1e12"], capsys)
    assert code == 2 and out == ""
    assert "220,635,600,153 panels" in err and "4,294,967,296 allowed" in err


def test_derivative_order_beyond_float_range_exits_two(cli_env):
    # a k that no float holds once ended in an OverflowError traceback (exit 1)
    proc = subprocess.run([sys.executable, "-m", "dirichlet_roots.cli", "expected", "--T", "50",
                           "--k", "1" + "0" * 400], capture_output=True, text=True, env=cli_env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: derivative order k must be a nonnegative integer")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize("k", [200, 400])
@pytest.mark.parametrize("args", [
    ["expected", "--T", "500"],
    ["expected", "--T", "500", "--method", "stratified", "--strata", "200"],
    ["simulate", "--T", "500", "--trials", "8"],
    ["compare", "--T-list", "500", "--trials", "8"],
    ["diagnostics", "--suite", "sup", "--T", "500"],
])
def test_overflowing_weights_exit_four(capsys, args, k):
    # (log n)^(2k) overflows: k = 200 once ended in an OverflowError
    # traceback, and simulate at k = 400 in exit 0 with every count 0
    code, out, err = run_cli(args + ["--k", str(k)], capsys)
    assert code == 4 and out == ""
    assert f"overflow at k = {k}, T = 500.0" in err


@pytest.mark.parametrize("args", [
    ["expected", "--T", "5000"],
    ["expected", "--T", "5000", "--method", "stratified"],
    ["simulate", "--T", "5000", "--trials", "8"],
    ["compare", "--T-list", "500,5000", "--trials", "8"],
    ["diagnostics", "--suite", "steps", "--T", "5000"],
    ["diagnostics", "--suite", "l2", "--T", "5000"],
])
def test_out_of_memory_exits_five(capsys, monkeypatch, args):
    # `expected --T 1e12` would ask for 8 TB of logs; the allocations raise
    # here instead, so nothing large is ever allocated
    from dirichlet_roots import cli, diagnostics, kac_rice, monte_carlo

    def exhausted(*_args, **_kwargs):
        raise MemoryError

    for module in (kac_rice, monte_carlo, diagnostics):
        monkeypatch.setattr(module, "make_weight_table", exhausted)
    monkeypatch.setattr(diagnostics, "oscillating_sums", exhausted)
    code, out, err = run_cli(args, capsys)
    assert code == 5 and out == ""
    assert err == "error: out of memory at T = 5000 (5,000 terms)\n"
    assert "5 out of memory" in cli.build_parser().epilog


def test_large_finite_k_still_counts(capsys):
    # k = 150 keeps every weight finite: a finite count, near the MC mean
    code, out, _ = run_cli(["expected", "--T", "500", "--k", "150"], capsys)
    assert code == 0
    ek = json.loads(out)["ek_value"]
    code, out, _ = run_cli(["simulate", "--T", "500", "--k", "150", "--trials", "8"], capsys)
    assert code == 0
    mc = json.loads(out)
    assert math.isfinite(ek) and abs(mc["mean"] - ek) < 5.0 * mc["stderr"] + 3.0


def test_simulate_csv_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--T", "120", "--trials", "10", "--seed", "7"]
    code1, js1, _ = run_cli(args + ["--out", str(out1)], capsys)
    code2, js2, _ = run_cli(args + ["--threads", "3", "--out", str(out2)], capsys)
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("# dirichlet-roots simulate schema=2 seed=7")
    assert lines[1] == "trial_index,count"
    assert len(lines) == 12
    p1, p2 = json.loads(js1), json.loads(js2)
    for key in ("mean", "stderr", "min", "max", "grid_step"):
        assert p1[key] == p2[key]


def test_simulate_csv_same_for_any_threads(tmp_path, capsys):
    # 37 trials make five blocks, the last of 5 trials: one, two and three
    # workers must write the same bytes
    paths = [tmp_path / f"t{threads}.csv" for threads in (1, 2, 3)]
    for threads, path in zip((1, 2, 3), paths):
        code, _, _ = run_cli(["simulate", "--T", "200", "--trials", "37", "--seed", "5",
                              "--threads", str(threads), "--out", str(path)], capsys)
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()
    assert len(paths[0].read_text().splitlines()) == 39


def test_simulate_mean_matches_expected(capsys):
    code, out, _ = run_cli(["simulate", "--T", "120", "--trials", "60",
                            "--seed", "11"], capsys)
    assert code == 0
    sim = json.loads(out)
    code, out, _ = run_cli(["expected", "--T", "120"], capsys)
    ek = json.loads(out)
    assert abs(sim["mean"] - ek["ek_value"]) <= 4.0 * sim["stderr"]


def test_compare_table(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code, js, _ = run_cli(["compare", "--T-list", "150,300", "--trials", "8",
                           "--seed", "2", "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(js)
    assert [r["T"] for r in payload["rows"]] == [150.0, 300.0]
    for row in payload["rows"]:
        assert row["ek"] > 0 and row["asym"] > 0
        assert row["ratio"] == pytest.approx(row["ek"] / (
            (2 * row["T"] / (2 * math.pi)) * math.log(2 * row["T"] / (2 * math.pi))
            - (row["T"] / (2 * math.pi)) * math.log(row["T"] / (2 * math.pi))), rel=1e-12)
    lines = out.read_text().splitlines()
    assert lines[1] == "T,ek,asym,mc_mean,mc_stderr,ratio"
    assert len(lines) == 4


def test_diagnostics_steps_suite(capsys):
    code, js, _ = run_cli(["diagnostics", "--suite", "steps", "--T", "300"], capsys)
    assert code == 0
    payload = json.loads(js)
    assert len(payload["rows"]) == 9
    assert all(math.isfinite(r["observed_ratio"]) and r["observed_ratio"] >= 0
               for r in payload["rows"])


def test_diagnostics_steps_csv_matches_json(tmp_path, capsys):
    # every cell of the CSV body is a plain number equal to the JSON row's value
    out = tmp_path / "steps.csv"
    code, js, _ = run_cli(["diagnostics", "--suite", "steps", "--T", "300",
                           "--out", str(out)], capsys)
    assert code == 0
    rows = json.loads(js)["rows"]
    lines = out.read_text().splitlines()
    columns = lines[1].split(",")
    assert columns == ["step_id", "integral_value", "envelope_scale", "observed_ratio"]
    assert len(lines) == 2 + len(rows)
    for line, row in zip(lines[2:], rows):
        assert [float(cell) for cell in line.split(",")] == [row[c] for c in columns]


def test_diagnostics_l2_suite(capsys):
    code, js, _ = run_cli(["diagnostics", "--suite", "l2", "--T", "100"], capsys)
    assert code == 0
    rows = json.loads(js)["rows"]
    ones = next(r for r in rows if r["family"] == "ones")
    assert abs(ones["lhs"] - ones["main"]) <= 3.0


def test_diagnostics_sup_suite(capsys):
    code, js, _ = run_cli(["diagnostics", "--suite", "sup", "--T", "400"], capsys)
    assert code == 0
    row = json.loads(js)["rows"][0]
    assert row["sup_u"] > 0 and row["ratio_u2"] > 0


def test_diagnostics_artifacts_record_the_model(tmp_path, capsys):
    # steps and sup record k and sigma: --suite sup --k 2 differs from k = 0
    for suite, flags, k in (("steps", [], 0), ("sup", [], 0), ("sup", ["--k", "2"], 2)):
        out = tmp_path / f"{suite}{k}.csv"
        code, js, _ = run_cli(["diagnostics", "--suite", suite, "--T", "300", *flags,
                               "--out", str(out)], capsys)
        assert code == 0
        payload = json.loads(js)
        assert (payload["k"], payload["sigma"]) == (k, 0.5)
        assert out.read_text().splitlines()[0] == (
            f"# dirichlet-roots diagnostics suite={suite} schema=2 seed=0 T=300.0 "
            f"k={k} sigma=0.5")


def test_diagnostics_rejects_unused_model_flags(capsys):
    # steps is defined only for k = 0, sigma = 1/2; l2 and sigma take neither flag
    for args, msg in ((["steps", "--T", "1000", "--k", "3", "--sigma", "0.9"], "k=0"),
                      (["l2", "--T", "100", "--k", "1"], "neither"),
                      (["sigma", "--T", "80", "--sigma", "0.3"], "neither")):
        code, out, err = run_cli(["diagnostics", "--suite", *args], capsys)
        assert code == 2 and out == "" and msg in err


def test_diagnostics_sigma_suite(tmp_path, capsys):
    out = tmp_path / "sigma.csv"
    code, js, _ = run_cli(["diagnostics", "--suite", "sigma", "--T", "80",
                           "--trials", "4", "--out", str(out)], capsys)
    assert code == 0
    rows = json.loads(js)["rows"]
    assert [r["sigma"] for r in rows] == [0.0, 0.25, 0.5, 0.6, 0.75, 1.0]
    assert out.read_text().splitlines()[1] == "sigma,mean,stderr,normalized"


_COMMON = {"schema_version", "command", "seed", "wall_time_s"}
_EXPECTED = _COMMON | {"spec", "interval", "method", "ek_value", "ek_error", "nodes_used",
                       "stderr"}
_EXPECTED_COLUMNS = "T,k,sigma,part,method,ek_value,ek_error,nodes_used"


@pytest.mark.parametrize("args, keys, header, columns", [
    (["expected", "--T", "200"], _EXPECTED,
     "expected schema=2 seed=0 T=200.0 k=0 sigma=0.5 part=cosine", _EXPECTED_COLUMNS),
    (["expected", "--T", "200", "--method", "stratified", "--strata", "200", "--seed", "3"],
     _EXPECTED, "expected schema=2 seed=3 T=200.0 k=0 sigma=0.5 part=cosine",
     _EXPECTED_COLUMNS),
    (["expected", "--T", "1.5", "--part", "sine"], _EXPECTED,
     "expected schema=2 seed=0 T=1.5 k=0 sigma=0.5 part=sine", _EXPECTED_COLUMNS),
    (["simulate", "--T", "120", "--trials", "4", "--seed", "7"],
     _COMMON | {"spec", "interval", "trials", "grid_step", "mean", "stderr", "min", "max",
                "threads"},
     "simulate schema=2 seed=7 T=120.0 k=0 sigma=0.5 part=cosine trials=4 "
     "step=0.14207330229097737", "trial_index,count"),
    (["compare", "--T-list", "150", "--trials", "4", "--seed", "2"],
     _COMMON | {"k", "sigma", "trials", "rows"},
     "compare schema=2 seed=2 k=0 sigma=0.5 trials=4", "T,ek,asym,mc_mean,mc_stderr,ratio"),
    (["diagnostics", "--suite", "steps", "--T", "300"],
     _COMMON | {"suite", "T", "k", "sigma", "rows"},
     "diagnostics suite=steps schema=2 seed=0 T=300.0 k=0 sigma=0.5",
     "step_id,integral_value,envelope_scale,observed_ratio"),
    (["diagnostics", "--suite", "l2", "--T", "100"], _COMMON | {"suite", "T", "rows"},
     "diagnostics suite=l2 schema=2 seed=0 T=100.0",
     "family,n,lhs,main,error_budget,realized_constant"),
    (["diagnostics", "--suite", "sup", "--T", "400", "--k", "2"],
     _COMMON | {"suite", "T", "k", "sigma", "rows"},
     "diagnostics suite=sup schema=2 seed=0 T=400.0 k=2 sigma=0.5",
     "sup_u,sup_u1,sup_u2,ratio_u,ratio_u1,ratio_u2"),
    (["diagnostics", "--suite", "sigma", "--T", "80", "--trials", "4"],
     _COMMON | {"suite", "T", "rows"}, "diagnostics suite=sigma schema=2 seed=0 T=80.0",
     "sigma,mean,stderr,normalized"),
])
def test_artifact_contract(tmp_path, capsys, args, keys, header, columns):
    # the stable artifact surface: payload keys, CSV header line and column row
    out = tmp_path / "out.csv"
    code, js, _ = run_cli(args + ["--out", str(out)], capsys)
    assert code == 0
    assert set(json.loads(js)) == keys
    lines = out.read_text().splitlines()
    assert lines[:2] == ["# dirichlet-roots " + header, columns]


def test_console_script_entrypoint(cli_env):
    proc = subprocess.run([sys.executable, "-m", "dirichlet_roots.cli",
                           "--version"], capture_output=True, text=True, env=cli_env)
    assert proc.returncode == 0


def test_simulate_and_stratified_leave_numpy_polynomial_unloaded(cli_env):
    # the grid kernel builds its polynomial by its own recurrence: Monte
    # Carlo and stratified EK never load numpy.polynomial, which would cost
    # every such run peak memory
    code = ("import contextlib, io, sys\n"
            "from dirichlet_roots.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['simulate', '--T', '100', '--trials', '4']) == 0\n"
            "    assert main(['expected', '--T', '500', '--method', 'stratified',\n"
            "                 '--strata', '200']) == 0\n"
            "print('numpy.polynomial' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=cli_env, check=True)
    assert proc.stdout.strip() == "False"


def test_threads_env_var_default(monkeypatch):
    from dirichlet_roots.cli import build_parser

    monkeypatch.setenv("DIRICHLET_ROOTS_THREADS", "6")
    args = build_parser().parse_args(["simulate", "--T", "100"])
    assert args.threads == 6
    monkeypatch.delenv("DIRICHLET_ROOTS_THREADS")
    args = build_parser().parse_args(["simulate", "--T", "100"])
    assert args.threads == 1


def test_threads_env_var_read_by_each_main_call(capsys, monkeypatch):
    # the parser is built once per process, but each call reads the
    # variable as it parses
    for threads in ("2", "1", "3"):
        monkeypatch.setenv("DIRICHLET_ROOTS_THREADS", threads)
        code, out, _ = run_cli(["simulate", "--T", "60", "--trials", "2"], capsys)
        assert code == 0 and json.loads(out)["threads"] == int(threads)
    monkeypatch.setenv("DIRICHLET_ROOTS_THREADS", "0")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--T", "60", "--trials", "2"])
    assert exc.value.code == 2 and "DIRICHLET_ROOTS_THREADS" in capsys.readouterr().err
