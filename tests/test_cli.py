import json
import math
import subprocess
import sys

import pytest

from dirichlet_roots.cli import main


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
    from dirichlet_roots import kac_rice

    code, out, _ = run_cli(["expected", "--T", "2000"], capsys)
    whole = json.loads(out)
    monkeypatch.setattr(kac_rice, "_CHUNK_PANELS", 5000)
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
    from dirichlet_roots.cli import build_parser

    assert "4 numerical error" in build_parser().epilog


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
