"""CLI contract: subcommands, exit codes, table schemas, determinism."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from xtcs import (AttractiveCouplingWarning, ExtConstants, ModelParams, NonFiniteError, cli,
                  solver, verify)
from xtcs.cli import SUITES, load_params, main
from xtcs.verify import VerificationReport


@pytest.fixture()
def config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 2, "lambda": 1, "r": 1, "omega": 1, "s": 0, "m": 1}))
    return str(path)


@pytest.fixture()
def config_m0(tmp_path):
    path = tmp_path / "cfg0.json"
    path.write_text(json.dumps({"N": 4, "lambda": 0.5, "r": 3, "omega": 2, "s": 0, "m": 0}))
    return str(path)


def test_params_text(config, capsys):
    assert main(["params", "--config", config]) == 0
    out = capsys.readouterr().out
    assert "tau        = 3" in out
    assert "alpha      = 1" in out
    assert "pair_count = 1" in out
    assert "E_0        = 2" in out
    assert "alpha1=-8 alpha2=8 beta1=2 beta2=2" in out


def test_params_json(config_m0, capsys):
    assert main(["params", "--config", config_m0, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tau"] == 9.0
    assert doc["energies"]["E_0"] == 10.0
    assert "x1_constants" not in doc  # m = 0


@pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
def test_params_with_a_non_finite_value_exits_1_and_prints_nothing(extra, tmp_path, capsys):
    # w = 1e308: every E_n = w (2n + alpha + 1) and alpha1 = -4 w (tau - 1) leave float64
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 3, "lambda": 1, "r": 1, "omega": 1e308, "s": 0, "m": 1}))
    assert main(["params", "--config", str(path)] + extra) == 1
    captured = capsys.readouterr()
    assert captured.err == "xtcs: error: params: E_0, E_1, E_2, E_3, E_4, alpha1 not finite\n"
    assert captured.out == ""


def test_missing_key_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"N": 2, "lambda": 1, "r": 1, "s": 0, "m": 1}))
    assert main(["params", "--config", str(path)]) == 1
    assert "omega" in capsys.readouterr().err


def test_unknown_key_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"N": 2, "lambda": 1, "r": 1, "omega": 1, "s": 0, "m": 1, "zeta": 3}))
    assert main(["params", "--config", str(path)]) == 1
    assert "zeta" in capsys.readouterr().err


BIG = "1" + "0" * 400  # a JSON integer of 401 digits


@pytest.mark.parametrize("key, literal, message", [
    ("lambda", BIG, "coupling (lambda) must be a finite float64"),
    ("omega", BIG, "omega must be a finite float64"),
    ("N", BIG, "tau = N + 2s - 1 + lambda r (2N - r - 1) leaves float64"),
    ("s", BIG, "tau = N + 2s - 1 + lambda r (2N - r - 1) leaves float64"),
    ("lambda", "true", "coupling (lambda) must be a number, got True"),
    ("lambda", '"1"', "coupling (lambda) must be a number, got '1'"),
    ("r", "true", "trunc_range (r) must be an integer >= 1, got True"),
    ("m", "1" * 5000, "is not valid JSON: Exceeds the limit (4300 digits)"),
], ids=["lambda-401-digits", "omega-401-digits", "N-401-digits", "s-401-digits", "lambda-true",
        "lambda-string", "r-true", "m-5000-digits"])
def test_parameter_past_float64_or_of_the_wrong_type_exits_1_with_one_line(key, literal, message,
                                                                           tmp_path, capsys):
    # a 401-digit integer raised OverflowError from float() or from tau; one past the
    # interpreter's 4300-digit limit raised ValueError from json.loads
    path = tmp_path / "cfg.json"
    doc = {"N": 3, "lambda": 1, "r": 1, "omega": 1, "s": 0, "m": 1, key: None}
    path.write_text(json.dumps(doc).replace("null", literal))
    for command in (["params"], ["local-energy"], ["verify", "--suite", "residual"]):
        assert main(command + ["--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("xtcs: error: ") and message in captured.err


def test_usage_error_exits_1(capsys):
    assert main(["table", "--what", "potential"]) == 1  # missing --config


def test_table_potential_schema(config, capsys):
    assert main(["table", "--config", config, "--what", "potential", "--points", "8"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "rho,g,v_eff_conventional,v_eff_extended"
    assert len(lines) == 9
    assert all(len(line.split(",")) == 4 for line in lines[1:])


def test_table_wavefunction_schema(config, capsys):
    assert main(["table", "--config", config, "--what", "wavefunction", "--points", "6"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "rho,g,phi_conventional,phi_extended,v_eff_conventional,v_eff_extended"


def test_table_spectrum_schema(config, capsys):
    assert main(["table", "--config", config, "--what", "spectrum",
                 "--levels", "2", "--points", "3001"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,E_analytic,E_conv_numeric,E_ext_numeric,rel_err_conv,rel_err_ext"
    rel_errs = [float(line.split(",")[4]) for line in lines[1:]]
    assert all(e <= 1e-6 for e in rel_errs)


def test_table_wavefunction_sign_changes_match_level(config, capsys):
    main(["table", "--config", config, "--what", "wavefunction",
          "--level", "2", "--points", "4000"])
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    phi = [float(line.split(",")[3]) for line in lines]  # extended column
    flips = sum(1 for a, b in zip(phi[:-1], phi[1:]) if a * b < 0)
    assert flips == 2


def test_table_deterministic(config, capsys):
    main(["table", "--config", config, "--what", "potential", "--points", "64"])
    first = capsys.readouterr().out
    main(["table", "--config", config, "--what", "potential", "--points", "64"])
    second = capsys.readouterr().out
    assert first == second


def test_table_uses_explicit_points_and_rho_max(config, capsys):
    assert main(["table", "--config", config, "--what", "potential",
                 "--points", "7", "--rho-max", "3"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == 7
    assert float(rows[-1].split(",")[0]) == 3.0


BAD_POINTS = [("--points", value, f"--points must be >= 2, got {value}")
              for value in ("0", "1", "-5")]
BAD_RHO_MAX = [
    ("--rho-max", "0", "--rho-max must be finite and > 0, got 0.0"),
    ("--rho-max", "-1", "--rho-max must be finite and > 0, got -1.0"),
    ("--rho-max", "nan", "--rho-max must be finite and > 0, got nan"),
    ("--rho-max", "inf", "--rho-max must be finite and > 0, got inf"),
]


@pytest.mark.parametrize(  # the spectrum table reads --points but not --rho-max
    "flag, value, message, what",
    [case + (what,) for what in ("potential", "wavefunction") for case in BAD_POINTS + BAD_RHO_MAX]
    + [case + ("spectrum",) for case in BAD_POINTS])
def test_table_rejects_bad_points_and_rho_max(config, what, flag, value, message, capsys):
    assert main(["table", "--config", config, "--what", what, flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"xtcs: error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("suite", ["spectrum", "all"])
@pytest.mark.parametrize("flag, value, message", BAD_POINTS)
def test_verify_rejects_bad_points(config, suite, flag, value, message, tmp_path, capsys):
    out = tmp_path / "reports"
    assert main(["verify", "--config", config, "--suite", suite, flag, value,
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"xtcs: error: {message}\n"
    assert captured.out == "" and not out.exists()


def test_table_out_dir(config, tmp_path):
    out = tmp_path / "tables" / "potential"  # made, parents too, by the first write
    for _ in range(2):  # the second call writes into the directory the first one made
        assert main(["table", "--config", config, "--what", "potential",
                     "--points", "8", "--out", str(out)]) == 0
        assert [path.name for path in out.iterdir()] == ["potential.csv"]


def _run_every_writer(config, out):
    """One call of each command that writes files: every report, a table, a scan."""
    assert main(["verify", "--config", config, "--suite", "all", "--out", str(out),
                 "--points", "6001", "--samples", "10"]) == 0
    assert main(["table", "--config", config, "--what", "potential", "--points", "8",
                 "--out", str(out)]) == 0
    assert main(["local-energy", "--config", config, "--samples", "10", "--out", str(out)]) == 0
    return {path.name: path.read_bytes() for path in out.iterdir()}


def test_outputs_written_over_longer_stale_files_equal_fresh_ones(config, tmp_path, capsys):
    fresh = _run_every_writer(config, tmp_path / "fresh")
    assert len(fresh) == 2 * 5 + 2 and all(fresh.values())
    stale = tmp_path / "stale"
    stale.mkdir()
    for name, data in fresh.items():
        (stale / name).write_bytes(b"x" * (2 * len(data) + 100))
    assert _run_every_writer(config, stale) == fresh


def test_spectrum_report_is_one_compact_json_line(config, tmp_path, capsys):
    out = tmp_path / "reports"
    assert main(["verify", "--config", config, "--suite", "spectrum", "--points", "6001",
                 "--out", str(out)]) == 0
    text = (out / "report_spectrum.json").read_text(encoding="utf-8")
    assert text.endswith("}\n") and text.count("\n") == 1
    report = verify.isospectrality_check(load_params(config), 4, 6001)
    assert json.loads(text) == report.to_json_dict()


def test_every_suite_report_is_its_verify_function_report(config, tmp_path, capsys):
    # the CLI writes what one verify call returns, handed the flags that suite reads
    out = tmp_path / "reports"
    assert main(["verify", "--config", config, "--suite", "all", "--out", str(out),
                 "--levels", "6", "--points", "6001", "--samples", "40", "--seed", "3",
                 "--perturb", "1.01"]) == 2
    p = load_params(config)
    expected = {
        "residual": verify.residual_suite(p),
        "spectrum": verify.isospectrality_check(p, 6, 6001, v_new_scale=1.01),
        "ortho": verify.ortho_suite(p, 6),
        "consistency": verify.consistency_suite(p),
        "local-energy": verify.local_energy_suite(p, 40, 3, 1.01),
    }
    assert list(expected) == list(SUITES)
    for suite, report in expected.items():
        text = (out / f"report_{suite}.json").read_text(encoding="utf-8")
        assert text.endswith("}\n") and text.count("\n") == 1
        assert json.loads(text) == report.to_json_dict()
        assert (out / f"report_{suite}.txt").read_text(encoding="utf-8") == report.to_text()
    assert not expected["spectrum"].passed and not expected["local-energy"].passed


def _per_value_csv(rows, header):
    """The table text as each value was once formatted: an int by str, a float by %.17g."""
    lines = [",".join(header)]
    lines += [",".join(str(c) if isinstance(c, int) else f"{float(c):.17g}" for c in row)
              for row in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("what", ["potential", "wavefunction", "spectrum"])
def test_tables_equal_the_per_value_format(what, config, monkeypatch, capsys):
    # _csv formats the array it checks for finiteness; the text must not change
    seen, csv = [], cli._csv

    def recorded(rows, header, name):
        seen.append((rows, header))
        return csv(rows, header, name)
    monkeypatch.setattr(cli, "_csv", recorded)
    assert main(["table", "--config", config, "--what", what, "--level", "2",
                 "--points", "3001" if what == "spectrum" else "257"]) == 0
    (rows, header), = seen
    assert capsys.readouterr().out == _per_value_csv(rows, header)
    edge = [(3, -0.0, 5e-324, 1.7976931348623157e308, 0.1, -1e-300)]
    assert csv(edge, "abcdef", what) == _per_value_csv(edge, "abcdef")


def test_verify_all_passes(config, tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(["verify", "--config", config, "--suite", "all", "--out", str(out),
                 "--points", "6001", "--samples", "40"])
    assert code == 0
    for suite in ("residual", "spectrum", "ortho", "consistency", "local-energy"):
        assert (out / f"report_{suite}.json").exists()
        assert (out / f"report_{suite}.txt").exists()
        doc = json.loads((out / f"report_{suite}.json").read_text())
        assert doc["passed"] is True


def test_verify_perturbed_fails(config, capsys):
    code = main(["verify", "--config", config, "--suite", "spectrum",
                 "--points", "6001", "--perturb", "1.01"])
    assert code == 2


@pytest.mark.parametrize("suite", ["spectrum", "local-energy"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_perturb_is_a_usage_error(config, suite, value, tmp_path, capsys):
    out = tmp_path / "reports"
    assert main(["verify", "--config", config, "--suite", suite, f"--perturb={value}",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"error: argument --perturb: must be a finite number, got '{value}'" in captured.err
    assert "v_new" not in captured.err and captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv", [["verify", "--suite", "ortho"], ["table", "--what", "spectrum"]])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_levels_below_one_is_a_usage_error(config, argv, value, tmp_path, capsys):
    # rejected at parse time: the ortho suite would run its five node counts and pass
    out = tmp_path / "out"
    assert main(argv + ["--config", config, f"--levels={value}", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: ")
    assert f"error: argument --levels: must be an integer >= 1, got '{value}'" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("cfg, argv, code", [
    # tau = 21: the 1 % shift (1.1e-6) clears the default grid's floor (6.2e-8)
    ({"N": 8, "lambda": 1, "r": 1, "omega": 1, "s": 0, "m": 1}, ["--perturb", "1.01"], 2),
    # tau = 4: twenty levels on the default grid agree with the conventional ones
    ({"N": 2, "lambda": 1.5, "r": 1, "omega": 1, "s": 0, "m": 2}, ["--levels", "20"], 0),
    # tau = 49: the 1 % shift (8.8e-8) clears the default grid's floor (5.3e-8)
    ({"N": 8, "lambda": 3, "r": 1, "omega": 1, "s": 0, "m": 1}, ["--perturb", "1.01"], 2),
])
def test_spectrum_verdict_on_default_grid(cfg, argv, code, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(path), "--suite", "spectrum"] + argv) == code


def _run_cold(script):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_non_spectrum_calls_leave_scipy_unimported(config):
    # importing scipy costs time a cold `params` call must not pay; only the solver
    # (lowest_eigenvalues) loads it, and then only its LAPACK extension
    _run_cold(f"import sys\nfrom xtcs.cli import main\n"
              f"assert main(['params', '--json', '--config', {config!r}]) == 0\n"
              f"assert main(['table', '--what', 'potential', '--config', {config!r}]) == 0\n"
              f"assert main(['verify', '--suite', 'residual', '--config', {config!r}]) == 0\n"
              "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n")


@pytest.mark.parametrize("argv, code", [([], 0), (["--perturb", "1.01"], 2)])
def test_spectrum_calls_leave_the_scipy_linalg_package_unimported(argv, code, tmp_path):
    # the scipy.linalg package costs ~0.3 s to import; the solver loads only the
    # _flapack extension that holds dstebz
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 3, "lambda": 1, "r": 1, "omega": 1, "s": 0, "m": 2}))
    _run_cold(f"import sys\nfrom xtcs.cli import main\n"
              f"assert main(['verify', '--suite', 'spectrum', '--config', {str(path)!r}]"
              f" + {argv!r}) == {code}\n"
              "assert 'scipy.linalg' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
              "flapack = sys.modules['scipy.linalg._flapack']\n"
              # a later import of the package reuses the loaded extension
              "import scipy.linalg\nfrom xtcs import solver\n"
              "assert scipy.linalg.lapack._flapack is flapack\n"
              "assert scipy.linalg.lapack.dstebz is solver._stebz()\n")


def test_verify_consistency_reports_diagnosis(config, tmp_path):
    out = tmp_path / "reports"
    assert main(["verify", "--config", config, "--suite", "consistency",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "report_consistency.json").read_text())
    assert doc["metadata"]["r_denominator_resolved"] == "alpha-1"


def test_verify_deterministic_reports(config, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["verify", "--config", config, "--suite", "local-energy",
                     "--out", str(out), "--samples", "25", "--seed", "7"]) == 0
    a = (out1 / "report_local-energy.json").read_bytes()
    b = (out2 / "report_local-energy.json").read_bytes()
    assert a == b


def test_local_energy_subcommand(config, capsys):
    assert main(["local-energy", "--config", config, "--samples", "20", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert doc["n_samples"] == 20
    assert doc["E_analytic"] == 2.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_numerical_error_exits_1_and_keeps_finished_reports(tmp_path, capsys, monkeypatch):
    # tau = 407: residual and spectrum pass, then the ortho quadrature raises (here made to
    # raise as it does where the Laguerre recurrence overflows), with one line on stderr
    def overflowing_gram(levels, p):
        raise NonFiniteError("radial quadrature: log|Phi_0| is not finite (Laguerre overflow)")

    monkeypatch.setattr(verify, "_gram", overflowing_gram)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"N": 12, "lambda": 3, "r": 11, "omega": 1, "s": 0, "m": 1}))
    out = tmp_path / "reports"
    code = main(["verify", "--config", str(path), "--suite", "all", "--points", "6001",
                 "--samples", "10", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == ("xtcs: error: suite ortho: radial quadrature: log|Phi_0| is not "
                            "finite (Laguerre overflow)\n")
    assert "residual: PASS" in captured.out and "spectrum: PASS" in captured.out
    for suite in ("residual", "spectrum"):
        assert (out / f"report_{suite}.json").exists()
    assert not (out / "report_ortho.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ortho_laguerre_overflow_exits_1_with_one_line(tmp_path, capsys):
    # L_200^(alpha)(-g) overflows float64 here; the log-domain rows see it and stop the suite
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 60, "lambda": 3, "r": 59, "omega": 1, "s": 0, "m": 200}))
    out = tmp_path / "reports"
    assert main(["verify", "--config", str(path), "--suite", "ortho", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("xtcs: error: suite ortho: ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cfg", [
    {"N": 16, "lambda": 1, "r": 15, "omega": 1, "s": 0, "m": 0},  # tau = 255
    {"N": 12, "lambda": 3, "r": 11, "omega": 1, "s": 0, "m": 1},  # tau = 407
    {"N": 30, "lambda": 2, "r": 29, "omega": 1, "s": 0, "m": 1},  # tau = 1769
    {"N": 40, "lambda": 3, "r": 39, "omega": 1, "s": 0, "m": 2},  # tau = 4719
])
def test_ortho_passes_at_large_tau(cfg, tmp_path, capsys):
    # rho^tau alone overflows float64 from tau ~ 255; the Gram rows are built in the log domain
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "reports"
    assert main(["verify", "--config", str(path), "--suite", "ortho", "--out", str(out)]) == 0
    items = json.loads((out / "report_ortho.json").read_text())["items"]
    assert items[0]["name"].startswith("worst off-diagonal") and items[0]["value"] <= 1e-12
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("omega", [0.05, 1, 20])
@pytest.mark.parametrize("lam, m", [(0.3, 20), (0.3, 60), (0.3, 120), (0.05, 20)])
def test_ortho_passes_at_tau_1_6_with_large_m(omega, lam, m, tmp_path, capsys):
    # tau = 1.6 (lambda = 0.3) and 1.1 (0.05): the integrand starts like s^tau in the trap
    # length s, where equal panels alone read off-diagonals of 2.4e-9, 7.0e-9 and 1.4e-8
    # (tau = 1.6, m = 20, 60, 120) and 1.0e-7 (tau = 1.1, m = 20); with the first panel
    # halved 20 times towards the origin they read <= 2.5e-15
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 2, "lambda": lam, "r": 1, "omega": omega, "s": 0, "m": m}))
    out = tmp_path / "reports"
    with pytest.warns(AttractiveCouplingWarning):
        assert main(["verify", "--config", str(path), "--suite", "ortho", "--out", str(out)]) == 0
    items = json.loads((out / "report_ortho.json").read_text())["items"]
    assert items[0]["name"].startswith("worst off-diagonal") and items[0]["value"] <= 1e-13
    assert capsys.readouterr().out == "ortho: PASS\n"


@pytest.mark.parametrize("argv, message", [
    (["verify", "--suite", "spectrum"], "suite spectrum: 5000 levels on 2500003 fine matrix rows"),
    (["verify", "--suite", "all"], "suite spectrum: 5000 levels on 2500003 fine matrix rows"),
    (["verify", "--suite", "ortho"], "suite ortho: 5000 levels on 5888 quadrature nodes"),
    (["table", "--what", "spectrum"], "5000 levels on 2500003 fine matrix rows"),
])
def test_size_above_the_budget_exits_1_before_any_work(argv, message, tmp_path, capsys):
    # N=3, lambda=1, r=1, m=3 (tau = 6): at 0.2 us per fine row and level the spectrum alone
    # would take about an hour
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 3, "lambda": 1, "r": 1, "omega": 1, "s": 0, "m": 3}))
    start = time.perf_counter()
    assert main(argv + ["--config", str(path), "--levels", "5000"]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith(f"xtcs: error: {message} exceed the size budget of 8388608 ")
    assert err.count("\n") == 1
    assert err.endswith("; lower --levels\n" if "ortho" in argv else
                        "; lower --levels or --points\n")


@pytest.mark.parametrize("m", [10 ** 6, 10 ** 12])
@pytest.mark.parametrize("argv, prefix", [
    (["verify", "--suite", "residual"], "suite residual: "),
    (["verify", "--suite", "spectrum"], "suite spectrum: "),
    (["verify", "--suite", "ortho"], "suite ortho: "),
    (["verify", "--suite", "local-energy"], "suite local-energy: "),
    (["verify", "--suite", "all"], "suite residual: "),
    (["local-energy"], ""),
    (["local-energy", "--samples", "1"], ""),
    (["table", "--what", "potential"], ""),
    (["table", "--what", "potential", "--points", "2"], ""),
    (["table", "--what", "wavefunction"], ""),
    (["table", "--what", "spectrum"], ""),
])
def test_laguerre_degree_above_the_budget_exits_1_before_any_work(m, argv, prefix, tmp_path,
                                                                   capsys):
    # the recurrence runs m steps: m = 1e6 took 23-55 s a call, and m = 1e12 never finished
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 3, "lambda": 1, "r": 1, "omega": 1, "s": 0, "m": m}))
    start = time.perf_counter()
    assert main(argv + ["--config", str(path)]) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"xtcs: error: {prefix}Laguerre degree {m} (m, or a level) x ")
    assert captured.err.endswith(" exceeds the size budget of 8388608; lower m\n")


@pytest.mark.parametrize("m, argv, expected", [
    (500, ["verify", "--suite", "all"], "".join(f"{s}: PASS\n" for s in SUITES)),
    (10 ** 4, ["verify", "--suite", "local-energy"], "local-energy: PASS\n"),
])
def test_large_m_under_the_degree_budget_still_passes(m, argv, expected, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 3, "lambda": 1, "r": 2, "omega": 1, "s": 0, "m": m}))
    assert main(argv + ["--config", str(path)]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("cfg, levels", [
    ({"N": 2, "lambda": 1, "r": 1, "omega": 1, "s": 0, "m": 0}, 8),  # tau = 3
    ({"N": 3, "lambda": 1, "r": 1, "omega": 1, "s": 0, "m": 2}, 12),  # tau = 6
])
def test_ortho_domain_holds_the_top_level_of_many_levels(cfg, levels, tmp_path, capsys):
    # a margin of 30 + 2 alpha past the top turning point left its norm tail above 1e-10
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(path), "--suite", "ortho",
                 "--levels", str(levels)]) == 0
    assert capsys.readouterr().out == "ortho: PASS\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cfg, e0", [
    # exp(-g/2) underflowed Psi to 0 when Psi itself was evaluated
    ({"N": 30, "lambda": 1, "r": 1, "omega": 1, "s": 0, "m": 0}, 44.0),
    # Jastrow overflow times exp(-g/2) underflow gave a NaN mean
    ({"N": 30, "lambda": 2, "r": 29, "omega": 1, "s": 0, "m": 1}, 885.0),
])
def test_local_energy_holds_at_n30(cfg, e0, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["local-energy", "--config", str(path), "--samples", "20", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["E_analytic"] == e0
    assert abs(doc["mean"] - e0) <= 1e-5 * e0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_local_energy_holds_at_tiny_omega(tmp_path, capsys):
    # omega^2 and the squared deviations underflow float64 at omega = 1e-300
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 3, "lambda": 1, "r": 1, "omega": 1e-300, "s": 0, "m": 1}))
    assert main(["local-energy", "--config", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 0 < doc["stddev"] <= 1e-5 * doc["mean"]
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--suite", "local-energy", "--perturb", "1.01",
                 "--out", str(out)]) == 2
    spread = json.loads((out / "report_local-energy.json").read_text())["items"][0]
    assert spread["name"] == "stddev / |mean|" and spread["value"] >= 1e-4


@pytest.mark.parametrize("m", [60, 100, 200])
def test_residual_passes_at_large_m(m, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 3, "lambda": 1, "r": 2, "omega": 1, "s": 0, "m": m}))
    out = tmp_path / "reports"
    assert main(["verify", "--config", str(path), "--suite", "residual", "--out", str(out)]) == 0
    doc = json.loads((out / "report_residual.json").read_text())
    assert [item["value"] < 1e-8 for item in doc["items"][:4]] == [True] * 4
    meta = doc["metadata"]
    # levels 0-3 share the grid of level 3, which reaches furthest
    grid = verify.default_residual_grid(3, ModelParams.from_json_dict(doc["params"]))
    spacing = (grid[-1] - grid[0]) / (len(grid) - 1)
    assert set(meta) == {"spacing", "grid_points"} and meta["grid_points"] == len(grid)
    assert meta["spacing"] == spacing and 0.049 < spacing <= 0.05  # omega = 1
    text = (out / "report_residual.txt").read_text()
    assert f"# grid_points: {len(grid)}" in text and "fd_order" not in text


@pytest.mark.parametrize("cfg, suite, message", [
    # tau = 1.6: the residual suite passes, the solver rejects tau <= 2
    ({"N": 2, "lambda": 0.3, "r": 1, "omega": 1, "s": 0, "m": 1}, "spectrum", "tau = 1.6 <= 2"),
    # s = 1: four suites pass, the many-body local energy exists for s = 0 only
    ({"N": 3, "lambda": 2, "r": 1, "omega": 1, "s": 1, "m": 1}, "local-energy",
     "local energy implemented for degree s = 0 only"),
])
def test_validation_error_inside_a_suite_names_the_suite(cfg, suite, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(path), "--samples", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"xtcs: error: suite {suite}: {message}")
    assert captured.out.count(": PASS") == SUITES.index(suite)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_local_energy_exits_1_without_nan(tmp_path, capsys):
    # L_200^(alpha)(-g) overflows float64 here, quietly: the stage raises on the result
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 60, "lambda": 3, "r": 59, "omega": 1, "s": 0, "m": 200}))
    out = tmp_path / "out"
    assert main(["local-energy", "--config", str(path), "--samples", "4",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("xtcs: error: local energy: kinetic energy is not finite")
    assert captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()
    assert main(["verify", "--config", str(path), "--suite", "local-energy",
                 "--samples", "4", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "xtcs: error: suite local-energy: local energy: kinetic energy is not finite")
    assert captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv, prefix", [
    (["local-energy", "--seed", "-1"], ""),
    (["verify", "--suite", "local-energy", "--seed", "-5"], "suite local-energy: "),
])
def test_negative_seed_exits_1_with_one_line(argv, prefix, config, capsys):
    assert main(argv + ["--config", config, "--samples", "5"]) == 1
    err = capsys.readouterr().err
    assert err == f"xtcs: error: {prefix}seed must be >= 0, got {argv[-1]}\n"


@pytest.mark.parametrize("cfg", [
    # tau = 1.6, m = 60: the FD residual read 4.2e-6 here against the 1e-8 gate
    {"N": 2, "lambda": 0.3, "r": 1, "omega": 1, "s": 0, "m": 60},
    # the local energy with a fixed FD step read mean errors of 9.3e-5 and 6.0e-3 here
    {"N": 150, "lambda": 1, "r": 1, "omega": 1, "s": 0, "m": 0},
    {"N": 300, "lambda": 1, "r": 1, "omega": 1, "s": 0, "m": 0},
])
def test_jet_derivatives_pass_where_fd_stencils_failed(cfg, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    if cfg["m"]:
        assert main(["verify", "--config", str(path), "--suite", "residual"]) == 0
    else:
        assert main(["local-energy", "--config", str(path), "--samples", "20"]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True


@pytest.mark.parametrize("omega", [1e-306, 1e-300, 1.0, 1e300])
def test_consistency_scaling_item_passes_at_every_omega(omega, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 3, "lambda": 1, "r": 1, "omega": omega, "s": 0, "m": 2}))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--suite", "consistency", "--out", str(out)]) == 0
    items = json.loads((out / "report_consistency.json").read_text())["items"]
    scaling = [item for item in items if "at omega" in item["name"]]
    assert len(scaling) == 1 and scaling[0]["passed"] and scaling[0]["value"] <= 1e-15


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("omega", [1e-310, 1.7e308])
def test_consistency_item_at_omega_beyond_float64_exits_1_naming_the_stage(omega, tmp_path,
                                                                           capsys):
    # w = 1e-310: the item at omega reads its forms at rho = s / sqrt(w) up to 1e156, whose
    # square overflows; w = 1.7e308: w times a form does
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 3, "lambda": 1, "r": 1, "omega": omega, "s": 0, "m": 2}))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--suite", "consistency", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("xtcs: error: suite consistency: consistency: an m=1 form at omega "
                            f"= {omega:.17g} is not finite\n")
    assert captured.out == "" and not out.exists()


def test_consistency_catches_a_misplaced_omega(tmp_path, monkeypatch, capsys):
    # beta2 = 2 w instead of 2 / w cancels in trap units; only the scaling item sees it
    def misplaced(p):
        w, tau = p.omega, p.tau
        return ExtConstants(alpha1=-4 * w * (tau - 1), alpha2=8.0, beta1=tau - 1, beta2=2 * w)

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 3, "lambda": 1, "r": 1, "omega": 2, "s": 0, "m": 1}))
    monkeypatch.setattr(verify, "ext_constants", misplaced)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--suite", "consistency", "--out", str(out)]) == 2
    failed = [item["name"] for item in json.loads((out / "report_consistency.json").read_text())[
        "items"] if not item["passed"]]
    assert failed == ["m=1 extension: each form at omega vs omega x its trap-unit value "
                      "(max rel diff)"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nan_in_a_report_exits_1_and_writes_no_json(tmp_path, capsys):
    # L_200^(alpha)(-g) overflows in the residual suite's eigenfunctions: the residual stage
    # stops before a NaN residual reaches the report
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 60, "lambda": 3, "r": 59, "omega": 1, "s": 0, "m": 200}))
    out = tmp_path / "reports"
    code = main(["verify", "--config", str(path), "--suite", "residual", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == ("xtcs: error: suite residual: residual: Phi_0 is not finite "
                            "(Laguerre overflow)\n")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv", [["verify", "--suite", "spectrum", "--out", "reports"],
                                  ["table", "--what", "spectrum", "--out", "tables"]])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spectrum_laguerre_overflow_exits_1_with_one_line(argv, tmp_path, capsys, monkeypatch):
    # L_200^(alpha)(-g) overflows float64 here, so v_new is NaN on the solver grid
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 60, "lambda": 3, "r": 59, "omega": 1, "s": 0, "m": 200}))
    assert main(argv + ["--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("xtcs: error: ")
    assert "spectrum: v_new is not finite" in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not (tmp_path / argv[-1]).exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("what, column", [("potential", "v_eff_extended"),
                                          ("wavefunction", "phi_extended")])
def test_table_with_a_non_finite_value_exits_1_and_writes_no_csv(what, column, tmp_path,
                                                                 capsys):
    # L_200^(alpha)(-g) overflows float64 here: the extended columns would read nan
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 60, "lambda": 3, "r": 59, "omega": 1, "s": 0, "m": 200}))
    out = tmp_path / "tables"
    for extra in ([], ["--out", str(out)]):
        assert main(["table", "--config", str(path), "--what", what] + extra) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"xtcs: error: table {what}: {column} is not finite "
                                "in 1001 of 1001 rows\n")
        assert captured.out == ""
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("what", ["potential", "wavefunction"],
                         ids=["table-potential", "table-wavefunction"])
def test_omega_whose_square_overflows_exits_1_with_one_line(what, tmp_path, capsys):
    # w = 1e300: the physical tables hold w^2 rho^2 / 2, which overflows float64 (a Python
    # float w ** 2 raised OverflowError)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 3, "lambda": 1, "r": 1, "omega": 1e300, "s": 0, "m": 1}))
    out = tmp_path / "out"
    assert main(["table", "--what", what, "--config", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"xtcs: error: table {what}: v_eff_conventional is not finite in "
                            "1001 of 1001 rows\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("what", ["potential", "wavefunction"])
def test_table_whose_default_rho_max_leaves_float64_exits_1_naming_the_table(what, tmp_path,
                                                                             capsys):
    # w = 1e-310: the wall sqrt(wall_g / w) is past float64; no --rho-max was given
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 3, "lambda": 1, "r": 1, "omega": 1e-310, "s": 0, "m": 1}))
    assert main(["table", "--what", what, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"xtcs: error: table {what}: the default rho_max leaves float64\n"
    assert captured.out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("omega", [1e-300, 1e-160, 1e150, 1e200, 1e300])
def test_radial_checks_hold_at_extreme_omega(omega, tmp_path, capsys):
    # every radial check runs in trap units, so omega never enters a grid or a matrix: the
    # consistency items equal those at omega = 1, the spectrum's energies are omega times
    # theirs, and table --what spectrum reads the same ladders (with omega in the grids,
    # w ** 2 and w g left float64: E_0 read 2.4e4 times too large at 1e-300, 1e150 exited 1)
    reports, tables = {}, {}
    for w in (1.0, omega):
        path = tmp_path / f"{w}.json"
        path.write_text(json.dumps({"N": 3, "lambda": 1, "r": 1, "omega": w, "s": 0, "m": 1}))
        out = tmp_path / f"out-{w}"
        for suite in ("spectrum", "consistency"):
            assert main(["verify", "--config", str(path), "--suite", suite, "--out", str(out)]) == 0
            reports[w, suite] = json.loads((out / f"report_{suite}.json").read_text())
        assert main(["table", "--what", "spectrum", "--config", str(path), "--out", str(out)]) == 0
        tables[w] = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)
    assert capsys.readouterr().err == ""
    for suite in ("spectrum", "consistency"):
        unit, scaled = reports[1.0, suite], reports[omega, suite]
        assert scaled["passed"] is True
        if suite == "consistency":  # all but the scaling law's item, which runs at omega
            scaling = [i for i, item in enumerate(unit["items"]) if "at omega" in item["name"]]
            assert len(scaling) == 1 and unit["items"][scaling[0]]["value"] == 0
            del scaled["items"][scaling[0]], unit["items"][scaling[0]]
            assert scaled["items"] == unit["items"]
    for ladder in ("conventional", "extended"):
        unit, scaled = (reports[w, "spectrum"]["metadata"][ladder] for w in (1.0, omega))
        assert scaled["grid"] == unit["grid"]
        assert np.allclose(scaled["raw_fine"], omega * np.array(unit["raw_fine"]), rtol=1e-15,
                           atol=0)
        for row, unit_row in zip(scaled["levels"], unit["levels"]):
            assert row["e_analytic"] == omega * unit_row["e_analytic"]
            assert row["e_numeric"] == pytest.approx(omega * unit_row["e_numeric"], rel=1e-15)
            assert row["rel_err"] <= 1e-6
            assert row["rel_err"] == pytest.approx(unit_row["rel_err"], rel=1e-6)
    assert tables[omega][:, 0].tolist() == [0, 1, 2, 3]
    assert np.allclose(tables[omega][:, 1:4], omega * tables[1.0][:, 1:4], rtol=1e-15, atol=0)
    assert np.all(tables[omega][:, 4:] <= 1e-6)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", [["verify", "--suite", "spectrum"],
                                     ["table", "--what", "spectrum"]])
def test_spectrum_beyond_float64_exits_1_naming_the_stage(command, tmp_path, capsys):
    # w = 1e306: the trap-unit ladder is finite, but w times the fine matrix's norm (the
    # roundoff scale of tol_iso) is not; without the check tol_iso = inf passed every level
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 3, "lambda": 1, "r": 1, "omega": 1e306, "s": 0, "m": 1}))
    out = tmp_path / "out"
    assert main(command + ["--config", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    prefix = "suite spectrum: " if command[0] == "verify" else ""
    assert captured.err == (f"xtcs: error: {prefix}spectrum: the fine matrix norm scaled by "
                            "omega = 1e+306 leaves float64's normal range\n")
    assert captured.out == "" and not out.exists()
    with pytest.raises(NonFiniteError, match="spectrum: the fine matrix norm scaled by omega"):
        verify.isospectrality_check(ModelParams(3, 1.0, 1, 1e306, ext_index=1))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("perturb", [[], ["--perturb", "1.01"]])
@pytest.mark.parametrize("omega", [1e-320, 3e-321])
def test_spectrum_below_the_normal_range_exits_1_naming_the_stage(omega, perturb, tmp_path,
                                                                   capsys):
    # subnormal energies carry fewer than 53 bits: the 1 % control exited 0 at 1e-320 and the
    # correct model exited 2 at 3e-321
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 3, "lambda": 1, "r": 1, "omega": omega, "s": 0, "m": 1}))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--suite", "spectrum", "--out", str(out)]
                + perturb) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"xtcs: error: suite spectrum: spectrum: the ladder scaled by omega "
                            f"= {omega:.17g} leaves float64's normal range\n")
    assert captured.out == "" and not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", [["local-energy"], ["verify", "--suite", "local-energy"]])
def test_local_energy_runs_in_trap_lengths_across_the_normal_range(command, tmp_path, capsys):
    # at omega = 1e-308 the positions are ~1e154 and their squares left float64 ("rho must be
    # finite"); at 1e306 v_new in physical units overflowed, and the sum of the energies
    # would; at 1e-310 omega E_0 is subnormal, so the scan exits 1 naming its stage
    path = tmp_path / "cfg.json"
    for omega, code in ((1e-308, 0), (1e306, 0), (1e-310, 1)):
        path.write_text(json.dumps({"N": 3, "lambda": 1, "r": 1, "omega": omega, "s": 0,
                                    "m": 1}))
        assert main(command + ["--config", str(path), "--samples", "40"]) == code
        captured = capsys.readouterr()
        prefix = "suite local-energy: " if command[0] == "verify" else ""
        assert captured.err == ("" if code == 0 else
                                f"xtcs: error: {prefix}local energy: the energy scaled by "
                                f"omega = {omega:.17g} leaves float64's normal range\n")


@pytest.mark.parametrize("argv, points, levels", [
    (["verify", "--suite", "spectrum", "--points", "2"], 2, 4),
    (["verify", "--suite", "spectrum", "--levels", "12", "--points", "10"], 10, 12),
    (["table", "--what", "spectrum", "--levels", "9", "--points", "5"], 5, 9),
])
def test_too_few_spectrum_points_name_the_flags(argv, points, levels, config, capsys):
    assert main(argv + ["--config", config]) == 1
    prefix = "suite spectrum: " if argv[0] == "verify" else ""
    assert capsys.readouterr().err == (f"xtcs: error: {prefix}--points {points} is below "
                                       f"max(3, --levels) = {max(3, levels)}\n")


@pytest.mark.parametrize("omega", [1e-300, 1e160, 1e300])
def test_residual_suite_passes_at_extreme_omega(omega, tmp_path, capsys):
    # the residual is dimensionless and runs in trap units, where no factor of omega appears
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 3, "lambda": 1, "r": 1, "omega": omega, "s": 0, "m": 1}))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--suite", "residual", "--out", str(out)]) == 0
    items = json.loads((out / "report_residual.json").read_text())["items"]
    assert all(item["value"] <= 1e-11 for item in items[:4])
    assert items[4]["value"] > 1.5  # the 2g+alpha control


@pytest.mark.parametrize("argv, prefix", [
    (["local-energy"], ""),
    (["verify", "--suite", "local-energy"], "suite local-energy: "),
])
def test_local_energy_size_above_the_budget_exits_1_before_any_work(argv, prefix, config,
                                                                     capsys):
    # 1e9 samples of N = 2: each (samples, N) array of the jet path alone would take 16 GB
    start = time.perf_counter()
    assert main(argv + ["--config", config, "--samples", "1000000000"]) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.err == (f"xtcs: error: {prefix}1000000000 samples of 2 particles exceed "
                            "the size budget of 8388608 samples x particles; lower --samples\n")
    assert captured.out == ""


def _count_calls(monkeypatch, module, name):
    """Record the size of the first argument of every call to module.name."""
    calls, fn = [], getattr(module, name)

    def counted(rho, *args, **kwargs):
        calls.append(len(rho))
        return fn(rho, *args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_residual_suite_evaluates_v_new_once_for_its_levels(config, tmp_path, monkeypatch):
    # one v_new on the grid of level 3 for levels 0-3, one for the 2g+alpha control at level 0
    calls = _count_calls(monkeypatch, verify, "v_new")
    assert main(["verify", "--config", config, "--suite", "residual",
                 "--out", str(tmp_path)]) == 0
    p = cli.load_params(config)
    assert calls == [len(verify.default_residual_grid(n, p)) for n in (3, 0)]


@pytest.mark.parametrize("m, v_new_calls", [(1, 1), (0, 0)])
def test_spectrum_grid_pair_evaluates_each_potential_once(m, v_new_calls, tmp_path,
                                                           monkeypatch):
    # V_eff once for both ladders, v_new once for the extended one (none at m = 0, where
    # the conventional ladders are reused), both on the fine grid
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 3, "lambda": 1, "r": 1, "omega": 1, "s": 0, "m": m}))
    v_eff = _count_calls(monkeypatch, solver, "v_eff_radial")
    v_new = _count_calls(monkeypatch, solver, "v_new")
    assert main(["verify", "--config", str(path), "--suite", "spectrum",
                 "--out", str(tmp_path / "out")]) == 0
    fine = solver.solver_grid(cli.load_params(str(path)), 4).refined().n_points
    assert v_eff == [fine] and v_new == [fine] * v_new_calls


def test_parser_is_built_once_and_each_call_sees_only_its_arguments(config, monkeypatch):
    seen = []

    def record(p, args):
        seen.append((args.suite, args.points, args.perturb))
        return VerificationReport("recorded", p)

    for suite in ("spectrum", "consistency"):
        monkeypatch.setitem(cli._SUITE_RUNNERS, suite, record)
    assert main(["verify", "--config", config, "--suite", "spectrum", "--points", "3001",
                 "--perturb", "1.01"]) == 0
    assert main(["verify", "--config", config, "--suite", "consistency"]) == 0
    assert seen == [("spectrum", 3001, 1.01), ("consistency", None, 1.0)]
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("argv", [["local-energy", "--samples", "5"],
                                  ["verify", "--suite", "local-energy", "--samples", "5"],
                                  ["table", "--what", "potential", "--points", "8"]])
def test_unwritable_out_exits_1(argv, config, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(argv + ["--config", config, "--out", str(blocker)]) == 1
    assert "xtcs: error: cannot write output:" in capsys.readouterr().err


def _spans_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_functions_still_exist():
    # the benchmark's tracer wraps these by name; a missing one breaks run.py --trace 1
    missing = [(module, func) for module, func, _ in _spans_module().WRAPPED
               if not callable(getattr(importlib.import_module(f"xtcs.{module}"), func, None))]
    assert missing == []


def test_tracer_records_every_layer_of_a_cli_call(config, tmp_path, capsys):
    # the traced form of `xtcs verify` (run.py --trace 1): every call site of a wrapped
    # function is rebound, so each layer's spans nest under cli.main
    spans = _spans_module()
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(["verify", "--config", config, "--suite", "all", "--levels", "2",
                         "--samples", "20", "--out", str(tmp_path / "reports")])
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr()
    assert cli.main is main  # uninstall puts the originals back
    names = {span[2] for span in tracer.spans}
    assert names <= {f"{module}.{func}" for module, func, _ in spans.WRAPPED}
    assert {name.split(".")[0] for name in names} == {module for module, _, _ in spans.WRAPPED}
    roots = [span[2] for span in tracer.spans if span[1] is None]
    assert roots == ["cli.main"]
