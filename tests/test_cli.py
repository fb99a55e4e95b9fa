"""CLI contract: subcommands, exit codes, table schemas, determinism."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from xtcs import NonFiniteError, cli, verify
from xtcs.cli import main
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


def test_table_out_dir(config, tmp_path):
    out = tmp_path / "tables"
    assert main(["table", "--config", config, "--what", "potential",
                 "--points", "8", "--out", str(out)]) == 0
    assert (out / "potential.csv").exists()


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


def test_non_spectrum_calls_leave_scipy_unimported(config):
    # scipy.linalg costs ~0.3 s to import, which a cold `params` call must not pay
    script = (f"import sys\nfrom xtcs.cli import main\n"
              f"assert main(['params', '--json', '--config', {config!r}]) == 0\n"
              f"assert main(['verify', '--suite', 'residual', '--config', {config!r}]) == 0\n"
              "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


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
    def overflowing_gram(levels, p, quad):
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


def test_non_finite_local_energy_exits_1_without_nan(tmp_path, capsys):
    # L_200^(alpha)(-g) overflows float64 here (numpy warns as it does)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 60, "lambda": 3, "r": 59, "omega": 1, "s": 0, "m": 200}))
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning):
        assert main(["local-energy", "--config", str(path), "--samples", "4",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "xtcs: error: local energy: Psi ratio" in captured.err
        assert captured.out == "" and not out.exists()
        assert main(["verify", "--config", str(path), "--suite", "local-energy",
                     "--samples", "4", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "xtcs: error: suite local-energy: local energy: Psi ratio" in captured.err
    assert "NaN" not in captured.out and not out.exists()


def test_nan_in_a_report_exits_1_and_writes_no_json(tmp_path, capsys):
    # L_200^(alpha)(-g) overflows in the residual suite's eigenfunctions: NaN residuals
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 60, "lambda": 3, "r": 59, "omega": 1, "s": 0, "m": 200}))
    out = tmp_path / "reports"
    with pytest.warns(RuntimeWarning):
        code = main(["verify", "--config", str(path), "--suite", "residual", "--out", str(out)])
    assert code == 1
    assert "xtcs: error: suite residual: JSON output" in capsys.readouterr().err
    assert not out.exists()


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


def test_traced_functions_still_exist():
    # the benchmark's tracer wraps these by name; a missing one breaks run.py --trace 1
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(module, func) for module, func, _ in spans.WRAPPED
               if not callable(getattr(importlib.import_module(f"xtcs.{module}"), func, None))]
    assert missing == []
