"""CLI contract: subcommands, exit codes, table schemas, determinism."""

import json

import pytest

from xtcs.cli import main


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


def test_verify_numerical_error_exits_1_and_keeps_finished_reports(tmp_path, capsys):
    # tau = 407: the ortho quadrature fails after residual and spectrum pass
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"N": 12, "lambda": 3, "r": 11, "omega": 1, "s": 0, "m": 1}))
    out = tmp_path / "reports"
    code = main(["verify", "--config", str(path), "--suite", "all", "--points", "6001",
                 "--samples", "10", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert "suite ortho:" in captured.err
    assert "residual: PASS" in captured.out and "spectrum: PASS" in captured.out
    for suite in ("residual", "spectrum"):
        assert (out / f"report_{suite}.json").exists()
    assert not (out / "report_ortho.json").exists()
