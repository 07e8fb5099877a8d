"""Command-line interface: exit codes, output formats, config handling."""
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ksbench
from ksbench import cli, errors, spectrum


def test_analyze_guaranteed_exit_0(capsys, tmp_path):
    out = tmp_path / "report.json"
    rc = cli.main(["analyze", "--domain", "disk", "--res", "128",
                   "--beta", "-5", "--rho", "13", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert (report["K"], report["I"], report["J"]) == (1, 2, 2)
    assert report["verdict"] == "guaranteed_nontrivial"
    assert report["homology_rank"] == 1
    assert report["homology_degree"] == 3    # 2K + I - 1


def test_analyze_not_guaranteed_exit_1(tmp_path):
    rc = cli.main(["analyze", "--domain", "unit_square", "--res", "32",
                   "--beta", "1", "--rho", "1",
                   "--out", str(tmp_path / "r.json")])
    assert rc == 1


def test_analyze_resonant_exit_2(tmp_path):
    rc = cli.main(["analyze", "--domain", "unit_square", "--res", "32",
                   "--beta", "1", "--rho", "12.566370614",
                   "--out", str(tmp_path / "r.json")])
    assert rc == 2
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["verdict"] == "degenerate"
    assert report["resonant_rho"]


def test_analyze_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    rc = cli.main(["analyze", "--domain", "unit_square", "--res", "32",
                   "--beta", "1", "--rho", "1", "--format", "csv",
                   "--out", str(out)])
    assert rc == 1
    lines = out.read_text().splitlines()
    assert lines[0] == "field,value"
    assert any(line.startswith("verdict,") for line in lines)


def test_solve_coercive_exit_1(tmp_path):
    out = tmp_path / "sol.json"
    rc = cli.main(["solve", "--domain", "unit_square", "--res", "24",
                   "--beta", "1", "--rho", "1", "--out", str(out)])
    assert rc == 1
    sol = json.loads(out.read_text())
    assert sol["classification"] == "trivial"


def test_solve_bad_mesh_exit_3(tmp_path, capsys):
    rc = cli.main(["solve", "--mesh", str(tmp_path / "missing.mesh")])
    assert rc == 3
    assert "error" in capsys.readouterr().err


def test_spectrum_csv(tmp_path):
    out = tmp_path / "spec.csv"
    rc = cli.main(["spectrum", "--domain", "unit_square", "--res", "48",
                   "--eigs", "4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,lambda"
    lam1 = float(lines[1].split(",")[1])
    assert lam1 == pytest.approx(np.pi ** 2, rel=0.01)


def test_probe_exp_lower_pass(capsys, tmp_path):
    rc = cli.main(["probe", "--domain", "unit_square", "--res", "64",
                   "--probe", "exp_lower", "--lambda-grid", "10,30,100",
                   "--out", str(tmp_path / "probe.csv")])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_probe_l2_upper_pass(capsys, tmp_path):
    rc = cli.main(["probe", "--domain", "unit_square", "--res", "64",
                   "--probe", "l2_upper", "--lambda-grid", "10,30,100",
                   "--out", str(tmp_path / "probe.csv")])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_probe_mt_pass(capsys, tmp_path):
    rc = cli.main(["probe", "--domain", "unit_square", "--res", "64",
                   "--probe", "mt", "--lambda-grid", "10,20,40,80",
                   "--out", str(tmp_path / "probe.csv")])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_probe_underresolved_exit_2(capsys, tmp_path):
    rc = cli.main(["probe", "--domain", "unit_square", "--res", "32",
                   "--probe", "dirichlet_slope",
                   "--lambda-grid", "10,100,1000",
                   "--out", str(tmp_path / "probe.csv")])
    assert rc == 2
    assert "under-resolved" in capsys.readouterr().err


def test_probe_csv_columns(tmp_path, capsys):
    out = tmp_path / "probe.csv"
    cli.main(["probe", "--domain", "unit_square", "--res", "64",
              "--probe", "mt", "--lambda-grid", "10,20,40,80",
              "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,dirichlet,mean,logint,energy"
    assert len(lines) == 5


def test_config_file_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta = 1\nrho = 1\nres = 32\n")
    rc = cli.main(["analyze", "--config", str(cfg),
                   "--out", str(tmp_path / "r.json")])
    assert rc == 1
    # Explicit flags beat the file.
    rc = cli.main(["analyze", "--config", str(cfg), "--beta", "-5",
                   "--rho", "13", "--domain", "disk", "--res", "64",
                   "--out", str(tmp_path / "r2.json")])
    assert rc == 0


# The documented exit code of every package error outside `solve`.
ERROR_EXIT_CODES = {
    errors.MeshError: 2,
    errors.ResonanceError: 2,
    errors.RefinementNeededError: 2,
    errors.EmptySpaceError: 2,
    errors.ConvergenceError: 4,
    errors.NotConcentratedError: 4,
    errors.NotInLowSublevelError: 4,
}


def test_every_package_error_has_an_exit_code():
    defined = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, Exception)
               and cls.__module__ == errors.__name__}
    assert defined == set(ERROR_EXIT_CODES)
    assert all(cli.ERROR_EXITS[cls] == code
               for cls, code in ERROR_EXIT_CODES.items())


@pytest.mark.parametrize("command", ["analyze", "solve", "probe", "spectrum"])
@pytest.mark.parametrize("error", sorted(ERROR_EXIT_CODES,
                                         key=lambda cls: cls.__name__))
def test_package_error_exit_code(command, error, monkeypatch, capsys,
                                 tmp_path):
    def fail(*args, **kwargs):
        raise error("injected failure")

    monkeypatch.setattr(spectrum, "eigenpairs", fail)
    rc = cli.main([command, "--res", "8", "--out", str(tmp_path / "out")])
    assert rc == (3 if command == "solve" else ERROR_EXIT_CODES[error])
    err = capsys.readouterr().err
    assert err == "error: injected failure\n"


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="needs /proc to count threads")
def test_ks_threads_caps_blas_threads():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS")}
    env["KS_THREADS"] = "1"
    src = str(Path(ksbench.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import ksbench\n"
            "for line in open('/proc/self/status'):\n"
            "    if line.startswith('Threads:'):\n"
            "        print(line.split()[1])\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "1"


def test_missing_config_file_exit_2(tmp_path, capsys):
    rc = cli.main(["analyze", "--config", str(tmp_path / "missing.cfg"),
                   "--out", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "missing.cfg" in err


def test_config_value_that_does_not_cast_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta = x\n")
    for command in ("analyze", "solve"):
        rc = cli.main([command, "--config", str(cfg), "--res", "8",
                       "--out", str(tmp_path / "r.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "beta" in err and "'x'" in err


def test_config_loses_to_flag_with_equals_sign(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta = 3\nrho = 2\nres = 16\n")
    out = tmp_path / "r.json"
    rc = cli.main(["analyze", "--config", str(cfg), "--beta=-5",
                   "--out", str(out)])
    assert rc in (0, 1)
    report = json.loads(out.read_text())
    assert (report["beta"], report["rho"]) == (-5.0, 2.0)


@pytest.mark.parametrize("flags", [["--bet", "-5"], ["--bet=-5"]])
def test_config_loses_to_abbreviated_flag(tmp_path, flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta = 3\nrho = 13\nres = 24\n")
    out = tmp_path / "r.json"
    rc = cli.main(["analyze", "--domain", "disk", "--config", str(cfg),
                   *flags, "--out", str(out)])
    assert rc in (0, 1)
    report = json.loads(out.read_text())
    assert (report["beta"], report["rho"]) == (-5.0, 13.0)
