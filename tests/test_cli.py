"""Command-line interface: exit codes, output formats, config handling."""
import inspect
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import ksbench
from ksbench import cli, errors, solver, spectrum, topology
from ksbench import mesh as meshmod
from ksbench.energy import Parameters


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


@pytest.mark.parametrize("which", ["beta", "shifted"])
def test_resonant_beta_and_shifted_are_degenerate(which, tmp_path):
    # beta = -lambda_1, or beta - rho/|Omega| = -lambda_1, on square16.
    mesh = meshmod.build_builtin("unit_square", 16)
    eigenvalues = spectrum.eigenpairs(mesh, 8).eigenvalues
    rho = 5.0
    beta = float(-eigenvalues[0] + (rho / mesh.area if which == "shifted"
                                    else 0.0))
    report = topology.condition_report(
        Parameters(beta=beta, rho=rho), mesh.area,
        partial(spectrum.bracket_index, eigenvalues), mesh.genus)
    flags = (report.resonant_rho, report.resonant_beta,
             report.resonant_shifted)
    assert flags == (False, which == "beta", which == "shifted")
    assert (report.K, report.I, report.J) == (0, 0, 0)
    assert report.verdict == topology.VERDICT_DEGENERATE
    out = tmp_path / "r.json"
    rc = cli.main(["analyze", "--res", "16", f"--beta={beta!r}",
                   f"--rho={rho!r}", "--out", str(out)])
    assert rc == 2
    assert json.loads(out.read_text()) == json.loads(report.to_json())


def _analyze_csv(tmp_path, rho, code):
    """The CSV report of `analyze` at beta 1 on square32, checked against
    its JSON report: one row per field, each value as the JSON report,
    parsed back, prints it.  Returns its lines."""
    argv = ["analyze", "--domain", "unit_square", "--res", "32",
            "--beta", "1", "--rho", rho]
    out = tmp_path / "report.csv"
    assert cli.main(argv + ["--format", "csv", "--out", str(out)]) == code
    assert cli.main(argv + ["--out", str(tmp_path / "report.json")]) == code
    report = json.loads((tmp_path / "report.json").read_text())
    assert out.read_bytes() == "".join(
        f"{key},{value}\n"
        for key, value in [("field", "value"), *report.items()]).encode()
    return out.read_text().splitlines()


def test_analyze_csv_format(tmp_path):
    lines = _analyze_csv(tmp_path, "1", 1)
    assert lines[0] == "field,value"
    assert any(line.startswith("verdict,") for line in lines)


def test_analyze_csv_format_resonant(tmp_path):
    lines = _analyze_csv(tmp_path, "12.566370614", 2)
    assert "verdict,degenerate" in lines
    assert "resonant_rho,True" in lines


def test_analyze_counts_the_whole_index(monkeypatch, capsys):
    # On square48 at beta = -3, rho = 150, J counts 14 eigenvalues below
    # rho/|Omega| - beta, more than the lowest 8, with no eigensolve: I and
    # J are each counted on either side of the resonance tolerance.
    calls = {"eigsh": 0, "splu": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spla, "eigsh", counted("eigsh", spla.eigsh))
    monkeypatch.setattr(spla, "splu", counted("splu", spla.splu))
    rc = cli.main(["analyze", "--res", "48", "--beta", "-3", "--rho", "150"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert json.loads(out)["J"] == 14
    assert err == ""
    assert calls == {"eigsh": 0, "splu": 4}


@pytest.mark.parametrize("which, truncated", [
    ("beta", "not_guaranteed"), ("shifted", "guaranteed_nontrivial")])
def test_analyze_finds_resonances_beyond_the_eighth_eigenvalue(
        which, truncated, square48, square48_basis40, capsys):
    # beta = -lambda_10, or beta - rho/|Omega| = -lambda_13 at beta = -3,
    # on square48: the lowest 8 eigenvalues miss either resonance.
    lam = square48_basis40.eigenvalues
    p = (Parameters(beta=float(-lam[9]), rho=1.0) if which == "beta" else
         Parameters(beta=-3.0, rho=float(square48.area * (lam[12] - 3.0))))
    assert topology.condition_report(
        p, square48.area, partial(spectrum.bracket_index, lam[:8]),
        square48.genus).verdict == truncated
    rc = cli.main(["analyze", "--res", "48", f"--beta={p.beta!r}",
                   f"--rho={p.rho!r}"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert report["verdict"] == "degenerate"
    assert (report["resonant_rho"], report["resonant_beta"],
            report["resonant_shifted"]) == (False, which == "beta",
                                            which == "shifted")


# A 2 x 2 square, 9 vertices: too few for 8 eigenpairs.
NINE_VERTEX_MESH = ("9 8\n0 0\n1 0\n2 0\n0 1\n1 1\n2 1\n0 2\n1 2\n2 2\n"
                    "0 1 4\n0 4 3\n1 2 5\n1 5 4\n3 4 7\n3 7 6\n4 5 8\n"
                    "4 8 7\n")


def test_analyze_takes_a_nine_vertex_mesh(capsys, tmp_path):
    # analyze computes no eigenpairs.
    path = tmp_path / "square.mesh"
    path.write_text(NINE_VERTEX_MESH)
    rc = cli.main(["analyze", "--mesh", str(path)])
    assert rc in (0, 1)
    assert capsys.readouterr().err == ""


def test_solve_takes_a_nine_vertex_mesh(capsys, tmp_path):
    # solve computes max(I, 2) eigenpairs: 2 at beta = 0 (I = 0), and at
    # beta = -45, where all 8 nonconstant eigenvalues lie below 45, 8, as
    # many as the mesh has: eigenpairs' own one-line error.
    path = tmp_path / "square.mesh"
    path.write_text(NINE_VERTEX_MESH)
    rc = cli.main(["solve", "--mesh", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert json.loads(captured.out)["classification"] == "trivial"
    assert captured.err == ""
    rc = cli.main(["solve", "--mesh", str(path), "--beta", "-45"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: eigenpair count 8 ") and err.count("\n") == 1


def test_solve_takes_no_eigs(capsys, tmp_path):
    # solve computes the eigenpairs its seeds read: argparse rejects
    # --eigs with one error line (a --config key `eigs` is
    # test_config_key_naming_no_option_exits_2's).
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--res", "8", "--eigs", "4", "--out", str(out)])
    assert exc.value.code == 2
    assert [line for line in capsys.readouterr().err.splitlines()
            if "error" in line] \
        == ["ksbench: error: unrecognized arguments: --eigs 4"]
    assert not out.exists()


@pytest.mark.parametrize("command, fmt", [("solve", "csv"),
                                          ("spectrum", "json"),
                                          ("probe", "json")])
def test_format_is_analyze_only(command, fmt, capsys, tmp_path):
    # Only analyze has a choice of format: elsewhere --format would be
    # accepted and ignored, so argparse rejects it.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--res", "8", "--format", fmt, "--out", str(out)])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert not out.exists()


def test_solve_coercive_exit_1(tmp_path):
    out = tmp_path / "sol.json"
    rc = cli.main(["solve", "--domain", "unit_square", "--res", "24",
                   "--beta", "1", "--rho", "1", "--out", str(out)])
    assert rc == 1
    sol = json.loads(out.read_text())
    assert sol["classification"] == "trivial"


def test_solve_reports_the_whole_morse_index(tmp_path):
    # At beta = -150 the trivial state has 14 negative directions, more
    # than the lowest 8 eigenvalues.
    out = tmp_path / "sol.json"
    rc = cli.main(["solve", "--domain", "unit_square", "--res", "24",
                   "--beta", "-150", "--rho", "1", "--steps", "0",
                   "--out", str(out)])
    assert rc == 1
    sol = json.loads(out.read_text())
    assert sol["classification"] == "trivial"
    assert sol["morse_index"] == 14


def test_solve_at_resonant_rho_writes_json(tmp_path):
    out = tmp_path / "sol.json"
    rc = cli.main(["solve", "--res", "24", "--beta", "1",
                   f"--rho={4.0 * np.pi!r}", "--out", str(out)])
    assert rc in (0, 1)
    sol = json.loads(out.read_text())
    assert sol["classification"] == ("nontrivial" if rc == 0 else "trivial")


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


# --eigs, which only spectrum takes, where a test sets it.
EIGS = {"spectrum": ["--eigs", "2"]}


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

    # analyze counts its indices by inertia, with no eigenbasis; the
    # default probe reads no eigenbasis, exp_lower one eigenpair.
    if command == "analyze":
        monkeypatch.setattr(solver, "index_below", fail)
    else:
        monkeypatch.setattr(spectrum, "eigenpairs", fail)
    probe = ["--probe", "exp_lower"] if command == "probe" else []
    rc = cli.main([command, "--res", "8", "--out", str(tmp_path / "out")]
                  + probe)
    assert rc == (3 if command == "solve" else ERROR_EXIT_CODES[error])
    err = capsys.readouterr().err
    if command == "analyze" and error is errors.ResonanceError:
        # A resonance of the count is the report's degenerate verdict.
        assert err == ""
        report = json.loads((tmp_path / "out").read_text())
        assert report["verdict"] == "degenerate"
    else:
        assert err == "error: injected failure\n"


@pytest.mark.parametrize("command", ["spectrum", "solve"])
def test_arpack_error_exits_with_one_line(command, monkeypatch, capsys,
                                          tmp_path):
    # An ARPACK failure other than no convergence is a ConvergenceError too.
    def fail(*args, **kwargs):
        raise spla.ArpackError(-9999)

    monkeypatch.setattr(spla, "eigsh", fail)
    rc = cli.main([command, "--res", "8", "--out", str(tmp_path / "out")])
    assert rc == (3 if command == "solve" else 4)
    err = capsys.readouterr().err
    assert err.startswith("error: eigensolver failed: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("eigs", ["0", "-1"])
@pytest.mark.parametrize("command", ["spectrum"])
def test_eigs_below_one_exits_with_one_line(command, eigs, capsys, tmp_path):
    rc = cli.main([command, "--res", "8", "--eigs", eigs,
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("probe", ["dirichlet_slope", "mt"])
def test_t0_probes_factor_nothing(probe, monkeypatch, tmp_path):
    calls = {"eigenpairs": 0, "splu": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spectrum, "eigenpairs",
                        counted("eigenpairs", spectrum.eigenpairs))
    monkeypatch.setattr(spla, "splu", counted("splu", spla.splu))
    rc = cli.main(["probe", "--probe", probe, "--res", "64",
                   "--lambda-grid", "10,20,30", "--out", str(tmp_path / "out")])
    assert rc == 0
    assert calls == {"eigenpairs": 0, "splu": 0}


def test_exp_lower_probe_reads_one_eigenbasis(monkeypatch, tmp_path):
    calls = []
    eigenpairs = spectrum.eigenpairs

    def counted(mesh, count):
        calls.append(count)
        return eigenpairs(mesh, count)

    monkeypatch.setattr(spectrum, "eigenpairs", counted)
    rc = cli.main(["probe", "--probe", "exp_lower", "--res", "64",
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    assert calls == [1]


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


def test_benchmark_tracer_installs():
    # bench/tracing.py wraps EnergyFunctional's methods by name, the thin
    # residual, gradient and gradient_norm views among them, as
    # `bench/worker.py --spans` does; a method it names that the class
    # lacks makes every traced benchmark run fail.
    root = Path(__file__).resolve().parents[1]
    code = ("import sys\n"
            "sys.path[:0] = sys.argv[1:]\n"
            "import workloads, tracing\n"
            "tracing.Tracer().install()\n")
    run = subprocess.run([sys.executable, "-c", code, str(root / "src"),
                          str(root / "bench")],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr


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


@pytest.mark.parametrize("command", ["analyze", "solve", "probe", "spectrum"])
def test_config_key_naming_no_option_exits_2(command, capsys, tmp_path):
    # A misspelt key, another subcommand's option or --config itself.
    out = tmp_path / "out"
    for key in ["bta", "steps" if command != "solve" else "probe", "config",
                *(["format"] if command != "analyze" else []),
                *(["eigs"] if command != "spectrum" else []),
                *(["beta", "rho"] if command == "spectrum" else [])]:
        cfg = tmp_path / "run.cfg"
        rho = "rho = 2\n" if command != "spectrum" else ""
        cfg.write_text(f"{rho}{key} = 3\n")
        rc = cli.main([command, "--res", "8", *EIGS.get(command, []),
                       "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"'{key}'" in err and command in err
        assert not out.exists()


def test_config_format_takes_effect_in_analyze(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = csv\nres = 8\n")
    out = tmp_path / "r.csv"
    rc = cli.main(["analyze", "--config", str(cfg), "--out", str(out)])
    assert rc in (0, 1)
    assert out.read_text().splitlines()[0] == "field,value"


# A value outside the option's choices, also where a flag overrides it.
@pytest.mark.parametrize("command, key, value, flags", [
    ("analyze", "format", "xml", []), ("probe", "probe", "nonsense", []),
    ("solve", "domain", "hexagon", []),
    ("analyze", "format", "xml", ["--format=csv"]),
    ("solve", "domain", "hexagon", ["--domain=disk"])])
def test_config_value_outside_choices_exits_2(command, key, value, flags,
                                              capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    out = tmp_path / "out"
    rc = cli.main([command, "--res", "8", *EIGS.get(command, []), *flags,
                   "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{key} = {value!r}" in err
    assert not out.exists()


def test_config_dashed_key_sets_its_option(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda-grid = 10,20,40\nprobe = mt\n")
    out = tmp_path / "probe.csv"
    rc = cli.main(["probe", "--res", "16", "--config", str(cfg),
                   "--out", str(out)])
    assert rc in (0, 1)
    lines = out.read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["10", "20", "40"]


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


def test_spectrum_non_finite_mesh_exit_2(tmp_path, capsys):
    mesh = tmp_path / "nan.mesh"
    mesh.write_text("4 2\n0 0\n1 0\n1 nan\n0 1\n0 1 2\n0 2 3\n")
    rc = cli.main(["spectrum", "--mesh", str(mesh),
                   "--out", str(tmp_path / "spec.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == (
        "error: vertex coordinates and triangle areas must be finite\n")


@pytest.mark.parametrize("command", ["analyze", "solve", "probe", "spectrum"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["beta", "rho"])
def test_non_finite_parameter_exits_2(name, value, command, capsys,
                                      tmp_path):
    out = str(tmp_path / "out")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name} = {value}\n")
    if command == "spectrum":
        # spectrum takes neither --beta nor --rho: argparse rejects the
        # flag, and the --config entry names no option of spectrum.
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--res", "8", f"--{name}={value}", "--out", out])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{name}" in capsys.readouterr().err
        rc = cli.main([command, "--res", "8", "--config", str(cfg),
                       "--out", out])
        assert rc == 2
        assert capsys.readouterr().err \
            == f"error: {cfg}: '{name}' is not an option of spectrum\n"
        assert not (tmp_path / "out").exists()
        return
    rc = cli.main([command, "--res", "8", f"--{name}={value}", "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"--{name}" in err
    assert not (tmp_path / "out").exists()
    # The same value from the config file.
    rc = cli.main([command, "--res", "8", "--config", str(cfg), "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"--{name}" in err


@pytest.mark.parametrize("steps", ["-1", "-300"])
def test_negative_steps_exits_2(steps, capsys, tmp_path):
    out = str(tmp_path / "out")
    rc = cli.main(["solve", "--res", "8", f"--steps={steps}", "--out", out])
    assert rc == 2
    assert capsys.readouterr().err \
        == f"error: --steps must be at least 0, not {steps}\n"
    assert not (tmp_path / "out").exists()
    # The same value from the config file.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"steps = {steps}\n")
    rc = cli.main(["solve", "--res", "8", "--config", str(cfg), "--out", out])
    assert rc == 2
    assert capsys.readouterr().err \
        == f"error: --steps must be at least 0, not {steps}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid, probe", [
    ("abc", "dirichlet_slope"), ("10,,20", "mt"),
    ("0,1,2", "dirichlet_slope"), ("-10,20,40", "mt"),
    ("10,nan,40", "exp_lower"), ("10,20,inf", "l2_upper"),
    ("10,20", "dirichlet_slope"), ("10,10,10", "dirichlet_slope")])
def test_bad_lambda_grid_exits_2(grid, probe, capsys, tmp_path):
    out = str(tmp_path / "out")
    rc = cli.main(["probe", "--res", "8", "--probe", probe,
                   f"--lambda-grid={grid}", "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --lambda-grid ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"probe = {probe}\nlambda-grid = {grid}\n")
    rc = cli.main(["probe", "--res", "8", "--config", str(cfg), "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --lambda-grid ") and err.count("\n") == 1


def test_two_scales_are_enough_outside_dirichlet_slope(capsys, tmp_path):
    rc = cli.main(["probe", "--res", "64", "--probe", "mt",
                   "--lambda-grid", "10,20", "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


# An entry without a value, a line without `=` or with nothing after it,
# once read as not given: `mesh` alone printed the unit-square result.
@pytest.mark.parametrize("command", ["analyze", "solve", "probe", "spectrum"])
@pytest.mark.parametrize("line", ["mesh", "mesh =", "out =", "out"])
def test_config_entry_without_value_exits_2(command, line, capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"res = 8\n{line}\n")
    rc = cli.main([command, *EIGS.get(command, []), "--config", str(cfg)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert f"'{line.split()[0]}' has no value" in captured.err


@pytest.mark.parametrize("command", ["analyze", "solve", "probe", "spectrum"])
@pytest.mark.parametrize("flags", [["--mesh="], ["--mesh", ""], ["--out="],
                                   ["--config="]])
def test_empty_path_flag_exits_2(command, flags, capsys):
    rc = cli.main([command, "--res", "8", *EIGS.get(command, []), *flags])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flags[0].rstrip('=')} must not be empty\n"
