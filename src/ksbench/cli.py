"""Command-line front end.

Subcommands:
  analyze   parameter analysis -> condition report (exit 0 guaranteed,
            1 not guaranteed, 2 degenerate)
  solve     critical-point search -> JSON result (exit 0 nontrivial,
            1 trivial only, 3 failure)
  probe     bubble-estimate probes over a Lambda grid -> CSV + PASS/FAIL
            (exit 0 pass, 1 fail, 2 under-resolved)
  spectrum  eigenvalue export -> CSV

A package error ends every subcommand with a one-line message on stderr
and an exit code: 3 from `solve` whatever the error, and otherwise the code
ERROR_EXITS gives its type (2 unusable input, 4 failed computation).  A
--config value that does not convert to its option's type exits 2 from
every subcommand, as argparse does for a bad flag value.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bubbles, mesh as meshmod, solver, spectrum, topology
from .barycenter import JoinPoint
from .bubbles import TestConfig
from .energy import EnergyFunctional, Parameters
from .errors import (ConvergenceError, EmptySpaceError, MeshError,
                     NotConcentratedError, NotInLowSublevelError,
                     RefinementNeededError, ResonanceError)

FMT = "{:.12g}"

EXIT_SOLVE_FAILED = 3
# A --config value of the wrong type is a bad option value, which argparse
# answers with exit 2 in every subcommand.
EXIT_BAD_CONFIG = 2
# Exit code of each error outside `solve`: 2 when the input cannot be used
# (unreadable or invalid mesh, resonant parameters, mesh too coarse, empty
# model space), 4 when a computation on valid input failed.
ERROR_EXITS = {
    OSError: 2,
    MeshError: 2,
    ResonanceError: 2,
    RefinementNeededError: 2,
    EmptySpaceError: 2,
    ConvergenceError: 4,
    NotConcentratedError: 4,
    NotInLowSublevelError: 4,
}

# Frozen probe references: expected Dirichlet slopes per fixture and the
# calibrated statistic constants/bounds (resolution-64 calibration run).
PROBE_SLOPES = {
    "boundary": (16.0 * np.pi, 0.03),
    "interior": (32.0 * np.pi, 0.03),
}
EXP_LOWER_CONSTANT = 1.0
EXP_LOWER_BOUND = -4.5
L2_UPPER_CONSTANT = 6.0
L2_UPPER_BOUND = 0.0
MT_BOUND_MARGIN = 1.0


def _fmt(x):
    return FMT.format(float(x))


def _read_config_file(path):
    overrides = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            overrides[key.strip()] = value.strip()
    return overrides


def _build_mesh(args):
    if args.mesh:
        with open(args.mesh) as fh:
            return meshmod.load_mesh(fh.read())
    return meshmod.build_builtin(args.domain, args.res)


def _output(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args):
    mesh = _build_mesh(args)
    basis = spectrum.eigenpairs(mesh, args.eigs)
    p = Parameters(beta=args.beta, rho=args.rho)
    report = topology.condition_report(p, mesh.area, basis.eigenvalues,
                                       mesh.genus)
    if args.format == "json":
        _output(report.to_json() + "\n", args.out)
    else:
        lines = ["field,value"]
        for key, value in json.loads(report.to_json()).items():
            lines.append(f"{key},{value}")
        _output("\n".join(lines) + "\n", args.out)
    if report.verdict == topology.VERDICT_DEGENERATE:
        return 2
    return 0 if report.verdict == topology.VERDICT_GUARANTEED else 1


def cmd_solve(args):
    mesh = _build_mesh(args)
    basis = spectrum.eigenpairs(mesh, args.eigs)
    p = Parameters(beta=args.beta, rho=args.rho)
    result, _ = solver.find_critical_point(mesh, basis, p,
                                           flow_budget=args.steps)
    if result is None:
        sys.stderr.write("error: no critical point found\n")
        return EXIT_SOLVE_FAILED
    _output(json.dumps(result.to_json_dict(p), indent=2) + "\n", args.out)
    return 0 if result.classification == solver.CLASS_NONTRIVIAL else 1


def _probe_fixture(mesh, kind):
    if kind == "interior":
        return bubbles.make_measure([bubbles.interior_atom(mesh)], [True])
    return bubbles.make_measure([bubbles.boundary_atom(mesh)], [False])


def cmd_probe(args):
    mesh = _build_mesh(args)
    grid = [float(x) for x in args.lambda_grid.split(",")]
    model = EnergyFunctional.for_mesh(mesh)
    basis = spectrum.eigenpairs(mesh, args.eigs)
    p = Parameters(beta=args.beta, rho=args.rho)

    mu = _probe_fixture(mesh, "boundary")
    sigma = np.zeros(min(1, len(basis)))
    if len(sigma):
        sigma[0] = 1.0
    rows = ["lambda,dirichlet,mean,logint,energy"]
    t = 0.5 if args.probe in ("exp_lower", "l2_upper") else 0.0
    for lam in grid:
        cfg = TestConfig(lam=lam, zeta=JoinPoint(measure=mu, sphere=sigma, t=t))
        u = bubbles.phi_lambda(cfg, mesh, basis)
        scale = lam * (1.0 - t)
        rows.append(",".join(_fmt(x) for x in (
            lam,
            bubbles.dirichlet_energy(mesh, bubbles.bubble_values(mu, scale, mesh)),
            bubbles.bubble_mean(mu, scale, mesh),
            model.log_int_exp(u.values),
            model.energy(u.values, p))))
    _output("\n".join(rows) + "\n", args.out)

    ok = True
    if args.probe == "dirichlet_slope":
        expected, rel = PROBE_SLOPES["boundary"]
        slope = bubbles.dirichlet_slope(mu, grid, mesh)
        ok = abs(slope - expected) <= rel * expected
        print(f"slope {slope:.4g} expected {expected:.4g} "
              f"{'PASS' if ok else 'FAIL'}")
    elif args.probe == "mt":
        stats = []
        for lam in grid:
            u = bubbles.bubble(mu, lam, mesh)
            stats.append(bubbles.mt_probe(u, compactly_supported=False))
        ok = max(stats) <= stats[0] + MT_BOUND_MARGIN
        print(f"mt statistic max {max(stats):.4g} bound "
              f"{stats[0] + MT_BOUND_MARGIN:.4g} {'PASS' if ok else 'FAIL'}")
    elif args.probe == "exp_lower":
        vals = [bubbles.exp_lower_statistic(
            TestConfig(lam=lam, zeta=JoinPoint(measure=mu, sphere=sigma, t=t)),
            mesh, basis, EXP_LOWER_CONSTANT) for lam in grid]
        ok = min(vals) >= EXP_LOWER_BOUND
        print(f"exp_lower min {min(vals):.4g} bound {EXP_LOWER_BOUND:.4g} "
              f"{'PASS' if ok else 'FAIL'}")
    elif args.probe == "l2_upper":
        vals = [bubbles.l2_upper_statistic(
            TestConfig(lam=lam, zeta=JoinPoint(measure=mu, sphere=sigma, t=t)),
            mesh, basis, L2_UPPER_CONSTANT) for lam in grid]
        ok = min(vals) >= L2_UPPER_BOUND
        print(f"l2_upper min {min(vals):.4g} bound {L2_UPPER_BOUND:.4g} "
              f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_spectrum(args):
    mesh = _build_mesh(args)
    basis = spectrum.eigenpairs(mesh, args.eigs)
    rows = ["index,lambda"]
    rows += [f"{i + 1},{_fmt(lam)}" for i, lam in enumerate(basis.eigenvalues)]
    _output("\n".join(rows) + "\n", args.out)
    return 0


def _add_common(sub):
    sub.add_argument("--domain", default="unit_square",
                     choices=meshmod.BUILTIN_NAMES)
    sub.add_argument("--mesh", help="path to a mesh file (overrides --domain)")
    sub.add_argument("--res", type=int, default=32)
    sub.add_argument("--beta", type=float, default=0.0)
    sub.add_argument("--rho", type=float, default=1.0)
    sub.add_argument("--eigs", type=int, default=8)
    sub.add_argument("--out", help="output file (default stdout)")
    sub.add_argument("--format", default="json", choices=["json", "csv"])
    sub.add_argument("--config", help="key=value config file; flags override")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ksbench",
        description="Stationary chemotaxis states on planar Neumann domains")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("analyze", cmd_analyze), ("solve", cmd_solve),
                     ("probe", cmd_probe), ("spectrum", cmd_spectrum)):
        sub = subs.add_parser(name)
        _add_common(sub)
        if name == "solve":
            sub.add_argument("--steps", type=int, default=300)
        if name == "probe":
            sub.add_argument("--probe", default="dirichlet_slope",
                             choices=["dirichlet_slope", "mt", "exp_lower",
                                      "l2_upper"])
            sub.add_argument("--lambda-grid", default="10,20,40,80")
        sub.set_defaults(fn=fn)
    return parser


class _ConfigValueError(ValueError):
    """A --config value that does not convert to its option's type."""


def _given_options(argv):
    """Destinations of the options set on the command line, as argparse
    reads them (so `--bet` counts as `--beta`): the command line parsed
    again with every default suppressed."""
    parser = build_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    for sub in subs.choices.values():
        for action in sub._actions:
            action.default = argparse.SUPPRESS
    return set(vars(parser.parse_args(argv)))


def _apply_config(args, argv):
    """Set each option from the --config file unless the command line
    gives it."""
    given = _given_options(argv)
    for key, value in _read_config_file(args.config).items():
        attr = key.replace("-", "_")
        if attr not in given and hasattr(args, attr):
            cur = getattr(args, attr)
            cast = type(cur) if cur is not None else str
            try:
                setattr(args, attr, cast(value))
            except ValueError:
                raise _ConfigValueError(
                    f"{args.config}: {key} = {value!r} is not a valid "
                    f"{cast.__name__}") from None


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            _apply_config(args, argv)
        return args.fn(args)
    except _ConfigValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_CONFIG
    except tuple(ERROR_EXITS) as exc:
        sys.stderr.write(f"error: {exc}\n")
        if args.command == "solve":
            return EXIT_SOLVE_FAILED
        return next(code for cls, code in ERROR_EXITS.items()
                    if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
