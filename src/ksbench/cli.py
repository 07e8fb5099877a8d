"""Command-line front end.

Subcommands:
  analyze   parameter analysis -> condition report (exit 0 guaranteed,
            1 not guaranteed, 2 degenerate)
  solve     critical-point search -> JSON result (exit 0 nontrivial,
            1 trivial only, 3 failure)
  probe     bubble-estimate probes over a Lambda grid -> CSV + PASS/FAIL
            (exit 0 pass, 1 fail, 2 under-resolved)
  spectrum  eigenvalue export -> CSV

Every subcommand takes --domain, --mesh, --res, --out and --config; all
but `spectrum` take --beta and --rho, and only `spectrum` --eigs, the
length of its export.  Only `analyze` takes --format (json or csv); the
others reject it.

A package error ends every subcommand with a one-line message on stderr
and an exit code: 3 from `solve` whatever the error, and otherwise the code
ERROR_EXITS gives its type (2 unusable input, 4 failed computation).  A bad
option value exits 2 from every subcommand, as argparse does for a flag
value of the wrong type: a --config key that names no option of the
subcommand, a --config value that does not convert to its option's type or
is not one of its choices (even where a flag overrides that entry), a
non-finite --beta or --rho, a negative --steps, and a --lambda-grid that
is not a list of finite positive scales (3 distinct for dirichlet_slope).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
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
# A bad option value that argparse lets through (see _OptionError) exits
# as argparse does for a flag value of the wrong type, with 2 in every
# subcommand.
EXIT_BAD_OPTION = 2
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
    count = functools.partial(solver.index_below,
                              EnergyFunctional.for_mesh(mesh))
    p = Parameters(beta=args.beta, rho=args.rho)
    report = topology.condition_report(p, mesh.area, count, mesh.genus)
    if args.format == "json":
        _output(report.to_json() + "\n", args.out)
    else:
        lines = ["field,value"]
        for key, value in dataclasses.asdict(report).items():
            lines.append(f"{key},{value}")
        _output("\n".join(lines) + "\n", args.out)
    if report.verdict == topology.VERDICT_DEGENERATE:
        return 2
    return 0 if report.verdict == topology.VERDICT_GUARANTEED else 1


def cmd_solve(args):
    mesh = _build_mesh(args)
    p = Parameters(beta=args.beta, rho=args.rho)
    result, _ = solver.find_critical_point(mesh, p, flow_budget=args.steps)
    if result is None:
        sys.stderr.write("error: no critical point found\n")
        return EXIT_SOLVE_FAILED
    _output(json.dumps(result.to_json_dict(p), indent=2) + "\n", args.out)
    return 0 if result.classification == solver.CLASS_NONTRIVIAL else 1


def _lambda_grid(args):
    """The scales of --lambda-grid: finite, positive, and at least 3
    distinct ones for the least-squares slope of dirichlet_slope."""
    try:
        grid = [float(x) for x in args.lambda_grid.split(",")]
    except ValueError:
        raise _OptionError(f"--lambda-grid {args.lambda_grid!r} is not a "
                           f"comma-separated list of numbers") from None
    if not all(np.isfinite(lam) and lam > 0.0 for lam in grid):
        raise _OptionError(f"--lambda-grid {args.lambda_grid!r}: every "
                           f"scale must be finite and positive")
    if args.probe == "dirichlet_slope" and len(set(grid)) < 3:
        raise _OptionError(f"--lambda-grid {args.lambda_grid!r}: "
                           f"dirichlet_slope needs at least 3 distinct "
                           f"scales")
    return grid


def cmd_probe(args):
    grid = _lambda_grid(args)
    mesh = _build_mesh(args)
    model = EnergyFunctional.for_mesh(mesh)
    # Only the eigenmode tail of the t = 0.5 probes reads the basis, and of
    # it only the first mode, which sigma selects: they compute that one
    # eigenpair, and dirichlet_slope and mt none.
    t = 0.5 if args.probe in ("exp_lower", "l2_upper") else 0.0
    basis = spectrum.eigenpairs(mesh, 1) if t > 0 else None
    p = Parameters(beta=args.beta, rho=args.rho)

    mu = bubbles.make_measure([bubbles.boundary_atom(mesh)], [False])
    sigma = np.ones(1)
    cfgs = [TestConfig(lam=lam, zeta=JoinPoint(measure=mu, sphere=sigma, t=t))
            for lam in grid]
    rows = ["lambda,dirichlet,mean,logint,energy"]
    for cfg in cfgs:
        u = bubbles.phi_lambda(cfg, mesh, basis)
        scale = cfg.lam * (1.0 - t)
        rows.append(",".join(_fmt(x) for x in (
            cfg.lam,
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
            cfg, mesh, basis, EXP_LOWER_CONSTANT) for cfg in cfgs]
        ok = min(vals) >= EXP_LOWER_BOUND
        print(f"exp_lower min {min(vals):.4g} bound {EXP_LOWER_BOUND:.4g} "
              f"{'PASS' if ok else 'FAIL'}")
    elif args.probe == "l2_upper":
        vals = [bubbles.l2_upper_statistic(
            cfg, mesh, basis, L2_UPPER_CONSTANT) for cfg in cfgs]
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
    sub.add_argument("--out", help="output file (default stdout)")
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
        if name != "spectrum":
            sub.add_argument("--beta", type=float, default=0.0)
            sub.add_argument("--rho", type=float, default=1.0)
        if name == "spectrum":
            sub.add_argument("--eigs", type=int, default=8)
        if name == "analyze":
            sub.add_argument("--format", default="json",
                             choices=["json", "csv"])
        if name == "solve":
            sub.add_argument("--steps", type=int, default=300)
        if name == "probe":
            sub.add_argument("--probe", default="dirichlet_slope",
                             choices=["dirichlet_slope", "mt", "exp_lower",
                                      "l2_upper"])
            sub.add_argument("--lambda-grid", default="10,20,40,80")
        sub.set_defaults(fn=fn)
    return parser


class _OptionError(ValueError):
    """A bad option value that argparse does not reject: a --config entry
    that names no option, has no value, does not convert to its option's
    type or is not one of its choices, an empty path, or a value of the
    right type that cannot be used."""


def _apply_config(parser, args, argv):
    """The command line parsed again with the --config file's entries as
    the subcommand's defaults, so that every flag form wins over them.  A
    key must name an option of the subcommand (with dashes or underscores),
    other than --config and --help; its value, which a line without `=`
    or with nothing after it lacks, is converted by the option's type and
    checked against its choices, as a flag value is."""
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    sub = subs.choices[args.command]
    actions = {action.dest: action for action in sub._actions
               if action.dest not in ("config", "help")}
    defaults = {}
    for key, value in _read_config_file(args.config).items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise _OptionError(f"{args.config}: {key!r} is not an option of "
                               f"{args.command}")
        if not value:
            raise _OptionError(f"{args.config}: {key!r} has no value")
        cast = action.type or str
        try:
            defaults[action.dest] = cast(value)
        except ValueError:
            raise _OptionError(f"{args.config}: {key} = {value!r} is not a "
                               f"valid {cast.__name__}") from None
        if action.choices and defaults[action.dest] not in action.choices:
            raise _OptionError(f"{args.config}: {key} = {value!r} is not one "
                               f"of {', '.join(map(str, action.choices))}")
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def _check_paths(args):
    """--mesh, --out and --config, where given, must name a file: an empty
    path would be read as not given."""
    for name in ("mesh", "out", "config"):
        if getattr(args, name) == "":
            raise _OptionError(f"--{name} must not be empty")


def _check_parameters(args):
    """--beta and --rho, from a flag or the --config file, must be finite
    where the subcommand takes them, and `solve`'s --steps at least 0."""
    for name in ("beta", "rho"):
        value = getattr(args, name, 0.0)
        if not np.isfinite(value):
            raise _OptionError(f"--{name} must be finite, not {value}")
    if getattr(args, "steps", 0) < 0:
        raise _OptionError(f"--steps must be at least 0, not {args.steps}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_paths(args)
        if args.config:
            args = _apply_config(parser, args, argv)
        _check_parameters(args)
        return args.fn(args)
    except _OptionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_OPTION
    except tuple(ERROR_EXITS) as exc:
        sys.stderr.write(f"error: {exc}\n")
        if args.command == "solve":
            return EXIT_SOLVE_FAILED
        return next(code for cls, code in ERROR_EXITS.items()
                    if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
