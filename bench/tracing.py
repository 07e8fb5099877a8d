"""Span tracing of ksbench's layers, applied from outside the package.

`install` wraps public functions of the package at every name a caller looks
them up by.  `solver` binds `phi_lambda` and `interior_atom` at import and
`barycenter` binds scipy's `linprog`, so each function is rebound in every
ksbench module that holds it, not only in the module that defines it.  The
bordered-Hessian LU factorizations are seen through `solver.spla`, which is
replaced by a copy whose `splu` is wrapped.

A span is `[name, parent, start, end, info]`: `parent` is the index of the
enclosing span (-1 at top level) and `info` is a per-function detail (flow
steps, Newton outcome, query point count, energy value) or `"!Error"` when
the call raised.  Spans stay in memory until `dump`; `summarize` turns them
into the per-layer metrics.
"""
from __future__ import annotations

import functools
import json
import math
import sys
import time
import types
from collections import Counter, defaultdict

FLOW = "solver.flow"
NEWTON = "solver.newton"
SEARCH = "solver.find_critical_point"


def _flow_steps(args, out):
    return out.iterations


def _newton_outcome(args, out):
    return [out.iterations, out.classification]


def _query_points(args, out):
    return len(out)


def _value(args, out):
    return float(out)


# (module, attribute, span name, info) for module-level functions.
FUNCTIONS = [
    ("mesh", "build_builtin", "mesh.build_builtin", None),
    ("mesh", "boundary_distances", "mesh.boundary_distances", _query_points),
    ("mesh", "nearest_boundary_point", "mesh.nearest_boundary_point", None),
    ("mesh", "contains", "mesh.contains", None),
    ("spectrum", "assemble", "spectrum.assemble", None),
    ("spectrum", "eigenpairs", "spectrum.eigenpairs", None),
    ("topology", "indices", "topology.indices", None),
    ("bubbles", "phi_lambda", "bubbles.phi_lambda", None),
    ("bubbles", "interior_atom", "bubbles.interior_atom", None),
    ("bubbles", "dirichlet_slope", "bubbles.dirichlet_slope", None),
    ("barycenter", "spread_points", "barycenter.spread_points", None),
    ("barycenter", "project_to_barycenters",
     "barycenter.project_to_barycenters", None),
    ("barycenter", "psi_map", "barycenter.psi_map", None),
    ("barycenter", "bl_distance", "barycenter.bl_distance", None),
    ("barycenter", "linprog", "barycenter.linprog", None),
    ("solver", "flow", FLOW, _flow_steps),
    ("solver", "newton", NEWTON, _newton_outcome),
    ("solver", "morse_index_at", "solver.morse_index", None),
    ("solver", "continuation", "solver.continuation", None),
    ("solver", "find_critical_point", SEARCH, None),
    ("cli", "main", "cli.main", None),
]

# (attribute, span name, info) for EnergyFunctional methods.
METHODS = [
    ("__init__", "energy.model_init", None),
    ("energy", "energy.energy", _value),
    ("residual", "energy.residual", None),
    ("gradient", "energy.gradient", None),
    ("gradient_norm", "energy.gradient_norm", None),
    ("hessian_operator", "energy.hessian_operator", None),
]

LU = "solver.lu"
SPAN_NAMES = ([name for _, _, name, _ in FUNCTIONS]
              + [name for _, name, _ in METHODS] + [LU])


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self._open = [-1]

    def wrap(self, name, fn, info=None):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, open_[-1], clock(), 0.0, None]
            open_.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[3] = clock()
                span[4] = "!" + type(exc).__name__
                raise
            finally:
                open_.pop()
            span[3] = clock()
            if info is not None:
                span[4] = info(args, out)
            return out

        return traced

    def install(self):
        """Wrap the traced functions in every loaded ksbench module."""
        from ksbench import energy, solver

        modules = [m for k, m in sys.modules.items()
                   if k == "ksbench" or k.startswith("ksbench.")]
        for modname, attr, name, info in FUNCTIONS:
            original = getattr(sys.modules["ksbench." + modname], attr)
            wrapped = self.wrap(name, original, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        cls = energy.EnergyFunctional
        for attr, name, info in METHODS:
            setattr(cls, attr, self.wrap(name, vars(cls)[attr], info))
        spla = types.SimpleNamespace(**vars(solver.spla))
        spla.splu = self.wrap(LU, spla.splu)
        solver.spla = spla

    def dump(self, path, count=None):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans[:count]}, fh)


def load(path):
    with open(path) as fh:
        return json.load(fh)["spans"]


def _raised(span):
    return isinstance(span[4], str) and span[4].startswith("!")


def summarize(spans):
    """Per-layer metrics of one traced pass.

    `<name>.calls` counts spans and `<name>.s` sums self time: a span's
    duration minus the durations of its direct child spans.
    """
    self_s = [s[3] - s[2] for s in spans]
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            self_s[s[1]] -= s[3] - s[2]
            children[s[1]].append(i)
    calls, secs = Counter(), defaultdict(float)
    for s, t in zip(spans, self_s):
        calls[s[0]] += 1
        secs[s[0]] += t
    out = {}
    for name in SPAN_NAMES:
        out[name + ".calls"] = calls[name]
        out[name + ".s"] = secs[name]

    in_flow = []
    for s in spans:
        p = s[1]
        in_flow.append(p >= 0 and (spans[p][0] == FLOW or in_flow[p]))
    flows = [i for i, s in enumerate(spans) if s[0] == FLOW and not _raised(s)]
    steps = sum(spans[i][4] for i in flows)
    # Replay flow's acceptance rule on the energies it evaluated: the first
    # is the start value, each later one is a trial step, accepted when it
    # is finite and does not increase the energy.
    accepted = 0
    for i in flows:
        energies = [spans[c][4] for c in children[i]
                    if spans[c][0] == "energy.energy"
                    and not _raised(spans[c])]
        for e_trial in energies[1:]:
            if math.isfinite(e_trial) and e_trial <= energies[0]:
                accepted += 1
                energies[0] = e_trial
    out["solver.flow.steps"] = steps
    out["solver.flow.accept_ratio"] = accepted / steps if steps else 0.0
    residual_in_flow = sum(1 for s, f in zip(spans, in_flow)
                           if f and s[0] == "energy.residual")
    out["energy.residual_per_flow_step"] = (residual_in_flow / steps
                                            if steps else 0.0)
    out["energy.mass_solves"] = (calls["energy.gradient"]
                                 + calls["energy.gradient_norm"])

    newtons = [s for s in spans if s[0] == NEWTON]
    out["solver.newton.failed"] = sum(1 for s in newtons if _raised(s))
    out["solver.newton.iters"] = sum(s[4][0] for s in newtons
                                     if not _raised(s))
    seeds = [s for s in newtons if s[1] >= 0 and spans[s[1]][0] == SEARCH]
    kept = sum(1 for s in seeds if not _raised(s) and s[4][1] != "diverged")
    out["solver.seed_yield"] = kept / len(seeds) if seeds else 0.0
    out["mesh.boundary_distances.points"] = sum(
        s[4] for s in spans
        if s[0] == "mesh.boundary_distances" and not _raised(s))
    return out
