"""Self-test of the benchmark's per-layer counters.

    python3 bench/selftest.py [--seed N]

Runs two traced passes of every workload with the same seed, then checks
that

- every count (calls, flow steps, Newton iterations and failures, LU and LP
  solves, query points, and the ratios made of them) is the same in both
  passes, and
- every metric in EXPECT is nonzero on the workloads that exercise its layer
  and exactly zero on the workloads that bypass it.

Prints each violation and exits 1 if there is one.  Run it from the root of
a checkout; it takes about two minutes.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import run
import tracing

ALL = {"search", "scale", "concentration"}
BARYCENTER = ({"concentration"}, {"search", "scale"})
SOLVER = ({"search", "scale"}, {"concentration"})
FLOW = ({"search"}, {"scale", "concentration"})

# metric: (workloads where it must be nonzero, workloads where it must be 0)
EXPECT = {
    "solver.flow.calls": FLOW,
    "solver.flow.steps": FLOW,
    "solver.flow.accept_ratio": FLOW,
    "energy.residual_per_flow_step": FLOW,
    "energy.residual.calls": SOLVER,
    "energy.energy.calls": SOLVER,
    "energy.mass_solves": SOLVER,
    "solver.newton.calls": SOLVER,
    "solver.newton.iters": SOLVER,
    "solver.lu.calls": SOLVER,
    "energy.hessian_operator.calls": SOLVER,
    "solver.morse_index.calls": SOLVER,
    "solver.continuation.s": ({"search"}, {"scale", "concentration"}),
    "solver.seed_yield": ({"search"}, {"scale", "concentration"}),
    "spectrum.eigenpairs.calls": (ALL, set()),
    "spectrum.assemble.calls": (ALL, set()),
    "energy.model_init.s": (ALL, set()),
    "mesh.build_builtin.s": (ALL, set()),
    "mesh.boundary_distances.calls": (ALL, set()),
    "mesh.contains.s": ({"concentration"}, {"search", "scale"}),
    "mesh.nearest_boundary_point.calls": ({"search", "concentration"},
                                          {"scale"}),
    "bubbles.interior_atom.s": ({"search", "scale"}, {"concentration"}),
    "bubbles.phi_lambda.calls": ({"search", "scale"}, {"concentration"}),
    "bubbles.dirichlet_slope.s": ({"scale"}, {"search", "concentration"}),
    "barycenter.spread_points.s": BARYCENTER,
    "barycenter.project_to_barycenters.s": BARYCENTER,
    "barycenter.psi_map.s": BARYCENTER,
    "barycenter.bl_distance.calls": BARYCENTER,
    "barycenter.linprog.calls": BARYCENTER,
    "topology.indices.calls": ({"search"}, {"scale", "concentration"}),
    "cli.main.s": ({"search", "scale"}, {"concentration"}),
}


def is_count(name):
    return not name.endswith(".s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    declared = {m["name"] for m in json.loads(
        (run.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    problems = [f"{name}: not a per-layer metric of BENCHMARK.json"
                for name in EXPECT if name not in declared]
    run.OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + 3600.0
    for workload in sorted(ALL):
        layers = []
        for _ in range(2):
            result = run.run_pass(workload, args.seed, deadline, traced=True)
            failed = [c[0] for c in result["checks"] if not c[1]]
            if failed:
                problems.append(f"{workload}: checks failed: {failed}")
            layers.append(tracing.summarize(
                tracing.load(result["spans_file"])))
        first, second = layers
        for name in sorted(first):
            if is_count(name) and first[name] != second[name]:
                problems.append(f"{workload}: {name} differs between passes: "
                                f"{first[name]} != {second[name]}")
        for name, (nonzero, zero) in EXPECT.items():
            value = first[name]
            if workload in nonzero and not value > 0:
                problems.append(f"{workload}: {name} is {value}, expected > 0")
            if workload in zero and value != 0:
                problems.append(f"{workload}: {name} is {value}, expected 0")
        print(f"{workload}: " + ", ".join(
            f"{name} {first[name]:g}" for name in sorted(first)
            if is_count(name) and first[name]))
    for problem in problems:
        print("FAIL " + problem)
    print("self-test " + ("failed" if problems else "passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
