"""The benchmark's three workloads.

A workload is a `setup(seed)` that builds the inputs of the timed
operations, and a list of operations `(name, op, check)`.  `op(state)` is
timed and returns a result; `state` holds the set-up inputs and the results
of the earlier operations under their names.  `check(state, result)` runs
after the timed pass and returns `(ok, detail)`.

Every call into ksbench goes through a module attribute (`solver.newton`,
never a name imported from it), so the tracer's rebinding sees it.  The
checks run after the pass, and spans they record are not written out.

Why each workload was chosen, and which per-layer metrics it should and
should not move, is written up in WORKLOADS.md.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import re

import numpy as np

from ksbench import barycenter, bubbles, cli, mesh, solver, spectrum, topology
from ksbench.energy import EnergyFunctional, Parameters

FOUR_PI = 4.0 * math.pi


def _cli(argv):
    """cli.main with its standard output captured: (exit code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# -- search: disk128, beta = -5, the paper's headline fixture ---------------

SOLVE = ["solve", "--domain", "disk", "--res", "128", "--beta", "-5"]
E_REF_13_8 = -15.9186898645
BETA = -5.0


def search_setup(seed):
    disk = mesh.build_builtin("disk", 128)
    return {"basis": spectrum.eigenpairs(disk, 8),
            "model": EnergyFunctional.for_mesh(disk)}


def _solve(rho):
    def op(state):
        rc, text = _cli(SOLVE + ["--rho", rho])
        return rc, json.loads(text)
    return op


def _check_solve_13(state, result):
    rc, out = result
    ok = (rc in (0, 1) and out["residual"] <= 1e-6
          and out["classification"] in (solver.CLASS_TRIVIAL,
                                        solver.CLASS_NONTRIVIAL))
    return ok, (f"exit {rc}, {out['classification']}, "
                f"residual {out['residual']:.3g}")


def _check_solve_13_8(state, result):
    rc, out = result
    e = out["energy"]
    ok = (rc == 0 and out["classification"] == solver.CLASS_NONTRIVIAL
          and abs(e - E_REF_13_8) <= 1e-8 * abs(E_REF_13_8)
          and out["morse_index"] == 3)
    return ok, (f"exit {rc}, {out['classification']}, E {e!r}, "
                f"Morse index {out['morse_index']}")


def _continue(state):
    _, out = state["solve rho=13.8"]
    return solver.continuation(state["model"], state["basis"],
                               Parameters(BETA, 13.8), Parameters(BETA, 14.0),
                               steps=10, u0=np.array(out["field"]))


def _check_continuation(state, result):
    states, stop = result
    ok = (stop is None and len(states) == 11
          and all(r.classification == solver.CLASS_NONTRIVIAL for r in states))
    return ok, f"{len(states)} states, stop reason {stop!r}"


SEARCH = [
    ("solve rho=13", _solve("13"), _check_solve_13),
    ("solve rho=13.8", _solve("13.8"), _check_solve_13_8),
    ("continuation rho=13.8..14", _continue, _check_continuation),
]


# -- scale: square256, few calls with a high cost per call -------------------

PROBE = ["probe", "--domain", "unit_square", "--res", "256",
         "--probe", "dirichlet_slope"]
MORSE_PAIRS = 2


def morse_pairs(rng, count):
    """Seeded (beta, rho) pairs whose trivial Hessian is well away from
    singular: every shifted eigenvalue lambda + beta - rho of the unit
    square stays 0.5 or more from zero, so the index is well defined."""
    lam = np.array([math.pi ** 2 * (i * i + j * j)
                    for i in range(8) for j in range(8) if i or j])
    pairs = []
    while len(pairs) < count:
        beta, rho = rng.uniform(-12.0, 3.0), rng.uniform(0.5, 24.0)
        if np.abs(lam + beta - rho).min() >= 0.5:
            pairs.append(Parameters(beta=float(beta), rho=float(rho)))
    return pairs


def scale_setup(seed):
    return {"pairs": morse_pairs(np.random.default_rng(seed), MORSE_PAIRS)}


def _probe(state):
    return _cli(PROBE)


def _check_probe(state, result):
    rc, text = result
    m = re.search(r"slope (\S+) expected", text)
    slope = float(m.group(1)) if m else math.nan
    ok = rc == 0 and abs(slope - 4.0 * FOUR_PI) <= 0.03 * 4.0 * FOUR_PI
    return ok, f"exit {rc}, slope {slope:.6g} (16 pi = {4.0 * FOUR_PI:.6g})"


def _interior_atom(state):
    square = mesh.build_builtin("unit_square", 256)
    state["square256"] = square
    return bubbles.interior_atom(square)


def _check_interior_atom(state, result):
    ok = bool(np.all(np.abs(result - 0.5) <= 1e-12))
    return ok, f"atom {result.tolist()}"


def _newton_square256(state):
    square = state["square256"]
    model = EnergyFunctional.for_mesh(square)
    mu = bubbles.make_measure([state["interior atom square256"]], [True])
    seed = 0.1 * bubbles.bubble(mu, 5.0, square).values
    return solver.newton(model, seed, Parameters(beta=1.0, rho=1.0),
                         damped=True)


def _check_newton(state, result):
    ok = (result.classification == solver.CLASS_TRIVIAL
          and result.residual <= 1e-8)
    return ok, (f"{result.classification} after {result.iterations} "
                f"iterations, residual {result.residual:.3g}")


def _square48_basis(state):
    square = mesh.build_builtin("unit_square", 48)
    return square, spectrum.eigenpairs(square, 8)


def _check_square48_basis(state, result):
    lam = result[1].eigenvalues[0]
    ok = abs(lam - math.pi ** 2) <= 0.01 * math.pi ** 2
    return ok, f"lambda_1 {lam:.6g}"


def _morse(k):
    def op(state):
        square, _ = state["square48 eigenbasis"]
        model = EnergyFunctional.for_mesh(square)
        return solver.morse_index_at(model, np.zeros(square.num_vertices),
                                     state["pairs"][k], count=8)

    def check(state, result):
        square, basis = state["square48 eigenbasis"]
        p = state["pairs"][k]
        expected = topology.trivial_morse_index(p, square.area,
                                                basis.eigenvalues)
        return result == expected, (f"beta {p.beta:.4f} rho {p.rho:.4f}: "
                                    f"index {result}, expected {expected}")
    return f"morse pair {k}", op, check


SCALE = [
    ("probe dirichlet_slope square256", _probe, _check_probe),
    ("interior atom square256", _interior_atom, _check_interior_atom),
    ("newton square256", _newton_square256, _check_newton),
    ("square48 eigenbasis", _square48_basis, _check_square48_basis),
] + [_morse(k) for k in range(MORSE_PAIRS)]


# -- concentration: barycenter and mesh geometry, no solver ------------------

SPREAD_EPS = 0.2 / 3.0
RANDOM_DENSITIES = 10
EPS = 0.2
ATOM = np.array([0.5, 0.5])   # one atom, off the square25 vertex grid


def _square_boundary_distance(points):
    return np.minimum(np.minimum(points[:, 0], 1.0 - points[:, 0]),
                      np.minimum(points[:, 1], 1.0 - points[:, 1]))


def concentration_setup(seed):
    square = mesh.build_builtin("unit_square", 48)
    basis = spectrum.eigenpairs(square, 8)
    model = EnergyFunctional.for_mesh(square)
    rng = np.random.default_rng(seed)
    densities = []
    for _ in range(RANDOM_DENSITIES):
        centers = rng.uniform(0.1, 0.9, size=(rng.integers(1, 4), 2))
        scale = rng.uniform(5.0, 300.0)
        mu = bubbles.make_measure(centers, [True] * len(centers))
        densities.append((np.exp(bubbles.bubble_values(mu, scale, square)),
                          int(rng.integers(0, 5))))
    two = bubbles.make_measure([np.array([0.3, 0.35]),
                                np.array([0.7, 0.65])], [True, True])
    half = bubbles.make_measure([np.array([0.5, 0.0])], [False])
    field = model.project_zero_mean(bubbles.bubble_values(half, 200.0, square))
    low = basis.eigenvectors[:, :2]
    field = field - low @ (low.T @ (model.mass @ field))
    coarse = mesh.build_builtin("unit_square", 25)
    return {
        "square": square, "basis": basis, "model": model,
        "densities": densities,
        "two bubbles": np.exp(bubbles.bubble_values(two, 200.0, square)),
        "pure measure": model.field(field),
        "uniform25": barycenter.density_atoms(coarse,
                                              np.ones(coarse.num_vertices)),
    }


def _flat_spread(state):
    square = state["square"]
    return barycenter.spread_points(square, np.ones(square.num_vertices),
                                    SPREAD_EPS, 2)


def _check_flat_spread(state, result):
    if not isinstance(result, barycenter.Spread):
        return False, type(result).__name__
    pts, w = barycenter.density_atoms(state["square"],
                                      np.ones(state["square"].num_vertices))
    gaps = np.linalg.norm(result.points[:, None] - result.points[None], axis=2)
    np.fill_diagonal(gaps, np.inf)
    near = np.linalg.norm(pts[None] - result.points[:, None], axis=2)
    ball_mass = (near <= result.radius) @ w
    ok = (result.weighted_count >= 3 and gaps.min() >= 2.0 * result.radius
          and ball_mass.min() >= result.mass_floor)
    return ok, f"Spread of weighted count {result.weighted_count}"


def _random_spread(k):
    def op(state):
        values, K = state["densities"][k]
        return barycenter.spread_points(state["square"], values, EPS, K)

    def check(state, result):
        # The postconditions of the covering alternative.
        values, K = state["densities"][k]
        pts, w = barycenter.density_atoms(state["square"], values)
        name = type(result).__name__
        if isinstance(result, barycenter.Spread):
            return result.weighted_count >= K + 1, f"{name}, K {K}"
        d = np.linalg.norm(pts[:, None] - result.points[None],
                           axis=2).min(axis=1)
        on_boundary = _square_boundary_distance(
            result.points[~result.interior])
        ok = (result.weighted_count <= K and w[d <= 1.25 * EPS].sum()
              >= 1.0 - EPS and bool(np.all(on_boundary < 1e-9)))
        return ok, f"{name}, K {K}"
    return f"spread random density {k}", op, check


def _project(state):
    return barycenter.project_to_barycenters(state["square"],
                                             state["two bubbles"], EPS, 4)


def _check_project(state, result):
    ok = (result.weighted_count <= 4
          and np.allclose(sorted(result.weights), [0.5, 0.5], atol=1e-2))
    return ok, f"weights {result.weights.tolist()}"


def _bl_projection(state):
    pts, w = barycenter.density_atoms(state["square"], state["two bubbles"])
    proj = state["project two bubbles"]
    return barycenter.bl_distance(barycenter.aggregate_atoms(pts, w, 0.04),
                                  (proj.points, proj.weights))


def _check_bl_projection(state, result):
    return result <= EPS, f"BL {result:.6g} (eps {EPS})"


def _bl_one_atom(state):
    return barycenter.bl_distance(state["uniform25"],
                                  (ATOM[None], np.array([1.0])))


def _check_bl_one_atom(state, result):
    # Every distance in the unit square is below 2, so the optimal test
    # function is |x - c| - 1 and the distance has this closed form.
    pts, w = state["uniform25"]
    exact = float(w @ np.linalg.norm(pts - ATOM, axis=1))
    return abs(result - exact) <= 1e-9, f"BL {result!r}, closed form {exact!r}"


def _psi(state):
    return barycenter.psi_map(state["pure measure"], state["basis"],
                              I=2, K=1, eps=0.25)


def _check_psi(state, result):
    ok = (result.t < 1e-10 and result.measure is not None
          and result.measure.weighted_count <= 1)
    return ok, f"t {result.t:.3g}"


CONCENTRATION = [
    ("spread flat square48", _flat_spread, _check_flat_spread),
] + [_random_spread(k) for k in range(RANDOM_DENSITIES)] + [
    ("project two bubbles", _project, _check_project),
    ("bl aggregated vs projection", _bl_projection, _check_bl_projection),
    ("bl uniform square25 vs one atom", _bl_one_atom, _check_bl_one_atom),
    ("psi_map pure measure", _psi, _check_psi),
]


WORKLOADS = {
    "search": (search_setup, SEARCH),
    "scale": (scale_setup, SCALE),
    "concentration": (concentration_setup, CONCENTRATION),
}
