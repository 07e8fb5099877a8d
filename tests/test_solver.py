"""Gradient flow, Newton polishing, Morse indices and blow-up diagnostics."""
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh

from ksbench import bubbles, mesh as meshmod, solver, spectrum, topology
from ksbench.barycenter import JoinPoint
from ksbench.energy import EnergyFunctional, Field, Parameters
from ksbench.errors import ConvergenceError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

COERCIVE = Parameters(beta=1.0, rho=1.0)

ORACLE_MESHES = {
    "unit_square": meshmod.build_builtin("unit_square", 16),
    "disk": meshmod.build_builtin("disk", 40),
    "annulus": meshmod.build_builtin("annulus", 30),
}


def _dense_eigenvalues(model, u, p, count):
    """The former dense Morse eigensolve: the lowest `count` eigenvalues of
    the Hessian with a penalty on the constant mode, by scipy.linalg.eigh."""
    A0, c, w = model.hessian_operator(u, p)
    A = A0.toarray()
    A += c * np.outer(w, w)
    m = model.lumped
    pen = 1e3 * (1.0 + abs(p.beta) + abs(p.rho) / model.area
                 + float(np.abs(A0.diagonal()).max())) / model.area
    A += pen * np.outer(m, m)
    A = 0.5 * (A + A.T)
    count = min(count, A.shape[0] - 1)
    return eigh(A, model.mass.toarray(), subset_by_index=[0, count - 1],
                eigvals_only=True)


def _morse_index_dense(model, u, p, count, eig_guard=1e-8):
    """The former dense `morse_index_at`."""
    vals = _dense_eigenvalues(model, u, p, count)
    if np.abs(vals).min() < eig_guard:
        raise ConvergenceError(
            "near-zero Hessian eigenvalue: critical point is not Morse")
    return int(np.sum(vals < 0.0))


def _flow_oracle(model, seed, p, step_budget, flow_tol=solver.FLOW_TOL):
    """The former `flow`: energy, gradient and gradient norm each computed
    by its own call, so an accepted step evaluated the same point three
    times."""
    u = model.project_zero_mean(seed.values if isinstance(seed, Field) else seed)
    e = model.energy(u, p)
    dt = 0.1
    it = 0
    gnorm = model.gradient_norm(u, p)
    while it < step_budget and gnorm > flow_tol:
        g = model.gradient(u, p).values
        trial = model.project_zero_mean(u - dt * g)
        e_trial = model.energy(trial, p)
        it += 1
        if not np.isfinite(e_trial) or e_trial > e:
            dt *= 0.5
            if dt < 1e-14:
                break
            continue
        u, e = trial, e_trial
        dt *= 1.2
        gnorm = model.gradient_norm(u, p)
        if np.abs(u).max() > solver.BLOWUP_NORM_CAP:
            return solver.SolveResult(
                u=Field(model.mesh, u), residual=gnorm, energy=e,
                classification=solver.CLASS_DIVERGED, morse_index=None,
                iterations=it)
    cls = solver._classify(model, u, gnorm, p, flow_tol)
    return solver.SolveResult(u=Field(model.mesh, u), residual=gnorm,
                              energy=e, classification=cls, morse_index=None,
                              iterations=it)


def test_flow_coercive_decays_toward_trivial(square48, square48_basis):
    model = EnergyFunctional.for_mesh(square48)
    seed = 0.5 * square48_basis.eigenvectors[:, 0]
    h0 = model.h1_norm(seed)
    res = solver.flow(model, model.field(seed), COERCIVE, step_budget=2000)
    assert model.h1_norm(res.u.values) < 0.05 * h0
    # Newton polishing lands exactly on the trivial state.
    polished = solver.newton(model, res.u, COERCIVE, damped=True)
    assert polished.classification == solver.CLASS_TRIVIAL


def test_flow_energy_monotone(square48, square48_basis):
    model = EnergyFunctional.for_mesh(square48)
    seed = model.field(2.0 * square48_basis.eigenvectors[:, 0])
    e0 = model.energy(seed.values, COERCIVE)
    res = solver.flow(model, seed, COERCIVE, step_budget=50)
    assert res.energy <= e0 + 1e-12


def test_newton_from_near_zero(square48):
    model = EnergyFunctional.for_mesh(square48)
    rng = np.random.default_rng(4)
    u0 = 1e-2 * model.project_zero_mean(rng.standard_normal(
        square48.num_vertices))
    res = solver.newton(model, u0, COERCIVE)
    assert res.classification == solver.CLASS_TRIVIAL
    assert res.residual < 1e-9


def test_newton_quadratic_tail(disk128, disk128_basis):
    # Polish a nontrivial state found above the fold of the disk branch.
    model = EnergyFunctional.for_mesh(disk128)
    p = Parameters(beta=-5.0, rho=13.8)
    cfg = bubbles.TestConfig(
        lam=30.0, zeta=JoinPoint(measure=None,
                                 sphere=np.array([0.0, 0.0, 1.0]), t=1.0))
    seed = bubbles.phi_lambda(cfg, disk128, disk128_basis)
    smooth = solver.flow(model, seed, p, step_budget=300)
    res = solver.newton(model, smooth.u, p, damped=True, max_iter=60,
                        seed_descriptor="mode3")
    assert res.classification == solver.CLASS_NONTRIVIAL
    assert res.residual < 1e-9


def test_morse_index_at_zero_matches_bracket(square48, square48_basis):
    from ksbench import topology
    model = EnergyFunctional.for_mesh(square48)
    for p in (Parameters(beta=-5.0, rho=13.0), Parameters(beta=1.0, rho=1.0),
              Parameters(beta=-12.0, rho=7.0)):
        J = topology.trivial_morse_index(p, model.area,
                                         square48_basis.eigenvalues)
        idx = solver.morse_index_at(model, np.zeros(square48.num_vertices),
                                    p, count=8)
        assert idx == J


def test_find_critical_point_coercive_is_trivial(square48, square48_basis):
    pick, found = solver.find_critical_point(square48, square48_basis,
                                             COERCIVE, flow_budget=100)
    assert pick is not None
    assert pick.classification == solver.CLASS_TRIVIAL
    assert all(r.classification == solver.CLASS_TRIVIAL for r in found)


def test_find_critical_point_nontrivial_disk(disk128, disk128_basis):
    p = Parameters(beta=-5.0, rho=13.8)
    pick, _ = solver.find_critical_point(disk128, disk128_basis, p)
    assert pick is not None
    assert pick.classification == solver.CLASS_NONTRIVIAL
    assert pick.residual < 1e-8
    assert pick.morse_index is not None


def test_continuation_tracks_nontrivial_branch(disk128, disk128_basis):
    model = EnergyFunctional.for_mesh(disk128)
    p0 = Parameters(beta=-5.0, rho=13.7)
    p1 = Parameters(beta=-5.0, rho=14.0)
    pick, _ = solver.find_critical_point(disk128, disk128_basis, p0)
    assert pick.classification == solver.CLASS_NONTRIVIAL
    results, stop = solver.continuation(model, disk128_basis, p0, p1,
                                        steps=10, u0=pick.u)
    assert stop is None
    assert len(results) == 11
    assert all(r.classification == solver.CLASS_NONTRIVIAL for r in results)
    energies = np.array([r.energy for r in results])
    assert np.abs(np.diff(energies)).max() < 1.0


def test_continuation_stops_at_resonance(square48, square48_basis):
    model = EnergyFunctional.for_mesh(square48)
    four_pi = 4.0 * np.pi
    p0 = Parameters(beta=1.0, rho=four_pi - 1.0)
    p1 = Parameters(beta=1.0, rho=four_pi + 1.0)   # midpoint lands on 4*pi
    results, stop = solver.continuation(model, square48_basis, p0, p1,
                                        steps=2)
    assert stop is not None
    assert "resonance" in stop


def test_local_mass_quantization(disk128):
    model = EnergyFunctional.for_mesh(disk128)
    interior = bubbles.make_measure([np.array([0.0, 0.0])], [True])
    u = bubbles.bubble_values(interior, 40.0, disk128)
    diag = solver.local_mass(model, u, Parameters(beta=0.0, rho=8 * np.pi),
                             radius=0.3)
    assert diag.interpretation == "interior_like"

    boundary = bubbles.make_measure([bubbles.boundary_atom(disk128)], [False])
    u = bubbles.bubble_values(boundary, 40.0, disk128)
    diag = solver.local_mass(model, u, Parameters(beta=0.0, rho=4 * np.pi),
                             radius=0.3)
    assert diag.interpretation == "boundary_like"

    flat = solver.local_mass(model, np.zeros(disk128.num_vertices),
                             Parameters(beta=0.0, rho=10.0), radius=0.3)
    assert flat.interpretation == "none"
    assert not flat.candidate_points


def test_triviality_tol_scales_with_parameters():
    small = solver.triviality_tol(Parameters(beta=0.0, rho=1.0))
    large = solver.triviality_tol(Parameters(beta=-50.0, rho=100.0))
    assert large > small


def test_solve_result_json_roundtrip(square48):
    model = EnergyFunctional.for_mesh(square48)
    res = solver.newton(model, np.zeros(square48.num_vertices), COERCIVE)
    d = res.to_json_dict(COERCIVE)
    assert d["classification"] == solver.CLASS_TRIVIAL
    assert d["beta"] == 1.0 and d["rho"] == 1.0
    assert len(d["field"]) == square48.num_vertices


def _oracle_field(mesh, kind, seed):
    """A zero-mean field away from u = 0: scaled noise or a bubble."""
    model = EnergyFunctional.for_mesh(mesh)
    rng = np.random.default_rng(seed)
    if kind == "noise":
        values = rng.uniform(0.2, 2.0) * rng.standard_normal(mesh.num_vertices)
    else:
        centre = mesh.vertices[rng.integers(mesh.num_vertices)]
        mu = bubbles.make_measure([centre], [True])
        values = bubbles.bubble_values(mu, rng.uniform(2.0, 20.0), mesh)
    return model.project_zero_mean(values)


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(st.sampled_from(sorted(ORACLE_MESHES)),
                  st.sampled_from(["noise", "bubble"]),
                  st.integers(0, 2 ** 32 - 1),
                  st.floats(-10.0, 4.0), st.floats(-30.0, 30.0))
def test_morse_index_matches_dense(name, kind, seed, beta, rho):
    mesh = ORACLE_MESHES[name]
    model = EnergyFunctional.for_mesh(mesh)
    u = _oracle_field(mesh, kind, seed)
    p = Parameters(beta=beta, rho=rho)
    dense = _dense_eigenvalues(model, u, p, 8)
    hypothesis.assume(np.abs(dense).min() > 1e-3)
    assert solver.morse_index_at(model, u, p, 8) \
        == _morse_index_dense(model, u, p, 8)
    sparse = solver._lowest_eigenvalues(model, u, p, 8)
    assert np.all(np.abs(sparse - dense) <= 1e-9 * np.abs(dense))


def test_morse_index_at_zero_on_square128():
    # V = 16641: a dense Hessian would need about 2 GB.
    square = meshmod.build_builtin("unit_square", 128)
    model = EnergyFunctional.for_mesh(square)
    lam = spectrum.eigenpairs(square, 8).eigenvalues
    p = Parameters(beta=-5.0, rho=13.0)
    idx = solver.morse_index_at(model, np.zeros(square.num_vertices), p,
                                count=8)
    assert idx == topology.trivial_morse_index(p, model.area, lam)


# Mesh and flow step budget.
FLOW_MESHES = {"square48": (meshmod.build_builtin("unit_square", 48), 200),
               "disk40": (ORACLE_MESHES["disk"], 600)}
FLOW_PARAMS = [Parameters(beta=-5.0, rho=13.0), COERCIVE,
               Parameters(beta=2.0, rho=-20.0)]


@pytest.mark.parametrize("name", sorted(FLOW_MESHES))
@pytest.mark.parametrize("kind", ["noise", "bubble", "smooth"])
def test_flow_matches_oracle_and_newton_is_quiet(name, kind):
    # Smooth seeds on disk40 at rho = -20 stop at the flow tolerance.
    mesh, budget = FLOW_MESHES[name]
    model = EnergyFunctional.for_mesh(mesh)
    x, y = mesh.vertices.T
    for seed, p in enumerate(FLOW_PARAMS):
        if kind == "smooth":
            u0 = model.field(0.5 * np.cos(np.pi * x) * np.cos(np.pi * y))
        else:
            u0 = model.field(_oracle_field(mesh, kind, seed))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = solver.flow(model, u0, p, budget)
            try:
                solver.newton(model, got.u, p, damped=True, max_iter=60)
            except ConvergenceError:
                pass
        want = _flow_oracle(model, u0, p, budget)
        assert np.array_equal(got.u.values, want.u.values)
        assert (got.energy, got.residual, got.iterations, got.classification) \
            == (want.energy, want.residual, want.iterations,
                want.classification)


@pytest.mark.parametrize("kind", ["nan", "spike"])
def test_flow_and_newton_quiet_on_unusable_fields(kind):
    mesh = ORACLE_MESHES["disk"]
    model = EnergyFunctional.for_mesh(mesh)
    u = np.zeros(mesh.num_vertices)
    u[7] = np.nan if kind == "nan" else 1e4
    u = model.project_zero_mean(u)
    p = Parameters(beta=-5.0, rho=13.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flowed = solver.flow(model, u, p, 300)
        polished = solver.newton(model, u, p, damped=True)
    assert flowed.classification == solver.CLASS_DIVERGED
    assert flowed.iterations == 0
    assert polished.classification == solver.CLASS_DIVERGED


def test_lowest_eigenvalues_are_reproducible():
    mesh = ORACLE_MESHES["disk"]
    model = EnergyFunctional.for_mesh(mesh)
    u = _oracle_field(mesh, "noise", 3)
    p = Parameters(beta=2.0, rho=30.0)
    first = solver._lowest_eigenvalues(model, u, p, 8)
    for _ in range(3):
        assert np.array_equal(solver._lowest_eigenvalues(model, u, p, 8),
                              first)
