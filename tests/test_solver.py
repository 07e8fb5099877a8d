"""Gradient flow, Newton polishing, Morse indices and blow-up diagnostics."""
import itertools
import warnings
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh, null_space
from scipy.spatial import cKDTree

import test_mesh
from test_energy import TriangleRuleModel
from test_spectrum import FACTOR_MESHES, _count_splu, _factor_mesh
from ksbench import bubbles, mesh as meshmod, solver, spectrum, topology
from ksbench.barycenter import JoinPoint
from ksbench.energy import (EnergyFunctional, Evaluation, Field, Parameters,
                            field_values)
from ksbench.errors import ConvergenceError, ResonanceError

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


def _null_space_eigenvalues(model, u, p, count=None):
    """The lowest `count` eigenvalues of the Hessian on the zero-mean space,
    all V - 1 for count None, by scipy.linalg.eigh of Q^T H Q against
    Q^T M Q, where Q is an orthonormal basis of the lumped-mass vector's
    null space.  Unlike the penalty of `_dense_eigenvalues`, it leaves the
    matrix norm that eigh's error scales with unchanged."""
    A0, c, w = model.hessian_operator(u, p)
    Q = null_space(model.lumped[None])
    A = Q.T @ (A0 @ Q) + c * np.outer(Q.T @ w, Q.T @ w)
    B = Q.T @ (model.mass @ Q)
    subset = None
    if count is not None:
        subset = [0, min(count, Q.shape[1] - 1) - 1]
    return eigh(0.5 * (A + A.T), 0.5 * (B + B.T), subset_by_index=subset,
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


def _newton_results(monkeypatch):
    """The results of every `solver.newton` call that converges, in call
    order, recorded by a spy."""
    results = []
    newton = solver.newton

    def spy(*args, **kwargs):
        results.append(newton(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(solver, "newton", spy)
    return results


def test_find_critical_point_coercive_is_trivial(square48, monkeypatch):
    results = _newton_results(monkeypatch)
    pick = solver.find_critical_point(square48, COERCIVE, flow_budget=100)
    assert pick is not None
    assert pick.classification == solver.CLASS_TRIVIAL
    assert pick is results[0] and pick.seed_descriptor == "zero"
    assert all(r.classification == solver.CLASS_TRIVIAL for r in results)


def test_find_critical_point_keeps_a_small_nontrivial_state(square24,
                                                             monkeypatch):
    # At beta = rho = 1 the triviality tolerance is 3e-4, so a state of H1
    # norm 5e-4 is nontrivial however close it lies to u = 0: the search
    # returns it after the trivial state of the zero seed.
    model = EnergyFunctional.for_mesh(square24)
    small = spectrum.eigenpairs(square24, 1).eigenvectors[:, 0]
    small *= 5e-4 / model.h1_norm(small)

    def fake_newton(model, u0, p, seed_descriptor, **kwargs):
        u = small if np.any(u0) else np.zeros_like(small)
        return solver.SolveResult(
            u=Field(model.mesh, u), residual=0.0, energy=0.0,
            classification=solver._classify(model, u, 0.0, p, 1e-10),
            morse_index=None, iterations=0, seed_descriptor=seed_descriptor)

    monkeypatch.setattr(solver, "newton", fake_newton)
    results = _newton_results(monkeypatch)
    pick = solver.find_critical_point(square24, COERCIVE, flow_budget=0)
    assert [r.classification for r in results] == [solver.CLASS_TRIVIAL,
                                                   solver.CLASS_NONTRIVIAL]
    assert pick is results[1] and pick.u.values is small


class _Seeded(Exception):
    pass


def _seed_indices(monkeypatch, mesh, p):
    """The (K, I) of `find_critical_point`'s family seeds, read by a spy on
    `_seed_configs` that ends the search there."""
    seen = []

    def spy(mesh, K, I):
        seen.append((K, I))
        raise _Seeded

    monkeypatch.setattr(solver, "_seed_configs", spy)
    with pytest.raises(_Seeded):
        solver.find_critical_point(mesh, p, flow_budget=0)
    (indices,) = seen
    return indices


def test_find_critical_point_at_resonant_rho_seeds_no_family(square24,
                                                             monkeypatch):
    # rho = 4 pi has no concentration index, so K = 0, and beta = 1 puts
    # no eigenvalue below -beta, so I = 0: only the zero seed and the
    # scaled eigenmodes remain.
    p = Parameters(beta=1.0, rho=4.0 * np.pi)
    assert solver._seed_configs(square24, 0, 0) == []
    assert _seed_indices(monkeypatch, square24, p) == (0, 0)


def test_find_critical_point_keeps_the_family_at_a_shifted_resonance(
        monkeypatch):
    # rho = |Omega| (lambda_3 + beta) makes J resonate, where a branch
    # leaves u = 0; K and I do not, so the family seeds keep (K, I) = (1, 2).
    disk = ORACLE_MESHES["disk"]
    basis = spectrum.eigenpairs(disk, 8)
    p = Parameters(beta=-5.0, rho=disk.area * (basis.eigenvalues[2] - 5.0))
    with pytest.raises(ResonanceError):
        topology.indices(p, disk.area,
                         partial(spectrum.bracket_index, basis.eigenvalues))
    assert _seed_indices(monkeypatch, disk, p) == (1, 2)


def test_find_critical_point_seeds_the_whole_index(square24, monkeypatch):
    # At beta = -150 on square24, 14 eigenvalues lie below 150: the family
    # seeds take all 14 sphere directions, not those of the lowest 8.
    p = Parameters(beta=-150.0, rho=1.0)
    assert _seed_indices(monkeypatch, square24, p) == (0, 14)


def test_find_critical_point_sees_a_resonance_beyond_the_eighth_eigenvalue(
        square48, square48_basis40, monkeypatch):
    # beta = -lambda_10 resonates, so I = 0; among the lowest 8 eigenvalues
    # it counted 8.
    lam = square48_basis40.eigenvalues
    p = Parameters(beta=float(-lam[9]), rho=1.0)
    assert spectrum.bracket_index(lam[:8], p.beta) == 8
    assert _seed_indices(monkeypatch, square48, p) == (0, 0)


def test_find_critical_point_seeds_the_exact_index(forty, monkeypatch):
    # Seeded betas up to index 37: the seeds' I is the bracket index among
    # 40 eigenvalues, at least I + 2 of them, so that it is not truncated.
    mesh, _, lam = forty
    rng = np.random.default_rng(30)
    seeded = []
    for beta in -rng.uniform(-5.0, 0.5 * (lam[36] + lam[37]), 8):
        I = spectrum.bracket_index(lam, beta)
        assert I + 2 <= len(lam)
        assert _seed_indices(monkeypatch, mesh,
                              Parameters(beta=beta, rho=1.0))[1] == I
        seeded.append(I)
    assert min(seeded) < 8 < max(seeded)


def test_find_critical_point_nontrivial_disk(disk128, monkeypatch):
    # I = 2 at beta = -5: one eigensolve, for max(I, 2) = 2 eigenpairs.
    counts = []
    eigenpairs = spectrum.eigenpairs

    def counted(mesh, count):
        counts.append(count)
        return eigenpairs(mesh, count)

    monkeypatch.setattr(spectrum, "eigenpairs", counted)
    p = Parameters(beta=-5.0, rho=13.8)
    pick = solver.find_critical_point(disk128, p)
    assert pick is not None
    assert pick.classification == solver.CLASS_NONTRIVIAL
    assert pick.residual < 1e-8
    assert pick.morse_index == 3
    assert counts == [2]


def test_continuation_tracks_nontrivial_branch(disk128, disk128_basis):
    model = EnergyFunctional.for_mesh(disk128)
    p0 = Parameters(beta=-5.0, rho=13.7)
    p1 = Parameters(beta=-5.0, rho=14.0)
    pick = solver.find_critical_point(disk128, p0)
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


def _local_mass_oracle(model, u, p, radius):
    """The former `local_mass`: neighbour maxima over the triangles' corner
    pairs and one KD-tree ball query per peak."""
    mesh = model.mesh
    u = field_values(u)
    density = model.exp_density(u)

    tri = mesh.triangles
    n = mesh.num_vertices
    nbr_max = np.full(n, -np.inf)
    for a, b in itertools.permutations(range(3), 2):
        np.maximum.at(nbr_max, tri[:, a], u[tri[:, b]])
    peaks = np.flatnonzero((u >= nbr_max) & (density > 2.0 / mesh.area))
    peaks = peaks[np.argsort(-u[peaks])]

    weights = mesh.lumped_masses() * density
    weights /= weights.sum()
    tree = cKDTree(mesh.vertices)
    bdist = meshmod.boundary_distances(mesh, mesh.vertices[peaks])
    taken = np.zeros(n, bool)
    candidates = []
    for idx, peak_bdist in zip(peaks, bdist):
        if taken[idx]:
            continue
        ball = tree.query_ball_point(mesh.vertices[idx], radius)
        taken[ball] = True
        mass = p.rho * weights[ball].sum()
        tag = "boundary" if peak_bdist < radius / 4.0 else "interior"
        candidates.append((mesh.vertices[idx].copy(), float(mass), tag))

    interpretation = "none"
    for _, mass, _ in candidates:
        if abs(mass - 8.0 * np.pi) <= 0.15 * 8.0 * np.pi:
            interpretation = "interior_like"
            break
        if abs(mass - 4.0 * np.pi) <= 0.15 * 4.0 * np.pi:
            interpretation = "boundary_like"
            break
    return solver.BlowupDiagnostic(candidate_points=candidates,
                                   interpretation=interpretation)


def _assert_same_diagnostic(got, want):
    # A CSR row sums a ball in another order than `weights[ball].sum()`.
    assert got.interpretation == want.interpretation
    assert len(got.candidate_points) == len(want.candidate_points)
    for (x, m, tag), (x0, m0, tag0) in zip(got.candidate_points,
                                           want.candidate_points):
        assert np.array_equal(x, x0)
        assert tag == tag0
        assert m == pytest.approx(m0, rel=1e-12, abs=0.0)


def _peaky_field(mesh, rng):
    """A sum of bubbles of random height and width at random vertices,
    boundary ones included, over low noise."""
    v = mesh.vertices
    centers = v[rng.choice(len(v), size=rng.integers(1, 5))]
    u = 0.1 * rng.standard_normal(len(v))
    for c in centers:
        width = rng.uniform(0.02, 0.3)
        u += rng.uniform(0.5, 8.0) * np.exp(-((v - c) ** 2).sum(axis=1)
                                            / width ** 2)
    return u


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
def test_local_mass_matches_oracle_on_oracle_meshes(name):
    mesh = ORACLE_MESHES[name]
    model = EnergyFunctional.for_mesh(mesh)
    rng = np.random.default_rng(3)
    for _ in range(6):
        u = _peaky_field(mesh, rng)
        p = Parameters(beta=0.0, rho=rng.uniform(1.0, 40.0))
        for radius in (0.05, 0.15, 0.3):
            _assert_same_diagnostic(solver.local_mass(model, u, p, radius),
                                    _local_mass_oracle(model, u, p, radius))


def test_local_mass_matches_oracle_on_bubbles(disk128):
    # The quantization fixtures of `test_local_mass_quantization`, the flat
    # field and a flat plateau (every vertex its own neighbours' maximum).
    model = EnergyFunctional.for_mesh(disk128)
    interior = bubbles.make_measure([np.array([0.0, 0.0])], [True])
    boundary = bubbles.make_measure([bubbles.boundary_atom(disk128)], [False])
    r = np.linalg.norm(disk128.vertices, axis=1)
    fields = [(bubbles.bubble_values(interior, 40.0, disk128), 8 * np.pi),
              (bubbles.bubble_values(boundary, 40.0, disk128), 4 * np.pi),
              (np.zeros(disk128.num_vertices), 10.0),
              (np.where(r < 0.3, 1.0, 0.0), 10.0)]
    for u, rho in fields:
        p = Parameters(beta=0.0, rho=rho)
        for radius in (0.1, 0.3):
            _assert_same_diagnostic(solver.local_mass(model, u, p, radius),
                                    _local_mass_oracle(model, u, p, radius))


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
    # Uncapped, the index counts every negative eigenvalue.
    exact = _null_space_eigenvalues(model, u, p)
    assert solver.morse_index_at(model, u, p, mesh.num_vertices - 1) \
        == np.count_nonzero(exact < 0.0)


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(st.sampled_from(sorted(ORACLE_MESHES)),
                  st.sampled_from(["noise", "bubble"]),
                  st.integers(0, 2 ** 32 - 1),
                  st.floats(-10.0, 4.0), st.floats(-30.0, 30.0),
                  st.floats(0.0, 1.0))
@hypothesis.example("disk", "bubble", 3, -5.0, 13.0, 0.5)
@hypothesis.example("annulus", "noise", 3, 2.0, -20.0, 0.5)
def test_count_below_any_shift_matches_dense(name, kind, seed, beta, rho,
                                             where):
    # A shift anywhere from 10 below the lowest eigenvalue to the eighth,
    # at least 1e-6 relative away from each: the inertia of B(shift)
    # counts the dense eigenvalues below it.
    mesh = ORACLE_MESHES[name]
    model = EnergyFunctional.for_mesh(mesh)
    u = _oracle_field(mesh, kind, seed)
    p = Parameters(beta=beta, rho=rho)
    dense = _dense_eigenvalues(model, u, p, 8)
    shift = dense[0] - 10.0 + where * (dense[-1] - dense[0] + 10.0)
    hypothesis.assume(np.all(np.abs(dense - shift)
                             > 1e-6 * np.maximum(np.abs(dense), abs(shift))))
    B = solver.BorderedHessian(model, model.hessian_operator(u, p))
    assert B.count_below(shift) == np.count_nonzero(dense < shift)


def test_morse_index_at_zero_on_square128():
    # V = 16641: a dense Hessian would need about 2 GB.
    square = meshmod.build_builtin("unit_square", 128)
    model = EnergyFunctional.for_mesh(square)
    lam = spectrum.eigenpairs(square, 8).eigenvalues
    p = Parameters(beta=-5.0, rho=13.0)
    idx = solver.morse_index_at(model, np.zeros(square.num_vertices), p,
                                count=8)
    assert idx == topology.trivial_morse_index(p, model.area, lam)


@pytest.mark.parametrize("rho, index", [(150.0, 14), (250.0, 25)])
def test_morse_index_is_not_capped(square48, square48_basis40, rho, index,
                                   monkeypatch):
    # The trivial index well beyond the lowest 8 eigenvalues, from two
    # factorizations whatever the count.
    model = EnergyFunctional.for_mesh(square48)
    p = Parameters(beta=-3.0, rho=rho)
    lam = square48_basis40.eigenvalues
    assert topology.trivial_morse_index(p, model.area, lam) == index
    calls = _count_splu(monkeypatch)
    u = np.zeros(square48.num_vertices)
    assert solver.morse_index_at(model, u, p,
                                 count=square48.num_vertices - 1) == index
    assert solver.morse_index_at(model, u, p, count=8) == 8
    assert len(calls) == 4


@pytest.mark.parametrize("offset", [-0.5, 0.5])
def test_morse_index_rejects_an_eigenvalue_inside_the_guard(square24, offset):
    # At u = 0 the zero-mean Hessian's eigenvalues are lambda_k + beta -
    # rho / |Omega|; rho puts the lowest at offset * EIG_GUARD.
    model = EnergyFunctional.for_mesh(square24)
    lam = spectrum.eigenpairs(square24, 4).eigenvalues[0]
    beta = 1.0
    rho = model.area * (lam + beta - offset * solver.EIG_GUARD)
    u = np.zeros(square24.num_vertices)
    assert abs(np.abs(_null_space_eigenvalues(
        model, u, Parameters(beta, rho), 1)[0]) - 0.5 * solver.EIG_GUARD) \
        < 0.1 * solver.EIG_GUARD
    with pytest.raises(ConvergenceError, match="not Morse"):
        solver.morse_index_at(model, u, Parameters(beta, rho), count=8)


@pytest.fixture(scope="module", params=["square48", "disk128"])
def forty(request):
    """A mesh, its model and its lowest 40 nonconstant eigenvalues."""
    mesh = request.getfixturevalue(request.param)
    basis = request.getfixturevalue(f"{request.param}_basis40")
    return mesh, EnergyFunctional.for_mesh(mesh), basis.eigenvalues


def test_index_below_is_the_bracket_index_of_the_whole_spectrum(forty):
    # Seeded thresholds up to index 37, each checked against 40
    # eigenvalues, at least index + 2 of them, so that neither count is
    # truncated; and a resonance with lambda_1, lambda_10 and lambda_38.
    mesh, model, lam = forty
    rng = np.random.default_rng(29)
    indices = []
    for threshold in -rng.uniform(-5.0, 0.5 * (lam[36] + lam[37]), 30):
        index = spectrum.bracket_index(lam, threshold)
        assert index + 2 <= len(lam)
        assert solver.index_below(model, threshold) == index
        indices.append(index)
    assert min(indices) == 0 and max(indices) > 8
    for i in (0, 9, 37):
        with pytest.raises(ResonanceError):
            solver.index_below(model, -lam[i])


def test_index_below_evaluates_nothing(monkeypatch):
    # B(s) is built from the model's K + threshold M: no quadrature and no
    # energy is computed.
    model = EnergyFunctional.for_mesh(ORACLE_MESHES["unit_square"])
    calls = []
    evaluate = EnergyFunctional.evaluate

    def counted(self, u, p):
        calls.append(p)
        return evaluate(self, u, p)

    monkeypatch.setattr(EnergyFunctional, "evaluate", counted)
    lam = spectrum.eigenpairs(model.mesh, 8).eigenvalues
    for threshold, index in ((1.0, 0), (-30.0, 3), (-60.0, 7)):
        assert solver.index_below(model, threshold) == index
        assert spectrum.bracket_index(lam, threshold) == index
    assert calls == []


def test_index_below_leaves_untruncated_reports_unchanged(forty):
    # 100 seeded (beta, rho) draws whose thresholds beta and beta -
    # rho/|Omega| both lie below lambda_8 - tol, where 8 computed
    # eigenvalues counted them whole: the report by inertia is the one
    # counted among 40 eigenvalues.
    mesh, model, lam = forty
    inertia = partial(solver.index_below, model)
    computed = partial(spectrum.bracket_index, lam)
    rng = np.random.default_rng(12)
    kept = 0
    while kept < 100:
        p = Parameters(beta=rng.uniform(-lam[7], 5.0),
                       rho=rng.uniform(0.5, mesh.area * lam[7]))
        if any(-t >= lam[7] - spectrum.resonance_tol(t)
               for t in (p.beta, p.beta - p.rho / mesh.area)):
            continue
        assert topology.condition_report(p, mesh.area, inertia, mesh.genus) \
            == topology.condition_report(p, mesh.area, computed, mesh.genus)
        kept += 1


# Mesh and flow step budget.
FLOW_MESHES = {"square48": (meshmod.build_builtin("unit_square", 48), 200),
               "disk40": (ORACLE_MESHES["disk"], 600)}
FLOW_PARAMS = [Parameters(beta=-5.0, rho=13.0), COERCIVE,
               Parameters(beta=2.0, rho=-20.0)]


@pytest.mark.parametrize("name", sorted(FLOW_MESHES))
@pytest.mark.parametrize("kind", ["noise", "bubble", "smooth"])
def test_flow_matches_oracle_and_newton_is_quiet(name, kind):
    # Smooth seeds on disk40 at rho = -20 stop at the flow tolerance.  The
    # mass LU is read first, so that the flow and its oracle both solve
    # with it, not one of them with the mesh's first Chebyshev solves.
    mesh, budget = FLOW_MESHES[name]
    spectrum.operators(mesh).mass_lu
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


def test_flow_and_newton_decide_as_under_the_triangle_rule():
    # The edge rule regroups the per-triangle rule's sums, so flow and
    # Newton take the same decisions at the same energies to rounding.
    # The smooth seed at rho = -20 nears the flow tolerance where a step
    # lowers the energy by less than its rounding, and the flow's test
    # e_trial <= e then decides on the last ulp: 565 steps under the edge
    # rule and 527 under the triangle rule end at the same state, so the
    # smooth seeds' step counts are not compared.
    mesh = ORACLE_MESHES["disk"]
    models = EnergyFunctional.for_mesh(mesh), TriangleRuleModel(mesh)
    x, y = mesh.vertices.T
    for seed, p in enumerate(FLOW_PARAMS):
        for kind in ("noise", "bubble", "smooth"):
            u0 = (0.5 * np.cos(np.pi * x) * np.cos(np.pi * y)
                  if kind == "smooth" else _oracle_field(mesh, kind, seed))
            runs = []
            for model in models:
                flowed = solver.flow(model, model.field(u0), p, 600)
                try:
                    res = solver.newton(model, flowed.u, p, damped=True,
                                        max_iter=60)
                    newton = res.classification, res.iterations, res.energy
                except ConvergenceError as exc:
                    newton = str(exc), None, None
                runs.append((flowed.iterations,
                             (flowed.classification, newton[:2]),
                             (flowed.energy, newton[2])))
            (steps, decisions, energies), (old_steps, old_decisions,
                                           old_energies) = runs
            assert decisions == old_decisions
            if kind != "smooth":
                assert steps == old_steps
            for e, e_old in zip(energies, old_energies):
                assert (e is None) == (e_old is None)
                if e is not None:
                    assert abs(e - e_old) <= 1e-12 * abs(e_old)


@pytest.mark.parametrize("p", FLOW_PARAMS)
def test_flow_solves_once_per_accepted_step(p):
    # A model of its own, so that the patches stay on it: the start and
    # each accepted trial pay one mass solve, a rejected trial none.
    mesh = ORACLE_MESHES["disk"]
    model = EnergyFunctional(mesh)
    solves, energies = [], []
    mass_solve, evaluate = model._mass_solve, model.evaluate

    def counted_solve(b):
        solves.append(1)
        return mass_solve(b)

    def recorded(u, p):
        ev = evaluate(u, p)
        energies.append(ev.energy)
        return ev
    model._mass_solve = counted_solve
    model.evaluate = recorded
    solver.flow(model, model.field(_oracle_field(mesh, "noise", 0)), p, 600)
    accepted, e = 0, energies[0]
    for e_trial in energies[1:]:
        if np.isfinite(e_trial) and e_trial <= e:
            accepted, e = accepted + 1, e_trial
    assert 0 < accepted < len(energies) - 1
    assert len(solves) == 1 + accepted


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


def test_morse_index_takes_one_quadrature():
    # A model of its own, so that the patch stays on it.  One evaluation
    # gives the Hessian of both factors.
    mesh = ORACLE_MESHES["disk"]
    model = EnergyFunctional(mesh)
    p = Parameters(beta=2.0, rho=30.0)
    calls = []
    exp_vals = model._exp_vals

    def counted(u):
        calls.append(1)
        return exp_vals(u)
    model._exp_vals = counted
    solver.morse_index_at(model, _oracle_field(mesh, "noise", 3), p, 8)
    assert len(calls) == 1


@pytest.mark.parametrize("damped", [False, True])
def test_newton_on_underflowing_quadrature_raises_convergence_error(damped):
    # The shifted quadrature total is about 6e-176, so its square, which
    # the Hessian's rank-one weight divides by, underflows to zero.
    mesh = meshmod.build_builtin("unit_square", 8)
    model = EnergyFunctional.for_mesh(mesh)
    u = np.zeros(mesh.num_vertices)
    u[40] = 800.0
    u = model.project_zero_mean(u)
    total = float(model._exp_vals(u)[1].sum())
    assert total > 0.0 and total ** 2 == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError) as raised:
            solver.newton(model, u, Parameters(beta=-5.0, rho=13.0),
                          damped=damped)
    # The Hessian's own error, not wrapped as a failed solve.
    assert str(raised.value) == ("Hessian undefined: the quadrature of e^u "
                                 "underflows")


class _WoodburySolver:
    """The former Hessian solve of `newton`: [[A0, m], [m^T, 0]], m the
    lumped masses, factored in the mesh's order, border last, and the
    rank-one part c w w^T of the Hessian folded in by the Woodbury
    identity."""

    def __init__(self, model, hessian):
        A0, c, w = hessian
        n = A0.shape[0]
        m = model.lumped[:, None]
        order = np.append(spectrum.operators(model.mesh).order, n)
        B = sp.bmat([[A0, m], [m.T, None]], format="csc")[order][:, order]
        lu = spla.splu(B.tocsc(), permc_spec="NATURAL",
                       relax=spectrum.SUPERNODE_RELAX,
                       panel_size=spectrum.PANEL_SIZE)
        self._bordered_solve = spectrum.ordered_solve(lu, order)
        self._c, self._w, self._n = c, np.append(w, 0.0), n
        self._y = self._bordered_solve(self._w)
        self._denom = 1.0 + c * (self._w @ self._y)
        if abs(self._denom) < 1e-14:
            raise ConvergenceError("singular Hessian (degenerate critical point)")

    def solve(self, rhs):
        x = self._bordered_solve(np.append(rhs, 0.0))
        x -= (self._c * (self._w @ x) / self._denom) * self._y
        return x[:self._n]


def _concentrated_endpoint(disk128, disk128_basis, p):
    """The gradient-flow endpoint of the 15th seed of the disk search at p:
    concentrated, so that at rho = 13 c = rho / W^2 is about 4.1e4, and
    Newton's factor takes 2 row pivots (17 under full partial pivoting);
    one that takes none solves the Newton system to only 3.8e-10."""
    model = EnergyFunctional.for_mesh(disk128)
    count = partial(spectrum.bracket_index, disk128_basis.eigenvalues)
    K, I, _ = topology.indices(p, model.area, count)
    cfg = solver._seed_configs(disk128, K, I)[14]
    seed = bubbles.phi_lambda(cfg, disk128, disk128_basis)
    return solver.flow(model, seed, p, 300).u.values


@pytest.mark.parametrize("name", FACTOR_MESHES + ["disk128 endpoint"])
def test_doubly_bordered_solve_is_accurate(name, request, monkeypatch):
    p = Parameters(beta=-5.0, rho=13.0)
    if name == "disk128 endpoint":
        mesh = request.getfixturevalue("disk128")
        u = _concentrated_endpoint(
            mesh, request.getfixturevalue("disk128_basis"), p)
    else:
        mesh = _factor_mesh(name, request)
        u = np.random.default_rng(5).standard_normal(mesh.num_vertices)
    model = EnergyFunctional.for_mesh(mesh)
    u = model.project_zero_mean(u)
    ev = model.evaluate(u, p)
    hessian = model.hessian_operator(ev, p)
    hess = solver._ZeroMeanHessianSolver(model)
    hess.factor(hessian)
    oracle = _WoodburySolver(model, hessian)
    m = model.lumped
    # The Newton system's right side and a random one.
    A0, c, w = hessian
    for b in (-ev.residual,
              np.random.default_rng(9).standard_normal(mesh.num_vertices)):
        x = hess.solve(b)
        # The zero-mean residual: b - H x up to a multiple of m, and mean(x).
        r = b - (A0 @ x + c * w * (w @ x))
        assert np.linalg.norm(r - m * (r.sum() / m.sum())) \
            <= solver.REFINE_TOL * np.linalg.norm(b - m * (b.sum() / m.sum()))
        assert abs(m @ x) \
            <= solver.REFINE_TOL * np.linalg.norm(m) * np.linalg.norm(x)
        want = oracle.solve(b)
        assert np.linalg.norm(x - want) <= 1e-11 * np.linalg.norm(want)
    # The Morse index's two factors take no row pivot.
    factored = []
    splu = spla.splu

    def capture(*args, **kwargs):
        factored.append(splu(*args, **kwargs))
        return factored[-1]
    monkeypatch.setattr(spla, "splu", capture)
    solver.morse_index_at(model, u, p, mesh.num_vertices - 1)
    assert len(factored) == 2
    for lu in factored:
        assert np.array_equal(lu.perm_r, np.arange(mesh.num_vertices + 2))


def _newton_direct(model, u0, p, tol=solver.NEWTON_TOL, max_iter=30,
                   damped=False, seed_descriptor="zero"):
    """The former `newton`: a fresh factorization of the Hessian at every
    iterate, solved directly by `_WoodburySolver`."""
    u = model.project_zero_mean(field_values(u0))
    ev = model.evaluate(u, p)
    gnorm = ev.gradient_norm
    tol_abs = tol * max(1.0, gnorm)
    it = 0
    while gnorm > tol_abs and it < max_iter:
        try:
            delta = _WoodburySolver(
                model, model.hessian_operator(u, p)).solve(-ev.residual)
        except (RuntimeError, ValueError) as exc:
            raise ConvergenceError(f"Hessian solve failed: {exc}") from exc
        if not np.all(np.isfinite(delta)):
            raise ConvergenceError("non-finite Newton step")
        alpha = 1.0
        while True:
            trial = model.project_zero_mean(u + alpha * delta)
            ev_trial = model.evaluate(trial, p)
            gn_trial = ev_trial.gradient_norm
            if np.isfinite(gn_trial) and (not damped or gn_trial < gnorm
                                          or alpha < 1e-8):
                break
            alpha *= 0.5
        if damped and alpha < 1e-8 and gn_trial >= gnorm:
            raise ConvergenceError("Newton line search stalled")
        u, ev, gnorm = trial, ev_trial, gn_trial
        it += 1
    if gnorm > tol_abs:
        raise ConvergenceError(
            f"no convergence within {max_iter} Newton iterations "
            f"(residual {gnorm:.3e})")
    cls = solver._classify(model, u, gnorm, p, tol_abs)
    return solver.SolveResult(u=Field(model.mesh, u), residual=gnorm,
                              energy=ev.energy, classification=cls,
                              morse_index=None, iterations=it,
                              seed_descriptor=seed_descriptor)


def _outcome(newton, model, u0, p, **kwargs):
    """The `SolveResult`, or the text of the ConvergenceError raised."""
    try:
        return newton(model, u0, p, **kwargs)
    except ConvergenceError as exc:
        return str(exc)


def _newton_matches_direct(model, u0, p, **kwargs):
    """Run `newton` and `_newton_direct` from u0; assert that they agree
    and return the outcome: the error text, or the classification."""
    want = _outcome(_newton_direct, model, u0, p, **kwargs)
    got = _outcome(solver.newton, model, u0, p, **kwargs)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return got
    assert (got.iterations, got.classification) \
        == (want.iterations, want.classification)
    # Relative to |E|, or to |rho| where E is rounding: the trivial state's
    # energy -rho log|Omega| is zero on a unit-area domain, and the
    # rho log int e^u term is rounded at the scale |rho|.
    assert abs(got.energy - want.energy) \
        <= 1e-12 * max(abs(want.energy), abs(p.rho))
    if want.classification == solver.CLASS_NONTRIVIAL:
        assert model.h1_norm(got.u.values - want.u.values) \
            <= 1e-9 * model.h1_norm(want.u.values)
    return got.classification


@pytest.mark.parametrize("damped", [False, True])
@pytest.mark.parametrize("name", sorted(test_mesh.ORACLE_MESHES))
def test_refined_newton_matches_direct_on_oracle_meshes(name, damped):
    mesh = test_mesh.ORACLE_MESHES[name]
    model = EnergyFunctional.for_mesh(mesh)
    outcomes = set()
    for seed, p in enumerate(FLOW_PARAMS):
        for kind in ("noise", "bubble"):
            u0 = _oracle_field(mesh, kind, seed)
            outcomes.add(_newton_matches_direct(model, u0, p, damped=damped))
    assert outcomes & {solver.CLASS_TRIVIAL, solver.CLASS_NONTRIVIAL}


@pytest.mark.parametrize("rho, single", [
    (13.0, False), (13.8, False), (13.0, True), (13.8, True)],
    ids=["13.0", "13.8", "13.0-float32", "13.8-float32"])
def test_refined_newton_matches_direct_on_disk_seeds(disk128, disk128_basis,
                                                     rho, single,
                                                     monkeypatch):
    # Every third seed of the disk search, smoothed as the search does;
    # with `single`, Newton refines against float32 factors, as it does
    # on meshes of SINGLE_PRECISION_VERTICES or more.
    if single:
        monkeypatch.setattr(solver, "SINGLE_PRECISION_VERTICES", 0)
    model = EnergyFunctional.for_mesh(disk128)
    p = Parameters(beta=-5.0, rho=rho)
    count = partial(spectrum.bracket_index, disk128_basis.eigenvalues)
    K, I, _ = topology.indices(p, model.area, count)
    seeds = [bubbles.phi_lambda(cfg, disk128, disk128_basis).values
             for cfg in solver._seed_configs(disk128, K, I)]
    seeds += [s * disk128_basis.eigenvectors[:, i]
              for i in range(max(I, 2)) for s in (2.0, -2.0, 4.0)]
    outcomes = set()
    for seed in seeds[::3]:
        smooth = solver.flow(model, model.field(seed), p, 300).u
        outcomes.add(_newton_matches_direct(model, smooth, p, damped=True,
                                            max_iter=60))
        outcomes.add(_newton_matches_direct(model, smooth, p, damped=False))
    assert outcomes & {solver.CLASS_TRIVIAL, solver.CLASS_NONTRIVIAL}
    assert any(o.startswith("no convergence") for o in outcomes)


def test_newton_factors_its_hessian_once(monkeypatch):
    # The square256 Newton case of the benchmark, on unit_square 64 and,
    # at SINGLE_PRECISION_VERTICES or more (V = 16641), 128: a seed near
    # the trivial state, where refinement never stalls.
    p = Parameters(beta=1.0, rho=1.0)
    dtypes = []
    splu = spla.splu

    def counted(A, **kwargs):
        dtypes.append(A.dtype)
        return splu(A, **kwargs)
    for res, dtype in ((64, np.float64), (128, np.float32)):
        square = meshmod.build_builtin("unit_square", res)
        model = EnergyFunctional.for_mesh(square)
        mu = bubbles.make_measure([bubbles.interior_atom(square)], [True])
        seed = 0.1 * bubbles.bubble(mu, 5.0, square).values
        dtypes.clear()
        monkeypatch.setattr(spla, "splu", counted)
        result = solver.newton(model, seed, p, damped=True)
        monkeypatch.undo()
        assert result.classification == solver.CLASS_TRIVIAL
        assert result.iterations >= 3
        assert dtypes == [dtype]
        assert _newton_matches_direct(model, seed, p, damped=True) \
            == solver.CLASS_TRIVIAL


def test_single_precision_newton_matches_direct_on_a_nontrivial_state():
    # unit_square 128 (V = 16641) factors in float32; from the first
    # eigenmode, smoothed by 50 flow steps, Newton reaches the nontrivial
    # state past rho_1 = |Omega| (pi^2 + beta) = 4.87 as the float64
    # oracle does.
    square = meshmod.build_builtin("unit_square", 128)
    model = EnergyFunctional.for_mesh(square)
    p = Parameters(beta=-5.0, rho=6.0)
    mode = spectrum.eigenpairs(square, 1).eigenvectors[:, 0]
    smooth = solver.flow(model, model.field(2.0 * mode), p, 50).u
    assert solver._ZeroMeanHessianSolver(model)._precision == np.float32
    assert _newton_matches_direct(model, smooth, p, damped=True) \
        == solver.CLASS_NONTRIVIAL


class _TrackedLU:
    """A SuperLU factorization that counts how many are alive."""
    alive = 0

    def __init__(self, lu):
        self._lu = lu
        _TrackedLU.alive += 1

    def solve(self, b):
        return self._lu.solve(b)

    def __del__(self):
        _TrackedLU.alive -= 1


def test_stalled_single_precision_factor_escalates_to_float64(monkeypatch):
    # One refinement sweep cannot reach REFINE_TOL against a fresh float32
    # factor, so the Hessian is factored again in float64 and solved
    # directly; the float32 factor is dropped before that one is taken.
    mesh = test_mesh.ORACLE_MESHES["disk"]
    model = EnergyFunctional.for_mesh(mesh)
    p = Parameters(beta=-5.0, rho=13.0)
    u = model.project_zero_mean(
        np.random.default_rng(3).standard_normal(mesh.num_vertices))
    ev = model.evaluate(u, p)
    hessian = model.hessian_operator(ev, p)
    monkeypatch.setattr(solver, "SINGLE_PRECISION_VERTICES", 0)
    monkeypatch.setattr(solver, "REFINE_SWEEPS", 1)
    dtypes = []
    splu = spla.splu

    def spy(A, **kwargs):
        assert _TrackedLU.alive == 0
        dtypes.append(A.dtype)
        return _TrackedLU(splu(A, **kwargs))
    monkeypatch.setattr(spla, "splu", spy)
    hess = solver._ZeroMeanHessianSolver(model)
    x = hess.refined_solve(hessian, -ev.residual)
    assert dtypes == [np.float32, np.float64]
    assert _TrackedLU.alive == 1
    hess.drop()
    assert _TrackedLU.alive == 0
    monkeypatch.undo()
    want = _WoodburySolver(model, hessian).solve(-ev.residual)
    assert np.linalg.norm(x - want) <= 1e-11 * np.linalg.norm(want)


def test_newton_refactors_after_a_non_contracting_step(monkeypatch):
    # A far bubble seed at rho = 20, where damped steps often fail to halve
    # the gradient norm.  Each Newton system is logged with the gradient
    # norm at its iterate, whether a factorization was held on entry and
    # how many refinement sweeps (bordered residuals) it took.
    mesh = test_mesh.ORACLE_MESHES["disk"]
    model = EnergyFunctional.for_mesh(mesh)
    p = Parameters(beta=-5.0, rho=20.0)
    mu = bubbles.make_measure([np.array([0.2, 0.1])], [True])
    log = []
    hessian_operator = EnergyFunctional.hessian_operator
    refined_solve = solver._ZeroMeanHessianSolver.refined_solve
    bordered_residual = solver.BorderedHessian.residual
    sweeps = []

    def logged_hessian_operator(model, ev, p):
        # Newton hands over the iterate's own Evaluation.
        assert isinstance(ev, Evaluation)
        log.append({"gnorm": ev.gradient_norm})
        return hessian_operator(model, ev, p)

    def logged_refined_solve(self, hessian, rhs):
        log[-1]["held"] = self._lu is not None
        sweeps.clear()
        out = refined_solve(self, hessian, rhs)
        log[-1]["sweeps"] = len(sweeps)
        return out

    def counted_residual(bordered, b, z):
        sweeps.append(1)
        return bordered_residual(bordered, b, z)
    monkeypatch.setattr(EnergyFunctional, "hessian_operator",
                        logged_hessian_operator)
    monkeypatch.setattr(solver._ZeroMeanHessianSolver, "refined_solve",
                        logged_refined_solve)
    monkeypatch.setattr(solver.BorderedHessian, "residual",
                        counted_residual)
    res = solver.newton(model, bubbles.bubble_values(mu, 5.0, mesh), p,
                        damped=True, max_iter=60)
    assert res.classification == solver.CLASS_TRIVIAL
    contracted = [after["gnorm"] <= 0.5 * before["gnorm"]
                  for before, after in zip(log, log[1:])]
    assert not all(contracted) and any(contracted)
    for ok, step in zip(contracted, log[1:]):
        if not ok:
            assert not step["held"] and step["sweeps"] == 0
        else:
            assert step["held"] and step["sweeps"] > 0


def test_newton_takes_one_quadrature_per_evaluation():
    # A model of its own, so that the patches stay on it.  Each iterate's
    # Hessian is read from the iterate's Evaluation, so the solve takes no
    # exponential quadrature beyond those of its evaluations.
    mesh = test_mesh.ORACLE_MESHES["disk"]
    model = EnergyFunctional(mesh)
    calls = {"_exp_vals": 0, "evaluate": 0, "hessian_operator": 0}

    def counted(name):
        method = getattr(model, name)

        def call(*args):
            calls[name] += 1
            return method(*args)
        return call
    for name in calls:
        setattr(model, name, counted(name))
    mu = bubbles.make_measure([np.array([0.2, 0.1])], [True])
    res = solver.newton(model, bubbles.bubble_values(mu, 5.0, mesh),
                        Parameters(beta=-5.0, rho=20.0), damped=True,
                        max_iter=60)
    assert res.iterations >= 3
    assert calls["hessian_operator"] == res.iterations
    assert calls["_exp_vals"] == calls["evaluate"] > res.iterations


def _seed_configs_oracle(mesh, K, I):
    """The former `_seed_configs`: the sphere directions built one by one
    and each t skipped where its measures or directions are missing."""
    b_atom = bubbles.boundary_atom(mesh)
    i_atom = bubbles.interior_atom(mesh)
    measures = []
    for l in range(K // 2 + 1):
        for m in range(K - 2 * l + 1):
            if l + m == 0:
                continue
            ang = 2.0 * np.pi * np.arange(m) / max(m, 1)
            offsets = 0.3 * np.arange(m)[:, None] * np.column_stack(
                [np.cos(ang), np.sin(ang)])
            pts = np.concatenate([
                i_atom + 0.05 * np.arange(l)[:, None],
                meshmod.nearest_boundary_point(mesh, b_atom + offsets)])
            measures.append(bubbles.make_measure(pts,
                                                 [True] * l + [False] * m))
    sigmas = []
    for i in range(I):
        e = np.zeros(I)
        e[i] = 1.0
        sigmas.extend([e, -e])
    configs = []
    for lam in solver.SEED_LAMBDAS:
        for t in [0.0, 0.5, 1.0]:
            if t < 1.0 and not measures:
                continue
            mus = measures if t < 1.0 else [None]
            sgs = sigmas if t > 0.0 else [None]
            if t > 0.0 and not sigmas:
                continue
            for mu in mus:
                for sg in sgs:
                    configs.append(bubbles.TestConfig(
                        lam=lam, zeta=JoinPoint(measure=mu, sphere=sg, t=t)))
    return configs


def _config_bytes(cfg):
    """A seed configuration as bytes: its scale, t, measure and direction."""
    z = cfg.zeta
    arrays = ([] if z.measure is None else
              [z.measure.points, z.measure.weights, z.measure.interior])
    arrays += [] if z.sphere is None else [z.sphere]
    return b"|".join([np.float64(cfg.lam).tobytes(), np.float64(z.t).tobytes(),
                      repr((z.measure is None, z.sphere is None)).encode()]
                     + [a.dtype.str.encode() + repr(a.shape).encode()
                        + a.tobytes() for a in arrays])


@pytest.mark.parametrize("name, res", [("disk", 40), ("unit_square", 24),
                                       ("annulus", 48)])
def test_seed_configs_match_the_former_enumeration(name, res):
    mesh = meshmod.build_builtin(name, res)
    for K, I in itertools.product(range(4), repeat=2):
        got = [_config_bytes(c) for c in solver._seed_configs(mesh, K, I)]
        want = [_config_bytes(c) for c in _seed_configs_oracle(mesh, K, I)]
        assert got == want
        assert bool(got) == (K > 0 or I > 0)
