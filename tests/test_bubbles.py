"""Bubble test family: slopes, means and the integral statistics."""
import numpy as np
import pytest

from ksbench import bubbles
from ksbench import mesh as meshmod
from ksbench.barycenter import JoinPoint
from ksbench.energy import EnergyFunctional
from ksbench.errors import RefinementNeededError
from test_mesh import ORACLE_MESHES, _graded_square

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SCALES = [10.0, 20.0, 40.0, 80.0]


def _atom(point, interior):
    return bubbles.make_measure([np.asarray(point, float)], [interior])


def test_boundary_atom_avoids_corners(square64):
    p = bubbles.boundary_atom(square64)
    on_x = p[1] in (0.0, 1.0)
    on_y = p[0] in (0.0, 1.0)
    assert on_x != on_y          # on exactly one side, not at a corner
    assert min(np.abs([p[0], p[1], p[0] - 1.0, p[1] - 1.0])) == 0.0
    corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
    assert np.linalg.norm(corners - p, axis=1).min() > 0.25


def _boundary_atom_oracle(mesh):
    """The former `boundary_atom`: the turn angle of each boundary vertex
    by a Python loop over the vertices."""
    succ = {int(a): int(b) for a, b in mesh.boundary_edges}
    nodes = np.array(sorted(succ))
    prev = {b: a for a, b in succ.items()}
    pts = mesh.vertices
    turn = np.empty(len(nodes))
    for i, v in enumerate(nodes):
        e_in = pts[v] - pts[prev[v]]
        e_out = pts[succ[v]] - pts[v]
        cosang = (e_in @ e_out) / (np.linalg.norm(e_in) * np.linalg.norm(e_out))
        turn[i] = np.arccos(np.clip(cosang, -1.0, 1.0))
    corners = nodes[turn > 0.2]
    if len(corners) == 0:
        return pts[nodes[0]].copy()
    d2 = ((pts[nodes][:, None, :] - pts[corners][None, :, :]) ** 2).sum(axis=2)
    return pts[nodes[int(np.argmax(d2.min(axis=1)))]].copy()


@pytest.mark.parametrize("name", meshmod.BUILTIN_NAMES)
@pytest.mark.parametrize("res", [4, 7, 30, 64, 256])
def test_boundary_atom_matches_loop_on_builtin_meshes(name, res):
    mesh = meshmod.build_builtin(name, res)
    assert np.array_equal(bubbles.boundary_atom(mesh),
                          _boundary_atom_oracle(mesh))


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(st.floats(1.0, 100.0), st.integers(2, 14),
                  st.integers(0, 40), st.integers(0, 2 ** 32 - 1))
@hypothesis.example(60.0, 12, 30, 5)        # `_graded_square`'s defaults
def test_boundary_atom_matches_loop_on_graded_squares(ratio, steps, inner,
                                                      seed):
    mesh = _graded_square(ratio, steps, inner, seed)
    assert np.array_equal(bubbles.boundary_atom(mesh),
                          _boundary_atom_oracle(mesh))


def test_interior_atom_far_from_boundary(disk128):
    p = bubbles.interior_atom(disk128)
    assert np.linalg.norm(p) < 0.05


def _interior_atom_oracle(mesh):
    """The former `interior_atom`: the exact boundary distance of every
    vertex, the first farthest one kept."""
    d = meshmod.boundary_distances(mesh, mesh.vertices)
    return mesh.vertices[int(np.argmax(d))].copy()


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
def test_interior_atom_matches_oracle_on_oracle_meshes(name):
    mesh = ORACLE_MESHES[name]
    assert np.array_equal(bubbles.interior_atom(mesh),
                          _interior_atom_oracle(mesh))


def test_interior_atom_matches_oracle_on_builtin_meshes(square256, disk128):
    for mesh in (square256, disk128):
        assert np.array_equal(bubbles.interior_atom(mesh),
                              _interior_atom_oracle(mesh))


def test_interior_atom_keeps_the_first_of_tied_vertices():
    # The annulus's mid-ring vertices all lie at the largest distance.
    annulus = meshmod.build_builtin("annulus", 64)
    d = meshmod.boundary_distances(annulus, annulus.vertices)
    assert np.sum(d == d.max()) > 1
    assert np.array_equal(bubbles.interior_atom(annulus),
                          _interior_atom_oracle(annulus))


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(st.floats(1.0, 100.0), st.integers(2, 14),
                  st.integers(0, 40), st.integers(0, 2 ** 32 - 1))
def test_interior_atom_matches_oracle_on_graded_squares(ratio, steps, inner,
                                                        seed):
    mesh = _graded_square(ratio, steps, inner, seed)
    assert np.array_equal(bubbles.interior_atom(mesh),
                          _interior_atom_oracle(mesh))


def test_interior_atom_projects_few_vertices(square256, monkeypatch):
    # The midpoint bound rules out all but the centre of the square.
    sizes = []
    distances = meshmod.boundary_distances

    def counted(mesh, points):
        sizes.append(len(points))
        return distances(mesh, points)
    monkeypatch.setattr(meshmod, "boundary_distances", counted)
    assert np.array_equal(bubbles.interior_atom(square256), [0.5, 0.5])
    assert sizes == [1]


def test_bubble_mean_slope(square64):
    mu = _atom(bubbles.boundary_atom(square64), False)
    means = [bubbles.bubble_mean(mu, s, square64) for s in SCALES]
    slope = np.polyfit(np.log(SCALES), means, 1)[0]
    assert abs(slope - (-4.0)) <= 0.05 * 4.0


def test_dirichlet_slope_boundary(square256):
    mu = _atom([0.5, 0.0], False)
    slope = bubbles.dirichlet_slope(mu, SCALES, square256)
    assert abs(slope - 16 * np.pi) <= 0.03 * 16 * np.pi


def test_dirichlet_slope_interior(square256):
    mu = _atom([0.5, 0.5], True)
    slope = bubbles.dirichlet_slope(mu, SCALES, square256)
    assert abs(slope - 32 * np.pi) <= 0.03 * 32 * np.pi


def test_resolution_guard(square64):
    mu = _atom([0.5, 0.5], True)
    with pytest.raises(RefinementNeededError):
        bubbles.dirichlet_slope(mu, [10.0, 100.0, 1000.0], square64)


def test_pure_tail_has_no_bubble_slope(square64, square64_basis):
    # At t = 1 the family is the eigen tail alone: its Dirichlet energy grows
    # like log(Lambda), negligible against the 16*pi log(Lambda) bubble rate.
    sigma = np.array([1.0, 0.0])
    energies = []
    for lam in SCALES:
        cfg = bubbles.TestConfig(lam=lam,
                         zeta=JoinPoint(measure=None, sphere=sigma, t=1.0))
        u = bubbles.phi_lambda(cfg, square64, square64_basis)
        energies.append(bubbles.dirichlet_energy(square64, u.values))
    slope = np.polyfit(np.log(SCALES), energies, 1)[0]
    assert slope == pytest.approx(square64_basis.eigenvalues[0], rel=1e-6)
    assert slope < 0.25 * 16 * np.pi


def test_phi_lambda_zero_mean(square64, square64_basis):
    model = EnergyFunctional.for_mesh(square64)
    mu = _atom([0.25, 0.0], False)
    cfg = bubbles.TestConfig(lam=50.0, zeta=JoinPoint(measure=mu,
                                              sphere=np.array([0.6, 0.8]),
                                              t=0.4))
    u = bubbles.phi_lambda(cfg, square64, square64_basis)
    assert abs(model.integral(u.values)) < 1e-9


def test_eigen_tail_norm(square64, square64_basis):
    model = EnergyFunctional.for_mesh(square64)
    tail = bubbles.eigen_tail(np.array([0.6, 0.8]), 50.0, square64_basis)
    assert np.sqrt(tail @ (model.mass @ tail)) == pytest.approx(
        np.sqrt(np.log(50.0)), rel=1e-9)


def test_mt_probe_drift_bounded(square64):
    # The free-boundary statistic stays bounded above along a boundary
    # concentration sequence.
    mu = _atom(bubbles.boundary_atom(square64), False)
    stats = [bubbles.mt_probe(bubbles.bubble(mu, s, square64),
                              compactly_supported=False) for s in SCALES]
    assert max(stats) <= stats[0] + 1.0


def test_mt_probe_compact_support_validation(square64):
    mu = _atom([0.5, 0.5], True)
    u = bubbles.bubble(mu, 20.0, square64)
    with pytest.raises(ValueError):
        bubbles.mt_probe(u, compactly_supported=True)
    # Cutting off at the boundary maximum produces an admissible field.
    from ksbench.energy import Field
    vals = u.values - u.values[square64.boundary_vertex_flags].max()
    cut = Field(square64, np.maximum(vals, 0.0))
    stat = bubbles.mt_probe(cut, compactly_supported=True)
    assert np.isfinite(stat)


def test_exp_lower_statistic_bounded(square64, square64_basis):
    mu = _atom(bubbles.boundary_atom(square64), False)
    vals = []
    for lam in (10.0, 30.0, 100.0):
        cfg = bubbles.TestConfig(lam=lam, zeta=JoinPoint(
            measure=mu, sphere=np.array([1.0]), t=0.5))
        vals.append(bubbles.exp_lower_statistic(cfg, square64,
                                                square64_basis, 1.0))
    assert min(vals) >= -4.5


def test_l2_upper_statistic_bounded(square64, square64_basis):
    mu = _atom(bubbles.boundary_atom(square64), False)
    vals = []
    for lam in (10.0, 30.0, 100.0):
        cfg = bubbles.TestConfig(lam=lam, zeta=JoinPoint(
            measure=mu, sphere=np.array([1.0]), t=0.5))
        vals.append(bubbles.l2_upper_statistic(cfg, square64,
                                               square64_basis, 6.0))
    assert min(vals) >= 0.0


def test_make_measure_normalizes_weights():
    mu = bubbles.make_measure([np.array([0.2, 0.2]), np.array([0.8, 0.8])],
                              [True, True], weights=[2.0, 2.0])
    assert np.allclose(mu.weights, [0.5, 0.5])
    assert mu.weighted_count == 4
