"""Bounded-Lipschitz metric, covering alternative and barycenter projection."""
import gc
import itertools
import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.spatial import cKDTree

from ksbench import barycenter as bc
from ksbench import bubbles
from ksbench import mesh as meshmod
from ksbench.energy import EnergyFunctional
from ksbench.errors import NotConcentratedError, NotInLowSublevelError
from test_mesh import (ORACLE_MESHES, _graded_square,
                       _nearest_boundary_point_brute)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _random_measure(rng, n):
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    w = rng.uniform(0.1, 1.0, size=n)
    return pts, w / w.sum()


def test_bl_distance_identity_and_symmetry():
    rng = np.random.default_rng(1)
    mu = _random_measure(rng, 4)
    nu = _random_measure(rng, 5)
    assert bc.bl_distance(mu, mu) <= 1e-9
    assert abs(bc.bl_distance(mu, nu) - bc.bl_distance(nu, mu)) <= 1e-9


def test_bl_distance_triangle_inequality():
    rng = np.random.default_rng(2)
    for _ in range(5):
        mu = _random_measure(rng, 3)
        nu = _random_measure(rng, 4)
        xi = _random_measure(rng, 3)
        dmn = bc.bl_distance(mu, nu)
        dnx = bc.bl_distance(nu, xi)
        dmx = bc.bl_distance(mu, xi)
        assert dmx <= dmn + dnx + 1e-9


def test_bl_distance_two_atoms_analytic():
    # Optimal test function for two unit atoms g apart is +-min(1, g/2),
    # so the distance is min(2, g).
    for gap in (0.05, 0.6, 3.0):
        mu = (np.array([[0.0, 0.0]]), np.array([1.0]))
        nu = (np.array([[gap, 0.0]]), np.array([1.0]))
        assert bc.bl_distance(mu, nu) == pytest.approx(min(2.0, gap), abs=1e-9)


def test_bl_distance_weight_difference():
    pts = np.array([[0.2, 0.2], [0.8, 0.7]])
    mu = (pts, np.array([0.7, 0.3]))
    nu = (pts, np.array([0.4, 0.6]))
    # Same support: the optimum moves the excess 0.3 across the support
    # distance (capped at total variation by the value bound).
    d = np.linalg.norm(pts[0] - pts[1])
    assert bc.bl_distance(mu, nu) == pytest.approx(0.3 * min(2.0, d), abs=1e-9)


def test_aggregate_atoms_mass_and_error():
    rng = np.random.default_rng(3)
    pts, w = _random_measure(rng, 400)
    cpts, cw = bc.aggregate_atoms(pts, w, 0.05)
    assert cw.sum() == pytest.approx(1.0, abs=1e-12)
    assert len(cpts) < len(pts)
    assert bc.bl_distance((pts, w), (cpts, cw)) <= 0.05 * np.sqrt(2.0) + 1e-9


def test_spread_uniform_density(square48):
    values = np.ones(square48.num_vertices)
    out = bc.spread_points(square48, values, eps=0.15, K=2)
    assert isinstance(out, bc.Spread)
    assert out.weighted_count >= 3
    # Members are pairwise separated and each holds definite mass.
    pts = out.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert np.linalg.norm(pts[i] - pts[j]) >= 2.0 * out.radius


def test_spread_zero_budget_is_vacuous(square48):
    values = np.ones(square48.num_vertices)
    out = bc.spread_points(square48, values, eps=0.15, K=0)
    assert isinstance(out, bc.Spread)


def test_concentrated_sharp_bubble(square48):
    mu = bubbles.make_measure([np.array([0.5, 0.5])], [True])
    values = np.exp(bubbles.bubble_values(mu, 200.0, square48))
    out = bc.spread_points(square48, values, eps=0.2, K=2)
    assert isinstance(out, bc.Concentrated)
    assert out.weighted_count <= 2
    assert np.linalg.norm(out.points[0] - [0.5, 0.5]) < 0.05


def test_concentrated_boundary_half_bubble(square48):
    mu = bubbles.make_measure([np.array([0.5, 0.0])], [False])
    values = np.exp(bubbles.bubble_values(mu, 200.0, square48))
    out = bc.spread_points(square48, values, eps=0.2, K=1)
    assert isinstance(out, bc.Concentrated)
    assert out.weighted_count == 1
    assert not out.interior[0]
    assert abs(out.points[0][1]) < 1e-9


def test_spread_postconditions_random(square48):
    rng = np.random.default_rng(8)
    points, weights = bc.density_atoms(square48, np.ones(square48.num_vertices))
    for trial in range(10):
        centers = rng.uniform(0.1, 0.9, size=(rng.integers(1, 4), 2))
        scale = rng.uniform(5.0, 300.0)
        mu = bubbles.make_measure(centers, [True] * len(centers))
        values = np.exp(bubbles.bubble_values(mu, scale, square48))
        eps, K = 0.2, int(rng.integers(0, 5))
        out = bc.spread_points(square48, values, eps, K)
        pts, w = bc.density_atoms(square48, values)
        if isinstance(out, bc.Spread):
            assert out.weighted_count >= K + 1
        else:
            assert out.weighted_count <= K
            # The family captures most of the mass in (slightly enlarged)
            # eps-balls; boundary members sit on the boundary.
            d = np.linalg.norm(pts[:, None, :] - out.points[None, :, :],
                               axis=2).min(axis=1)
            assert w[d <= 1.25 * eps].sum() >= 1.0 - eps
            for i in np.flatnonzero(~out.interior):
                assert meshmod.boundary_distances(
                    square48, out.points[i][None])[0] < 1e-9


def test_project_to_barycenters_concentrated(square48):
    mu = bubbles.make_measure([np.array([0.5, 0.0])], [False])
    values = np.exp(bubbles.bubble_values(mu, 200.0, square48))
    eps = 0.2
    m = bc.project_to_barycenters(square48, values, eps, K=1)
    assert m.weighted_count <= 1
    assert m.weights.sum() == pytest.approx(1.0, abs=1e-12)
    pts, w = bc.density_atoms(square48, values)
    cpts, cw = bc.aggregate_atoms(pts, w, 0.04)
    d = bc.bl_distance((cpts, cw), (m.points, m.weights))
    assert d <= eps


def test_project_two_bubbles(square48):
    mu = bubbles.make_measure(
        [np.array([0.3, 0.35]), np.array([0.7, 0.65])], [True, True])
    values = np.exp(bubbles.bubble_values(mu, 200.0, square48))
    eps = 0.2
    m = bc.project_to_barycenters(square48, values, eps, K=4)
    assert m.weighted_count <= 4
    assert np.allclose(sorted(m.weights), [0.5, 0.5], atol=1e-2)
    pts, w = bc.density_atoms(square48, values)
    cpts, cw = bc.aggregate_atoms(pts, w, 0.04)
    assert bc.bl_distance((cpts, cw), (m.points, m.weights)) <= eps


def test_project_spread_raises(square48):
    with pytest.raises(NotConcentratedError):
        bc.project_to_barycenters(square48, np.ones(square48.num_vertices),
                                  eps=0.2, K=1)


def test_psi_map_pure_sphere(square64, square64_basis):
    from ksbench.energy import EnergyFunctional
    model = EnergyFunctional.for_mesh(square64)
    u = model.field(2.0 * square64_basis.eigenvectors[:, 0])
    z = bc.psi_map(u, square64_basis, I=2, K=1, eps=0.2)
    assert z.t == 1.0
    assert z.measure is None
    assert abs(abs(z.sphere[0]) - 1.0) < 1e-12


def test_psi_map_pure_measure(square48, square48_basis):
    model = EnergyFunctional.for_mesh(square48)
    mu = bubbles.make_measure([np.array([0.5, 0.0])], [False])
    vals = model.project_zero_mean(bubbles.bubble_values(mu, 200.0, square48))
    # Remove the low-mode component so t is (near) zero.
    V = square48_basis.eigenvectors[:, :2]
    vals = vals - V @ (V.T @ (model.mass @ vals))
    z = bc.psi_map(model.field(vals), square48_basis, I=2, K=1, eps=0.25)
    assert z.t < 1e-10
    assert z.measure is not None
    assert z.measure.weighted_count <= 1


def test_psi_map_rejects_flat_field(square48, square48_basis):
    model = EnergyFunctional.for_mesh(square48)
    with pytest.raises(NotInLowSublevelError):
        bc.psi_map(model.field(np.zeros(square48.num_vertices)),
                   square48_basis, I=2, K=1, eps=0.2)


# Oracles: the all-pairs dual LP, the direct far-apart loop, the
# per-candidate greedy scan, the per-ball mass sums, the per-center ball
# lists and the brute-force boundary projection that the partial-transport
# LP, the KD-tree selection, the ball-incidence products, the pair query
# and the pruned projection replace.

def _bl_distance_dual_lp(mu, nu, prune=1e-10):
    """Maximize sum h_a d_a over |h_a| <= 1, |h_a - h_b| <= |p_a - p_b|."""
    pm, wm = bc.as_weighted_points(mu)
    pn, wn = bc.as_weighted_points(nu)
    points = np.vstack([pm, pn])
    d = np.concatenate([wm, -wn])
    key = np.round(points / 1e-12).astype(np.int64)
    _, inv = np.unique(key, axis=0, return_inverse=True)
    n_unique = inv.max() + 1
    dd = np.bincount(inv, weights=d, minlength=n_unique)
    rep = np.zeros(n_unique, dtype=np.int64)
    rep[inv] = np.arange(len(points))
    points = points[rep]
    d = dd
    scale = np.abs(d).sum()
    if scale <= 0:
        return 0.0
    keep = np.abs(d) > prune * scale
    points, d = points[keep], d[keep]
    n = len(points)
    if n == 1:
        return float(abs(d[0]))
    ii, jj = np.triu_indices(n, k=1)
    dist = np.linalg.norm(points[ii] - points[jj], axis=1)
    m = len(ii)
    rows = np.repeat(np.arange(2 * m), 2)
    cols = np.concatenate([np.column_stack([ii, jj]).ravel(),
                           np.column_stack([jj, ii]).ravel()])
    data = np.tile([1.0, -1.0], 2 * m)
    A = sp.coo_matrix((data, (rows, cols)), shape=(2 * m, n))
    b = np.concatenate([dist, dist])
    # At HiGHS's default feasibility tolerance, 1e-7, h_a - h_b may exceed
    # |p_a - p_b| by that much, and the value the distance by that much per
    # unit weight; 1e-10, the tightest HiGHS accepts, keeps the error
    # inside the comparison's 1e-9.
    res = linprog(-d, A_ub=A.tocsr(), b_ub=b, bounds=(-1.0, 1.0),
                  method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.success, res.message
    return float(-res.fun)


def _far_apart_loop(cand, order, gap):
    chosen = []
    for idx in order:
        p = cand[idx]
        if all(np.linalg.norm(p - q) >= gap for q in chosen):
            chosen.append(p)
    return np.array(chosen) if chosen else np.zeros((0, 2))


def _ball_incidence_lists(centers, points, radius):
    """The former `_ball_incidence`: one sorted ball list per center,
    flattened into the CSR arrays."""
    balls = cKDTree(points).query_ball_point(centers, radius,
                                             return_sorted=True)
    counts = np.fromiter(map(len, balls), dtype=np.intp, count=len(centers))
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = np.fromiter(itertools.chain.from_iterable(balls),
                          dtype=np.intp, count=indptr[-1])
    return sp.csr_matrix((np.ones(len(indices)), indices, indptr),
                         shape=(len(centers), len(points)))


def _capture_candidates(mesh, points, net, eps):
    """The greedy capture's candidates, their costs and their eps-balls.

    Interior candidates are the net points inside the domain and cost 2 of
    the budget; boundary candidates are the nearest boundary points of the
    net points within eps / 2 of the boundary and cost 1.  Returns
    (candidates, costs, candidates x points ball incidence).
    """
    _, d0, half = meshmod._midpoint_bounds(mesh, net)
    inner, edge, foot = bc._net_geometry(mesh, net, d0, half, eps)
    cand = np.concatenate([net[inner], foot])
    cost = np.repeat([2, 1], [inner.sum(), edge.sum()])
    return cand, cost, bc._ball_incidence(cand, points, eps)


def _greedy_select(cand, cost, balls, weights, K):
    """Greedy marginal-gain selection among the capture candidates: each
    pick is the affordable candidate of largest uncovered ball mass, where
    a gain within a 1e-12 relative tolerance of the largest counts as equal
    and, among equals, the cheaper boundary option wins, then the earlier
    candidate.  Returns (family, interior flags, captured mass fraction).
    """
    family, flags = [], []
    covered = np.zeros(len(weights), bool)
    budget = K
    while budget > 0:
        uncovered = np.where(covered, 0.0, weights)
        gains = np.where(cost <= budget, balls @ uncovered, 0.0)
        top = gains.max(initial=0.0)
        if top <= 0.0:
            break
        near = np.flatnonzero(gains >= top * (1.0 - 1e-12))
        best = near[np.argmin(cost[near])]
        covered[balls[best].indices] = True
        family.append(cand[best])
        flags.append(bool(cost[best] == 2))
        budget -= cost[best]
    captured = weights[covered].sum()
    return family, flags, captured


def _greedy_capture(mesh, points, weights, net, eps, K):
    """Best-effort admissible family capturing mass within eps-balls, from
    every candidate, built for this call: `_greedy_select` over
    `_capture_candidates`.  `spread_points` takes the same picks from the
    mesh's cover, which builds only the candidates that can still win.
    """
    return _greedy_select(*_capture_candidates(mesh, points, net, eps),
                          weights, K)


def _greedy_capture_loop(mesh, points, weights, net, eps, K):
    bdist = meshmod.boundary_distances(mesh, net)
    candidates = [(p.copy(), True) for p, d in zip(net, bdist) if d > 0.0]
    candidates += [(_nearest_boundary_point_brute(mesh, p), False)
                   for p, d in zip(net, bdist) if d < eps / 2.0]
    tree = cKDTree(points)
    balls = tree.query_ball_point(np.array([c[0] for c in candidates]), eps)

    family, flags = [], []
    covered = np.zeros(len(points), bool)
    budget = K
    while budget > 0:
        best_gain, best = 0.0, None
        for idx, (point, is_interior) in enumerate(candidates):
            cost = 2 if is_interior else 1
            if cost > budget:
                continue
            sel = np.asarray(balls[idx], dtype=int)
            gain = weights[sel[~covered[sel]]].sum() if len(sel) else 0.0
            # Prefer the cheaper boundary option on (near-)equal gain.
            if gain > best_gain * (1.0 + 1e-12) or (
                    best is not None and gain >= best_gain * (1.0 - 1e-12)
                    and cost < (2 if candidates[best][1] else 1)):
                best_gain, best = gain, idx
        if best is None or best_gain <= 0.0:
            break
        point, is_interior = candidates[best]
        sel = np.asarray(balls[best], dtype=int)
        covered[sel] = True
        family.append(point)
        flags.append(is_interior)
        budget -= 2 if is_interior else 1
    captured = weights[covered].sum()
    return family, flags, captured


class _BallLists:
    """Stands in for `bc._ball_incidence`: `@ weights` sums each ball's
    weights one ball at a time."""

    def __init__(self, centers, points, radius):
        self.balls = cKDTree(points).query_ball_point(centers, radius)

    def __matmul__(self, weights):
        return np.array([weights[idx].sum() for idx in self.balls])


class _UncachedCover(bc._Cover):
    """Stands in for `bc._cover`: the former per-call geometry of
    `spread_points`, rebuilt on every call through the module's functions
    and kept on no mesh, with the full-build greedy capture.  Its capture
    bound is the cover's, from a grid built for the call, and rules the
    capture out as the cover's greedy capture does."""

    def __init__(self, mesh, eps):
        self.eps = eps
        self.radius = eps / 6.0
        self.net = bc._hex_net(mesh, self.radius)
        self.mass_floor = eps / len(self.net)
        self._vertices = mesh.vertices

    def ball_masses(self, weights):
        return bc._ball_incidence(self.net, self._vertices,
                                  self.radius) @ weights

    def greedy_capture(self, mesh, weights, K):
        if K * _capture_bound(self, weights) < 1.0 - self.eps:
            return [], [], 0.0
        return _greedy_capture(mesh, self._vertices, weights, self.net,
                               self.eps, K)


def _capture_bound(cover, weights):
    """The capture bound of `weights` at the cover: its heaviest boundary
    box of `_bounds`, which no candidate's eps-ball outweighs."""
    return cover._bounds(weights)[1].max()


def _oracle(fn, *args):
    """`fn` run on the replaced loops and the brute-force projection, with
    the covering geometry rebuilt per call: it neither reads nor leaves a
    cover on the mesh."""
    with mock.patch.object(bc, "_cover", _UncachedCover), \
            mock.patch.object(bc, "_far_apart", _far_apart_loop), \
            mock.patch.dict(globals(), _greedy_capture=_greedy_capture_loop), \
            mock.patch.object(bc, "_ball_incidence", _BallLists), \
            mock.patch.object(meshmod, "nearest_boundary_point",
                              _nearest_boundary_point_brute):
        return fn(*args)


def _spread_points_oracle(mesh, values, eps, K):
    return _oracle(bc.spread_points, mesh, values, eps, K)


def _assert_same_outcome(out, ref):
    assert type(out) is type(ref)
    assert np.array_equal(out.points, ref.points)
    assert np.array_equal(out.interior, ref.interior)
    if isinstance(ref, bc.Spread):
        assert out.mass_floor == ref.mass_floor
        assert out.radius == ref.radius


# Half-unit lattice coordinates make coincident atoms likely; the range
# reaches past 2 so some pairs sit beyond the cap; 1e-14 atoms are pruned.
_coord = st.one_of(st.integers(0, 8).map(lambda k: 0.5 * k),
                   st.floats(0.0, 4.0))
_weight = st.one_of(st.floats(1e-3, 1.0), st.just(1e-14))
_atoms = st.lists(st.tuples(_coord, _coord, _weight), min_size=1, max_size=7)


def _measure(atoms):
    arr = np.array(atoms, dtype=float)
    return arr[:, :2], arr[:, 2]


@st.composite
def _measure_pair(draw):
    mu = _measure(draw(_atoms))
    if draw(st.booleans()):
        # Same support, rescaled weights: coincident atoms throughout, and
        # a single-sign difference when every factor is on one side of 1.
        hi = draw(st.sampled_from([1.0, 2.0]))
        f = np.array(draw(st.lists(st.floats(0.1, hi), min_size=len(mu[1]),
                                   max_size=len(mu[1]))))
        return mu, (mu[0], mu[1] * f)
    return mu, _measure(draw(_atoms))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(_measure_pair(), st.sampled_from([1e-10, 0.05]))
# Atoms 2**-24 apart, closer than HiGHS's default feasibility tolerance:
# the distance is 1 + 2**-24.
@hypothesis.example(pair=((np.zeros((2, 2)), np.ones(2)),
                          (np.array([[0.0, 2.0 ** -24]]), np.ones(1))),
                    prune=1e-10)
# A pair 7.6e-8 inside the cap, whose transport cost is below HiGHS's
# default dual feasibility tolerance.
@hypothesis.example(pair=((np.array([[0.0, 0.0], [0.5, 1.0],
                                     [2.0, 7.57384352e-08]]),
                           np.array([2.0, 0.5, 1.0])),
                          (np.array([[2.0, 2.0]]), np.ones(1))),
                    prune=1e-10)
def test_bl_distance_matches_dual_lp(pair, prune):
    mu, nu = pair
    assert bc.bl_distance(mu, nu, prune) == pytest.approx(
        _bl_distance_dual_lp(mu, nu, prune), rel=0.0, abs=1e-9)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(_atoms, _atoms, _atoms)
def test_bl_distance_metric_axioms(a, b, c):
    mu, nu, xi = _measure(a), _measure(b), _measure(c)
    dmn = bc.bl_distance(mu, nu)
    assert dmn >= 0.0
    assert bc.bl_distance(mu, mu) <= 1e-9
    assert abs(dmn - bc.bl_distance(nu, mu)) <= 1e-9
    assert bc.bl_distance(mu, xi) <= dmn + bc.bl_distance(nu, xi) + 1e-9


@pytest.mark.parametrize("cand", [
    np.zeros((0, 2)),                                 # no candidate
    np.array([[0.3, 0.4]]),                           # one candidate
    np.array([[0.0, 0.0], [0.3, 0.0], [0.0, 0.3], [0.3, 0.3]]),  # none near
], ids=["empty", "single", "no-pair"])
def test_far_apart_matches_loop_on_edge_cases(cand):
    # gap 0.3 puts the last set's sides exactly on it, so no pair blocks.
    order = np.arange(len(cand))[::-1]
    out = bc._far_apart(cand, order, 0.3)
    assert out.shape == (len(cand), 2)
    assert np.array_equal(out, _far_apart_loop(cand, order, 0.3))


def test_far_apart_matches_loop_on_lattice_ties():
    # A square lattice of step 1 with gap 2 puts many pairs exactly at the
    # gap; shuffled orders exercise which of the tied points is kept.
    rng = np.random.default_rng(0)
    xs = np.arange(12.0)
    cand = np.column_stack([np.repeat(xs, 12), np.tile(xs, 12)]) * 0.1
    for _ in range(5):
        order = rng.permutation(len(cand))
        assert np.array_equal(bc._far_apart(cand, order, 0.2),
                              _far_apart_loop(cand, order, 0.2))


def _assert_same_incidence(centers, points, radius):
    got = bc._ball_incidence(centers, points, radius)
    want = _ball_incidence_lists(centers, points, radius)
    assert got.shape == want.shape == (len(centers), len(points))
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
@pytest.mark.parametrize("eps", [0.15, 0.2, 0.2 / 3.0, 0.3])
def test_ball_incidence_matches_lists_on_hex_nets(name, eps):
    # The greedy's eps-balls and the spread's eps/6-balls around the net.
    mesh = ORACLE_MESHES[name]
    net = bc._hex_net(mesh, eps / 6.0)
    for radius in (eps, eps / 6.0):
        _assert_same_incidence(net, mesh.vertices, radius)


@pytest.mark.parametrize("n", [8, 16, 24, 48])
def test_ball_incidence_matches_lists_on_lattice_ties(n):
    # Grid points exactly k h or sqrt(2) k h apart sit on the ball's rim;
    # the centers are the grid itself and a hexagonal net over it.
    square = meshmod.build_builtin("unit_square", n)
    grid, h = square.vertices, 1.0 / n
    for centers in (grid, bc._hex_net(square, h)):
        for k in (1, 2, 3):
            for radius in (k * h, np.sqrt(2.0) * k * h):
                _assert_same_incidence(centers, grid, radius)


def test_ball_incidence_matches_lists_on_coincident_points():
    # Repeated rows on both sides; radius 0 keeps exactly the coincidences.
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.0], [0.5, 0.0],
                    [1.0, 1.0]])
    for radius in (0.0, 0.5, 2.0):
        _assert_same_incidence(pts, pts, radius)
        _assert_same_incidence(pts[::-1], pts[[4, 0, 2, 0]], radius)


def test_ball_incidence_of_empty_sets():
    pts = np.array([[0.0, 0.0], [0.3, 0.4]])
    empty = np.zeros((0, 2))
    for centers, points in ((empty, pts), (pts, empty), (empty, empty)):
        _assert_same_incidence(centers, points, 1.0)
        assert bc._ball_incidence(centers, points, 1.0).nnz == 0


def _hex_lattice(mesh, spacing):
    """The hexagonal lattice over the mesh's bounding box, padded by one
    spacing, from which `_hex_net` keeps its points."""
    lo = mesh.vertices.min(axis=0) - spacing
    hi = mesh.vertices.max(axis=0) + spacing
    dy = spacing * np.sqrt(3.0) / 2.0
    rows = []
    j = 0
    y = lo[1]
    while y <= hi[1]:
        xs = np.arange(lo[0] + 0.5 * spacing * (j % 2), hi[0] + spacing,
                       spacing)
        rows.append(np.column_stack([xs, np.full(len(xs), y)]))
        y += dy
        j += 1
    return np.concatenate(rows)


def _far_from_vertices(mesh, points, spacing):
    """Mask of the points farther than 1.001 spacings from every vertex."""
    near, _ = cKDTree(mesh.vertices).query(
        points, distance_upper_bound=spacing * 1.001)
    return ~np.isfinite(near)


def _hex_net_oracle(mesh, spacing):
    """The former `_hex_net`: the containment test on every lattice point
    farther than 1.001 spacings from each vertex."""
    net = _hex_lattice(mesh, spacing)
    far = _far_from_vertices(mesh, net, spacing)
    inside = meshmod.contains(mesh, net[far]) if far.any() else None
    mask = ~far
    if inside is not None:
        mask[np.flatnonzero(far)[inside]] = True
    return net[mask]


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
@pytest.mark.parametrize("spacing", [0.2 / 18.0, 0.2 / 6.0, 0.05, 0.3])
def test_hex_net_matches_oracle_on_oracle_meshes(name, spacing):
    mesh = ORACLE_MESHES[name]
    assert np.array_equal(bc._hex_net(mesh, spacing),
                          _hex_net_oracle(mesh, spacing))


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(st.floats(1.0, 100.0), st.integers(2, 14),
                  st.integers(0, 40), st.integers(0, 2 ** 32 - 1),
                  st.floats(0.01, 0.3))
def test_hex_net_matches_oracle_on_graded_squares(ratio, steps, inner, seed,
                                                  spacing):
    mesh = _graded_square(ratio, steps, inner, seed)
    assert np.array_equal(bc._hex_net(mesh, spacing),
                          _hex_net_oracle(mesh, spacing))


def test_hex_net_tests_containment_only_near_the_mesh():
    # The lattice points in the annulus's hole beyond the longest edge from
    # every vertex need no winding test.
    annulus = meshmod.build_builtin("annulus", 256)
    spacing = 0.2 / 18.0
    sizes = []
    contains = meshmod.contains

    def counting(mesh, points, *args, **kwargs):
        sizes.append(len(points))
        return contains(mesh, points, *args, **kwargs)
    with mock.patch.object(meshmod, "contains", counting):
        net = bc._hex_net(annulus, spacing)
    assert np.array_equal(net, _hex_net_oracle(annulus, spacing))
    far = _far_from_vertices(annulus, _hex_lattice(annulus, spacing), spacing)
    assert len(sizes) == 1 and sizes[0] < 0.5 * far.sum()


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
def test_far_apart_matches_loop_on_hex_nets(name):
    # `spread_points`' own case: gap = 4 x spacing puts many pairs of the
    # net exactly (up to the rounding of its rows) a gap apart.
    spacing = 0.2 / 6.0
    net = bc._hex_net(ORACLE_MESHES[name], spacing)
    rng = np.random.default_rng(1)
    orders = [np.lexsort((net[:, 1], net[:, 0])),
              rng.permutation(len(net)), rng.permutation(len(net))]
    for order in orders:
        assert np.array_equal(bc._far_apart(net, order, 4.0 * spacing),
                              _far_apart_loop(net, order, 4.0 * spacing))


_lattice_points = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                           min_size=1, max_size=40)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(_lattice_points,
                  st.lists(st.tuples(st.floats(0.0, 0.6), st.floats(0.0, 0.6)),
                           max_size=20),
                  st.integers(0, 3),
                  st.one_of(st.sampled_from([0.1, 0.2, 0.25, 0.3]),
                            st.tuples(st.integers(0, 99), st.integers(0, 99))),
                  st.randoms(use_true_random=False))
def test_far_apart_matches_loop_random(lattice, floats, repeats, gap, rnd):
    # Lattice rows of step 0.1 tie at the gap; duplicated rows sit at
    # distance 0; a gap taken as the norm of one pair of rows puts that
    # pair exactly on it; the order is shuffled.
    cand = np.array(lattice, dtype=float) * 0.1
    if floats:
        cand = np.vstack([cand, np.array(floats)])
    cand = np.vstack([cand, cand[:repeats]])
    if isinstance(gap, tuple):
        a, b = (k % len(cand) for k in gap)
        gap = float(np.linalg.norm(cand[a] - cand[b]))
    order = list(range(len(cand)))
    rnd.shuffle(order)
    order = np.array(order)
    assert np.array_equal(bc._far_apart(cand, order, gap),
                          _far_apart_loop(cand, order, gap))


def test_spread_flat_matches_oracle(square48):
    values = np.ones(square48.num_vertices)
    out = bc.spread_points(square48, values, 0.2 / 3.0, 2)
    assert isinstance(out, bc.Spread)
    _assert_same_outcome(out, _spread_points_oracle(square48, values,
                                                    0.2 / 3.0, 2))


@hypothesis.settings(max_examples=8, deadline=None)
@hypothesis.given(st.lists(st.tuples(st.floats(0.1, 0.9), st.floats(0.1, 0.9)),
                           min_size=1, max_size=3),
                  st.floats(5.0, 300.0), st.integers(0, 4))
def test_spread_bubbles_match_oracle(square48, centers, scale, K):
    mu = bubbles.make_measure(np.array(centers), [True] * len(centers))
    values = np.exp(bubbles.bubble_values(mu, scale, square48))
    _assert_same_outcome(bc.spread_points(square48, values, 0.2, K),
                         _spread_points_oracle(square48, values, 0.2, K))


@pytest.mark.xfail(strict=True, reason="ball masses equal in exact "
                   "arithmetic are ordered by their summation rounding")
def test_spread_ties_in_ball_mass_follow_position(square48):
    # One bubble at the centre: the eps/6-balls at (0.48333, 0.63062) and
    # at its mirror image (0.51667, 0.63062) hold the same 8 weights, but
    # the sparse row sums put the first one ulp below the second.  The
    # documented order (mass, then x, then y) visits the first first; the
    # oracle, which sums each ball with `np.sum`, does.
    mu = bubbles.make_measure([(0.5, 0.5)], [True])
    values = np.exp(bubbles.bubble_values(mu, 16.0, square48))
    _assert_same_outcome(bc.spread_points(square48, values, 0.2, 0),
                         _spread_points_oracle(square48, values, 0.2, 0))


def test_spread_far_apart_witnesses_match_oracle(square48):
    # Two boundary bubbles 0.42 apart: two eps-balls capture only half the
    # mass, so the witnesses come from the far-apart construction, each
    # moved onto the boundary.
    eps, K = 0.2, 2
    mu = bubbles.make_measure([[0.29, 0.0], [0.71, 0.0]], [False, False])
    values = np.exp(bubbles.bubble_values(mu, 160.0, square48))
    pts, w = bc.density_atoms(square48, values)
    _, _, captured = bc._cover(square48, eps).greedy_capture(square48, w, K)
    assert captured < 1.0 - eps
    out = bc.spread_points(square48, values, eps, K)
    _assert_same_outcome(out, _spread_points_oracle(square48, values, eps, K))
    assert isinstance(out, bc.Concentrated)
    assert not out.interior.any() and out.weighted_count <= K
    assert np.allclose(out.points, [[0.2833, 0.0], [0.7167, 0.0]], atol=1e-4)
    for point in out.points:
        assert meshmod.boundary_distances(square48, point[None])[0] < 1e-9
    d = np.linalg.norm(pts[:, None, :] - out.points[None, :, :],
                       axis=2).min(axis=1)
    assert w[d <= eps].sum() >= 1.0 - eps


def _bubble_density(mesh, centers, interior, scale):
    """Bubbles at `centers`; boundary-tagged ones are moved to y = 0."""
    centers = np.array(centers, dtype=float)
    centers[~np.asarray(interior), 1] = 0.0
    mu = bubbles.make_measure(centers, list(interior))
    return np.exp(bubbles.bubble_values(mu, scale, mesh))


_bubbles = st.lists(st.tuples(st.floats(0.1, 0.9), st.floats(0.1, 0.9),
                              st.booleans()), min_size=1, max_size=3)


@hypothesis.settings(max_examples=6, deadline=None)
@hypothesis.given(_bubbles, st.floats(5.0, 300.0),
                  st.sampled_from([0.15, 0.2, 0.3]), st.integers(1, 5))
def test_greedy_capture_matches_oracle(square48, atoms, scale, eps, K):
    values = _bubble_density(square48, [a[:2] for a in atoms],
                             [a[2] for a in atoms], scale)
    points, weights = bc.density_atoms(square48, values)
    net = bc._hex_net(square48, eps / 6.0)
    family, flags, captured = _greedy_capture(square48, points, weights,
                                              net, eps, K)
    ref_family, ref_flags, ref_captured = _greedy_capture_loop(
        square48, points, weights, net, eps, K)
    assert np.array_equal(np.array(family), np.array(ref_family))
    assert flags == ref_flags
    assert captured == ref_captured


# The projection covers at eps / 3, where the oracle's per-candidate scan
# is slow; larger eps keep its net small.
@hypothesis.settings(max_examples=4, deadline=None)
@hypothesis.given(_bubbles, st.floats(5.0, 300.0), st.sampled_from([0.3, 0.4]),
                  st.integers(1, 4))
def test_project_to_barycenters_matches_oracle(square48, atoms, scale, eps,
                                               K):
    values = _bubble_density(square48, [a[:2] for a in atoms],
                             [a[2] for a in atoms], scale)
    try:
        ref = _oracle(bc.project_to_barycenters, square48, values, eps, K)
    except NotConcentratedError:
        with pytest.raises(NotConcentratedError):
            bc.project_to_barycenters(square48, values, eps, K)
        return
    out = bc.project_to_barycenters(square48, values, eps, K)
    assert np.array_equal(out.points, ref.points)
    assert np.array_equal(out.weights, ref.weights)
    assert np.array_equal(out.interior, ref.interior)


def _project_to_barycenters_loop(mesh, f_values, eps, K):
    """The former `project_to_barycenters`, whose first-ball-wins
    assignment visits the family one member at a time."""
    outcome = bc.spread_points(mesh, f_values, eps / 3.0, K)
    if isinstance(outcome, bc.Spread) or len(outcome.points) == 0:
        raise NotConcentratedError("not captured")
    family, interior = outcome.points, outcome.interior
    points, weights = bc.density_atoms(mesh, f_values)
    ball = eps / 3.0
    assigned = np.full(len(points), -1)
    for k, p in enumerate(family):
        hit = (np.linalg.norm(points - p, axis=1) <= ball) & (assigned < 0)
        assigned[hit] = k
    t = np.bincount(np.where(assigned < 0, 0, assigned),
                    weights=np.where(assigned < 0, 0.0, weights),
                    minlength=len(family))
    t = t + weights[assigned < 0].sum() / len(family)
    t /= t.sum()
    atoms = family.copy()
    moved = np.zeros(len(family), bool)
    for k in range(len(family)):
        sel = assigned == k
        mass = weights[sel].sum()
        if mass > 0:
            atoms[k] = (weights[sel] @ points[sel]) / mass
            moved[k] = True
    onto = moved & ~interior
    atoms[onto] = meshmod.nearest_boundary_point(mesh, atoms[onto])
    return bc.BarycenterMeasure(points=atoms, weights=t, interior=interior)


# The draws of `test_project_to_barycenters_matches_oracle`, and two close
# bubbles whose family's balls overlap, where the first ball must win.
@hypothesis.settings(max_examples=4, deadline=None)
@hypothesis.given(_bubbles, st.floats(5.0, 300.0), st.sampled_from([0.3, 0.4]),
                  st.integers(1, 4))
@hypothesis.example([(0.3, 0.35, True), (0.38, 0.35, True)], 60.0, 0.4, 4)
def test_project_to_barycenters_matches_loop(square48, atoms, scale, eps, K):
    values = _bubble_density(square48, [a[:2] for a in atoms],
                             [a[2] for a in atoms], scale)
    try:
        ref = _project_to_barycenters_loop(square48, values, eps, K)
    except NotConcentratedError:
        with pytest.raises(NotConcentratedError):
            bc.project_to_barycenters(square48, values, eps, K)
        return
    out = bc.project_to_barycenters(square48, values, eps, K)
    assert np.array_equal(out.points, ref.points)
    assert np.array_equal(out.weights, ref.weights)
    assert np.array_equal(out.interior, ref.interior)


def test_spread_interior_atoms_lie_in_the_annulus():
    # Mass along the right half of the inner circle.  The net keeps points
    # up to one spacing outside the domain, and the unsigned boundary
    # distance once let such a point in the hole, at r = 0.469, be the
    # interior atom of the capturing family.
    annulus = meshmod.build_builtin("annulus", 64)
    x, y = annulus.vertices.T
    r, theta = np.hypot(x, y), np.arctan2(y, x)
    values = np.exp(-((r - 0.5) / 0.05) ** 2) * (np.abs(theta) < 1.5) + 1e-6
    out = bc.spread_points(annulus, values, 0.4, 3)
    assert isinstance(out, bc.Concentrated)
    assert out.interior.any()
    assert meshmod.contains(annulus, out.points[out.interior]).all()


def test_boundary_projections_do_not_grow_with_the_net(monkeypatch):
    # Each boundary projection is one call on an array, so halving eps,
    # which grows the net about fourfold, leaves the call counts unchanged.
    # Each call below is at a new eps, so each builds its own cover; the
    # mesh is this test's own, so no other test's cover is read.  K = 4
    # keeps the flat density's capture running at both eps: at 0.15, 4
    # times its capture bound, 1.27, reaches 1 - eps, where 2 times would
    # not.
    square48 = meshmod.build_builtin("unit_square", 48)
    calls = []
    nearest = meshmod.nearest_boundary_point

    def counted(mesh, points):
        calls.append(len(np.atleast_2d(points)))
        return nearest(mesh, points)
    monkeypatch.setattr(meshmod, "nearest_boundary_point", counted)
    flat = np.ones(square48.num_vertices)
    half = _bubble_density(square48, [(0.5, 0.0)], [False], 200.0)
    counts = []
    for eps in (0.3, 0.15):
        calls.clear()
        assert isinstance(bc.spread_points(square48, flat, eps, 4), bc.Spread)
        spread = len(calls)
        calls.clear()
        bc.project_to_barycenters(square48, half, eps, 1)
        counts.append((spread, len(calls)))
    assert counts == [(1, 2), (1, 2)]


def _uncached(fn, *args):
    """`fn` with the covering geometry rebuilt per call and kept on no
    mesh, everything else as in the library."""
    with mock.patch.object(bc, "_cover", _UncachedCover):
        return fn(*args)


def _cover_densities(mesh, rng, count):
    """The flat density and `count` sums of one to three Gaussian bumps
    centred at random vertices, some sharp (captured by the greedy), some
    wide."""
    yield np.ones(mesh.num_vertices)
    v = mesh.vertices
    for _ in range(count):
        centers = v[rng.choice(len(v), size=rng.integers(1, 4))]
        width = rng.choice([0.01, 0.03, 0.3])
        d2 = ((v[:, None, :] - centers[None]) ** 2).sum(axis=2)
        yield np.exp(-d2 / width ** 2).sum(axis=1) + 1e-9


@pytest.mark.parametrize("domain, res", [("unit_square", 48),
                                         ("annulus", 64)])
def test_cover_matches_uncached_path(domain, res):
    # A sequence of densities on one mesh, switching eps so that covers
    # are kept, added beside the other and evicted; the mesh is the test's
    # own.
    mesh = meshmod.build_builtin(domain, res)
    rng = np.random.default_rng(5)
    densities = list(_cover_densities(mesh, rng, 4))
    # Each density meets a different budget at each step, and K = 0 comes
    # first at some eps, before the greedy's candidates are built.
    # Each step keeps the covers of the two most recently used eps, the
    # latest last.
    kept = ([0.2], [0.2], [0.2, 0.2 / 3.0], [0.2 / 3.0, 0.2])
    for step, eps in enumerate((0.2, 0.2, 0.2 / 3.0, 0.2)):
        for k, values in enumerate(densities):
            K = (0, 2, 4)[(k + step) % 3]
            out = bc.spread_points(mesh, values, eps, K)
            _assert_same_outcome(out, _uncached(bc.spread_points, mesh,
                                                values, eps, K))
        assert list(mesh._covers) == kept[step]
    # The projection covers at eps / 3, which evicts the cover at 0.2 / 3;
    # psi_map goes through it.
    for values in densities[1:]:
        try:
            ref = _uncached(bc.project_to_barycenters, mesh, values, 0.3, 4)
        except NotConcentratedError:
            with pytest.raises(NotConcentratedError):
                bc.project_to_barycenters(mesh, values, 0.3, 4)
            continue
        out = bc.project_to_barycenters(mesh, values, 0.3, 4)
        assert np.array_equal(out.points, ref.points)
        assert np.array_equal(out.weights, ref.weights)
        assert np.array_equal(out.interior, ref.interior)
    assert list(mesh._covers) == [0.2, 0.3 / 3.0]
    assert all(cover.eps == eps for eps, cover in mesh._covers.items())


def _count_calls(monkeypatch, *names):
    """The number of calls to each of the named `bc` functions from now
    on, kept up to date in the returned dict."""
    counts = dict.fromkeys(names, 0)

    def counting(name):
        fn = getattr(bc, name)

        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted
    for name in names:
        monkeypatch.setattr(bc, name, counting(name))
    return counts


def test_cover_is_built_once_per_eps(monkeypatch):
    mesh = meshmod.build_builtin("unit_square", 24)
    counts = _count_calls(monkeypatch, "_hex_net", "_ball_incidence")
    flat = np.ones(mesh.num_vertices)
    seen = []
    # The mesh keeps two covers.  Back at 0.3, the cover at 0.15 becomes
    # the least recently used, so 0.2 evicts it and 0.3 is still kept.
    for eps in (0.3, 0.3, 0.15, 0.15, 0.3, 0.2, 0.3, 0.15):
        for name in counts:
            counts[name] = 0
        # K = 4 on the flat density reads both ball matrices: the capture
        # bound lets the greedy run, it captures too little, and the
        # far-apart points are taken.  (At 0.15 the bound rules K = 2 out.)
        assert isinstance(bc.spread_points(mesh, flat, eps, 4), bc.Spread)
        seen.append((counts["_hex_net"], counts["_ball_incidence"]))
    assert seen == [(1, 2), (0, 0), (1, 2), (0, 0), (0, 0), (1, 2), (0, 0),
                    (1, 2)]
    assert list(mesh._covers) == [0.3, 0.15]


def test_spread_then_project_builds_two_covers(monkeypatch):
    # The `concentration` workload's order on one mesh: a flat spread at
    # eps / 3, spreads at eps, then a projection at eps, which covers at
    # eps / 3 again.
    mesh = meshmod.build_builtin("unit_square", 48)
    built = []

    class Counted(bc._Cover):
        def __init__(self, mesh, eps):
            built.append(eps)
            super().__init__(mesh, eps)
    monkeypatch.setattr(bc, "_Cover", Counted)
    eps = 0.2
    flat = np.ones(mesh.num_vertices)
    _assert_same_outcome(bc.spread_points(mesh, flat, eps / 3.0, 2),
                         _uncached(bc.spread_points, mesh, flat, eps / 3.0, 2))
    rng = np.random.default_rng(7)
    for k, values in enumerate(_cover_densities(mesh, rng, 4)):
        _assert_same_outcome(bc.spread_points(mesh, values, eps, k % 5),
                             _uncached(bc.spread_points, mesh, values, eps,
                                       k % 5))
    two = _bubble_density(mesh, [(0.3, 0.35), (0.7, 0.65)], [True, True],
                          200.0)
    out = bc.project_to_barycenters(mesh, two, eps, 4)
    ref = _uncached(bc.project_to_barycenters, mesh, two, eps, 4)
    assert np.array_equal(out.points, ref.points)
    assert np.array_equal(out.weights, ref.weights)
    assert np.array_equal(out.interior, ref.interior)
    assert built == [eps / 3.0, eps]
    assert list(mesh._covers) == [eps, eps / 3.0]


def test_mesh_keeping_a_cover_is_freed_without_the_collector():
    mesh = meshmod.build_builtin("unit_square", 16)
    values = np.ones(mesh.num_vertices)
    bc.spread_points(mesh, values, 0.3, 2)
    bc.spread_points(mesh, values, 0.15, 2)
    assert list(mesh._covers) == [0.3, 0.15]
    refs = [weakref.ref(mesh)] + list(map(weakref.ref,
                                          mesh._covers.values()))
    gc.disable()
    try:
        del mesh
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_oracle_leaves_no_cover(square48):
    # The oracle rebuilds the geometry per call, so it can neither read a
    # cover built by the library path nor leave one for it.
    values = np.ones(square48.num_vertices)
    before = dict(getattr(square48, "_covers", {}))
    _spread_points_oracle(square48, values, 0.3, 0)
    assert getattr(square48, "_covers", {}) == before


# The bound-first greedy capture of `_Cover` against the loop oracle.
_CAPTURE_MESHES = {"square48": meshmod.build_builtin("unit_square", 48),
                   "disk": ORACLE_MESHES["disk"]}
_CAPTURE_EPS = [0.2 / 3.0, 0.2, 0.25 / 3.0, 0.15]


def _bumps(mesh, atoms):
    """Gaussian bumps at the vertices `atoms` names, (index, width) each."""
    v = mesh.vertices
    values = np.full(len(v), 1e-9)
    for k, width in atoms:
        d2 = ((v - v[k % len(v)]) ** 2).sum(axis=1)
        values += np.exp(-d2 / width ** 2)
    return values


def _with_capture_bound(mesh, bumps, eps, K, target):
    """`bumps` plus the flat density scaled so that K times the cover's
    capture bound of the normalized sum is `target`, or None where no scale
    reaches it."""
    cover = bc._Cover(mesh, eps)

    def excess(c):
        _, w = bc.density_atoms(mesh, bumps + c)
        return K * _capture_bound(cover, w) - target
    lo, hi = -30.0, 30.0                 # log10 of the flat density's scale
    if excess(10.0 ** lo) < 0.0 or excess(10.0 ** hi) > 0.0:
        return None
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(10.0 ** mid) > 0.0 else (lo, mid)
    values = bumps + 10.0 ** hi
    return values if abs(excess(10.0 ** hi)) <= 1e-6 else None


@st.composite
def _capture_case(draw):
    name = draw(st.sampled_from(sorted(_CAPTURE_MESHES)))
    mesh = _CAPTURE_MESHES[name]
    eps = draw(st.sampled_from(_CAPTURE_EPS))
    K = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["atoms", "flat", "at the bound"]))
    if kind == "flat":
        return name, eps, K, np.ones(mesh.num_vertices)
    atoms = draw(st.lists(st.tuples(st.integers(0, 10 ** 6),
                                    st.floats(0.002, 0.3)),
                          min_size=1, max_size=3))
    values = _bumps(mesh, atoms)
    if kind == "at the bound":
        # K times the bound within 1e-6 of 1 - eps, on either side.
        offset = draw(st.floats(-1e-6, 1e-6))
        values = _with_capture_bound(mesh, values, eps, K,
                                     1.0 - eps + offset)
        hypothesis.assume(values is not None)
    return name, eps, K, values


@hypothesis.settings(max_examples=25, deadline=None,
                     suppress_health_check=[
                         hypothesis.HealthCheck.filter_too_much,
                         hypothesis.HealthCheck.too_slow])
@hypothesis.given(_capture_case())
@hypothesis.example(("square48", 0.2 / 3.0, 2, np.ones(2401)))
# The flat density at eps 0.15 and K 2, which the capture bound rules out.
@hypothesis.example(("square48", 0.15, 2, np.ones(2401)))
@hypothesis.example(("disk", 0.15, 2,
                     np.ones(_CAPTURE_MESHES["disk"].num_vertices)))
# The flat density at eps 0.15 and K 4, which the capture bound lets run.
@hypothesis.example(("square48", 0.15, 4, np.ones(2401)))
def test_cover_greedy_capture_matches_loop(case):
    # Each case builds its own cover, from nothing.  Where K times the
    # capture bound is below 1 - eps, the cover's capture stops before it
    # builds anything, and the loop's captures less than 1 - eps.
    name, eps, K, values = case
    mesh = _CAPTURE_MESHES[name]
    points, weights = bc.density_atoms(mesh, values)
    cover = bc._Cover(mesh, eps)
    family, flags, captured = cover.greedy_capture(mesh, weights, K)
    ref_family, ref_flags, ref_captured = _greedy_capture_loop(
        mesh, points, weights, cover.net, eps, K)
    # No family captures more than K times the bound of `spread_points`.
    bound = K * _capture_bound(cover, weights)
    assert ref_captured <= bound
    if bound < 1.0 - eps:
        assert (family, flags, captured) == ([], [], 0.0)
        assert not cover._known.any() and cover._rows.shape[0] == 0
        return
    assert np.array_equal(np.array(family), np.array(ref_family))
    assert flags == ref_flags
    assert captured == ref_captured


def _full_candidates(mesh, net, eps):
    """Every net point's geometry and the eps-ball incidence of every
    candidate, as `_capture_candidates` builds them: interior candidates
    by net index, then boundary ones."""
    _, d0, half = meshmod._midpoint_bounds(mesh, net)
    inner, edge, foot = bc._net_geometry(mesh, net, d0, half, eps)
    cand, _, balls = _capture_candidates(mesh, mesh.vertices, net, eps)
    assert np.array_equal(cand, np.concatenate([net[inner], foot]))
    return inner, edge, foot, balls


@pytest.mark.parametrize("name", sorted(_CAPTURE_MESHES))
@pytest.mark.parametrize("eps", _CAPTURE_EPS)
def test_cover_bounds_and_rows_match_full_build(name, eps):
    # Densities at one cover build rows for a few candidates at a time;
    # each row, and each built net point's geometry, equals that of one
    # full build, and the bounds hold for every candidate.
    mesh = _CAPTURE_MESHES[name]
    cover = bc._Cover(mesh, eps)
    inner, edge, foot, balls = _full_candidates(mesh, cover.net, eps)
    rng = np.random.default_rng(11)
    v = mesh.vertices
    for k in range(6):
        atoms = [(rng.integers(len(v)), rng.choice([0.005, 0.02, 0.1]))
                 for _ in range(rng.integers(1, 4))]
        _, w = bc.density_atoms(mesh, _bumps(mesh, atoms))
        cover.greedy_capture(mesh, w, 1 + k % 4)
        upper_in, upper_edge, lower = cover._bounds(w)
        gain = balls @ w
        n_in = inner.sum()
        assert np.all(gain[:n_in] <= upper_in[inner])
        assert np.all(gain[n_in:] <= upper_edge[edge])
        assert np.all(gain[:n_in] >= lower[inner])
        assert np.all(gain[n_in:] >= lower[edge])
        assert gain.max() <= _capture_bound(cover, w)
    known = cover._known
    assert 0 < known.sum() and np.array_equal(cover._inner[known],
                                              inner[known])
    assert np.array_equal(cover._edge[known], edge[known])
    assert np.array_equal(cover._foot[known & edge],
                          foot[np.isin(np.flatnonzero(edge),
                                       np.flatnonzero(known))])
    # The full build's row of each built candidate.
    row = np.where(cover._row_edge,
                   inner.sum() + np.searchsorted(np.flatnonzero(edge),
                                                 cover._row_net),
                   np.searchsorted(np.flatnonzero(inner), cover._row_net))
    want = balls[row]
    assert np.array_equal(cover._rows.indptr, want.indptr)
    assert np.array_equal(cover._rows.indices, want.indices)


def test_hopeless_flat_spread_builds_no_candidate(monkeypatch):
    # The `concentration` workload's flat spread: two eps-balls hold at
    # most twice the capture bound, a box of 15 x 15 eps/4-cells, 13% of
    # the mass against the 93% needed, so no candidate's geometry or
    # eps-ball is built; the only ball matrix is the net's, and the only
    # boundary distances are those of the far-apart points.  The hex net,
    # built first, is not counted.
    mesh = meshmod.build_builtin("unit_square", 48)
    cover = bc._cover(mesh, 0.2 / 3.0)
    counts = _count_calls(monkeypatch, "_ball_incidence", "_net_geometry")
    sizes = []
    distances = meshmod.boundary_distances

    def counted_distances(mesh, points):
        sizes.append(len(points))
        return distances(mesh, points)
    monkeypatch.setattr(meshmod, "boundary_distances", counted_distances)
    out = bc.spread_points(mesh, np.ones(mesh.num_vertices), 0.2 / 3.0, 2)
    assert isinstance(out, bc.Spread)
    assert counts == {"_ball_incidence": 1, "_net_geometry": 0}
    assert sizes == [len(out.points)]
    assert mesh._covers[0.2 / 3.0] is cover
    assert not cover._known.any() and cover._rows.shape[0] == 0


def test_capture_bound_rules_out_the_flat_capture_at_0_15(monkeypatch):
    # On square48 the flat density's capture bound at eps 0.15 is 0.316,
    # so two eps-balls hold at most 63% of the mass against the 85% needed:
    # no candidate's geometry or eps-ball is built, and the only ball
    # matrix is the net's.  The outcome is bit for bit that of the full
    # capture, which runs where the bound is lifted, builds every
    # candidate and captures 7%.
    flat = np.ones(2401)
    full = meshmod.build_builtin("unit_square", 48)
    bounds = bc._Cover._bounds

    def lifted(self, weights):
        inner, edge, low = bounds(self, weights)
        return inner, np.full_like(edge, np.inf), low
    with mock.patch.object(bc._Cover, "_bounds", lifted):
        ref = bc.spread_points(full, flat, 0.15, 2)
    assert full._covers[0.15]._known.all()
    mesh = meshmod.build_builtin("unit_square", 48)
    counts = _count_calls(monkeypatch, "_ball_incidence", "_net_geometry")
    out = bc.spread_points(mesh, flat, 0.15, 2)
    assert isinstance(out, bc.Spread)
    _assert_same_outcome(out, ref)
    assert counts == {"_ball_incidence": 1, "_net_geometry": 0}
    assert not mesh._covers[0.15]._known.any()


def test_capturing_spread_bounds_each_pick_once(monkeypatch):
    # Two narrow bumps farther apart than an eps-ball's diameter, at K = 4:
    # the greedy capture takes one interior ball on each, and each pick
    # computes the cover's bounds once, the first pick's also serving the
    # test that rules a hopeless capture out.
    mesh = meshmod.build_builtin("unit_square", 48)
    atoms = [(int(np.argmin(np.linalg.norm(mesh.vertices - c, axis=1))), 0.02)
             for c in ([0.3, 0.3], [0.7, 0.7])]
    calls = []
    bounds = bc._Cover._bounds

    def counted(self, weights):
        calls.append(1)
        return bounds(self, weights)
    monkeypatch.setattr(bc._Cover, "_bounds", counted)
    out = bc.spread_points(mesh, _bumps(mesh, atoms), 0.2, 4)
    assert isinstance(out, bc.Concentrated)
    assert len(out.points) == 2 and out.interior.all()
    assert len(calls) == 2
