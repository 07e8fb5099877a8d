"""Weighted barycenter measures, the bounded-Lipschitz metric and projections.

A barycenter measure is a finitely supported probability measure whose
interior atoms count twice and boundary atoms once toward the weight budget
K.  Densities on a mesh are identified with atom sets at the vertices via
the lumped mass quadrature.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.spatial import cKDTree

from . import mesh as meshmod
from .energy import EnergyFunctional, project_pi
from .errors import NotConcentratedError, NotInLowSublevelError

TAG_INTERIOR = "interior"
TAG_BOUNDARY = "boundary"


def weighted_count(interior):
    """2 * (#interior atoms) + (#boundary atoms)."""
    interior = np.asarray(interior, dtype=bool)
    return int(2 * interior.sum() + (~interior).sum())


@dataclass(eq=False)
class BarycenterMeasure:
    points: np.ndarray       # (n, 2)
    weights: np.ndarray      # (n,) positive, sums to 1
    interior: np.ndarray     # (n,) bool

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        self.interior = np.asarray(self.interior, dtype=bool)

    @property
    def weighted_count(self):
        return weighted_count(self.interior)

    def to_json(self):
        atoms = [{"x": float(p[0]), "y": float(p[1]), "w": float(w),
                  "tag": TAG_INTERIOR if i else TAG_BOUNDARY}
                 for p, w, i in zip(self.points, self.weights, self.interior)]
        return json.dumps({"atoms": atoms}, indent=2)

    @classmethod
    def from_json(cls, text):
        atoms = json.loads(text)["atoms"]
        return cls(points=np.array([[a["x"], a["y"]] for a in atoms]),
                   weights=np.array([a["w"] for a in atoms]),
                   interior=np.array([a["tag"] == TAG_INTERIOR for a in atoms]))


@dataclass(eq=False)
class JoinPoint:
    """Point of the join: measure at t = 0, pure sphere direction at t = 1."""
    measure: BarycenterMeasure | None
    sphere: np.ndarray | None
    t: float


@dataclass(eq=False)
class Spread:
    points: np.ndarray
    interior: np.ndarray
    mass_floor: float        # each point holds at least this mass in its ball
    radius: float            # the ball radius (eps / 6)

    @property
    def weighted_count(self):
        return weighted_count(self.interior)


@dataclass(eq=False)
class Concentrated:
    points: np.ndarray       # witnessing family, boundary members on the boundary
    interior: np.ndarray

    @property
    def weighted_count(self):
        return weighted_count(self.interior)


def density_atoms(mesh, values):
    """Vertex atoms representing a mesh density (lumped quadrature), normalized."""
    w = mesh.lumped_masses() * np.asarray(values, dtype=float)
    if np.any(w < -1e-12 * max(w.max(initial=0.0), 1.0)):
        raise ValueError("density must be nonnegative")
    w = np.clip(w, 0.0, None)
    total = w.sum()
    if total <= 0:
        raise ValueError("density has no mass")
    return mesh.vertices, w / total


def as_weighted_points(obj):
    if isinstance(obj, BarycenterMeasure):
        return obj.points, obj.weights
    points, weights = obj
    return np.atleast_2d(np.asarray(points, float)), np.asarray(weights, float)


def aggregate_atoms(points, weights, spacing):
    """Merge atoms into grid cells of the given spacing.

    Each output atom sits at the weighted centroid of its cell, so every
    unit of mass moves by at most spacing * sqrt(2); the bounded-Lipschitz
    distance to the original cloud is bounded by the same amount.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    weights = np.asarray(weights, dtype=float)
    key = np.floor(points / spacing).astype(np.int64)
    _, inv = np.unique(key, axis=0, return_inverse=True)
    n = inv.max() + 1
    w = np.bincount(inv, weights=weights, minlength=n)
    cx = np.bincount(inv, weights=weights * points[:, 0], minlength=n)
    cy = np.bincount(inv, weights=weights * points[:, 1], minlength=n)
    keep = w > 0
    centers = np.column_stack([cx[keep] / w[keep], cy[keep] / w[keep]])
    return centers, w[keep]


def bl_distance(mu, nu, prune=1e-10):
    """Bounded-Lipschitz distance, solved exactly as partial transport.

    The distance is sup sum h d over test functions with |h| <= 1 and
    Lip(h) <= 1, where d is the signed weight difference on the union
    support.  Write a_i > 0 for its positive atoms at x_i and b_j > 0 for
    its negative atoms at y_j.  By Kantorovich-Rubinstein duality for this
    flat norm (Hanin 1992; Piccoli and Rossi 2014) it equals

        sum a + sum b + min sum (|x_i - y_j| - 2) pi_ij
        over pi_ij >= 0,  sum_j pi_ij <= a_i,  sum_i pi_ij <= b_j:

    matched mass pays its transport distance and unmatched mass pays 1 per
    unit.  Only pairs closer than 2 can lower the cost, so they are the only
    variables; with one sign absent the distance is sum |d|.  Coincident
    support points are merged first.  Atoms carrying less than `prune` of
    the total variation are dropped (affects the value by at most twice the
    dropped mass).
    """
    pm, wm = as_weighted_points(mu)
    pn, wn = as_weighted_points(nu)
    if len(pm) == 0 or len(pn) == 0:
        raise ValueError("empty support")
    points = np.vstack([pm, pn])
    d = np.concatenate([wm, -wn])

    # Merge coincident support points.
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
    pos, neg = d > 0, d < 0
    a, b = d[pos], -d[neg]
    pairs = cKDTree(points[pos]).sparse_distance_matrix(
        cKDTree(points[neg]), 2.0, output_type="ndarray")
    pairs = pairs[pairs["v"] < 2.0]
    if len(pairs) == 0:
        return float(a.sum() + b.sum())

    m = len(pairs)
    rows = np.concatenate([pairs["i"], len(a) + pairs["j"]])
    cols = np.tile(np.arange(m), 2)
    A = sp.csr_matrix((np.ones(2 * m), (rows, cols)),
                      shape=(len(a) + len(b), m))
    # At HiGHS's default tolerances, 1e-7, a pair closer to the cap than
    # that looks unprofitable and a plan may overshoot a weight by that
    # much, each moving the distance by up to 1e-7 per unit weight; 1e-10,
    # the tightest HiGHS accepts, keeps the error near 1e-10.
    res = linprog(pairs["v"] - 2.0, A_ub=A, b_ub=np.concatenate([a, b]),
                  bounds=(0.0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise RuntimeError(f"bounded-Lipschitz LP failed: {res.message}")
    return float(a.sum() + b.sum() + res.fun)


def _hex_net(mesh, spacing):
    """Hexagonal lattice of the given spacing covering the closed domain."""
    lo = mesh.vertices.min(axis=0) - spacing
    hi = mesh.vertices.max(axis=0) + spacing
    dy = spacing * np.sqrt(3.0) / 2.0
    rows = []
    j = 0
    y = lo[1]
    while y <= hi[1]:
        xs = np.arange(lo[0] + 0.5 * spacing * (j % 2), hi[0] + spacing, spacing)
        rows.append(np.column_stack([xs, np.full(len(xs), y)]))
        y += dy
        j += 1
    net = np.concatenate(rows)
    # Keep points within one spacing of the domain so the balls cover it.
    tree = cKDTree(mesh.vertices)
    near, _ = tree.query(net, distance_upper_bound=spacing * 1.001)
    keep = np.isfinite(near)
    # A point of a triangle lies within the longest edge of each of its
    # corners, so only the far points within that reach, padded against
    # rounding, can lie in the domain.
    far = np.flatnonzero(~keep)
    reach = meshmod.edge_lengths(mesh).max() * (1.0 + 1e-9) + 1e-12
    near, _ = tree.query(net[far], distance_upper_bound=reach)
    far = far[np.isfinite(near)]
    keep[far[meshmod.contains(mesh, net[far])]] = True
    return net[keep]


def _ball_incidence(centers, points, radius):
    """Sparse boolean (centers x points) matrix, True where the point lies
    within `radius` of the center, with each row's points in increasing
    order.  Times a float vector it upcasts to ones and sums each row in
    that order.

    The (center, point) pairs come from one KD-tree pair query.  Each pair
    becomes a one-entry row; `tocsc` groups the pairs by point, and `tocsr`
    then groups them by center with the points in increasing order.  Both
    are O(pairs) counting passes, so no row is sorted.
    """
    pairs = cKDTree(centers).sparse_distance_matrix(
        cKDTree(points), radius, output_type="ndarray")
    n = len(pairs)
    by_point = sp.csr_matrix((np.ones(n, bool), pairs["j"], np.arange(n + 1)),
                             shape=(n, len(points))).tocsc()
    return sp.csc_matrix((by_point.data, pairs["i"][by_point.indices],
                          by_point.indptr),
                         shape=(len(centers), len(points))).tocsr()


def _capture_candidates(mesh, points, net, eps):
    """The greedy capture's candidates, their costs and their eps-balls.

    Interior candidates are the net points inside the domain and cost 2 of
    the budget; boundary candidates are the nearest boundary points of the
    net points within eps / 2 of the boundary and cost 1.  Returns
    (candidates, costs, candidates x points ball incidence).
    """
    # Only a point within eps / 2 of the boundary needs its exact distance:
    # by the midpoint bound d >= d0 - L/2, the others are interior
    # candidates and not boundary ones.
    _, d0, half = meshmod._midpoint_bounds(mesh, net)
    close = np.flatnonzero(d0 - half <= eps / 2.0 * (1.0 + 1e-9) + 1e-12)
    bdist = np.full(len(net), np.inf)
    bdist[close] = meshmod.boundary_distances(mesh, net[close])
    inner, edge = bdist > 0.0, bdist < eps / 2.0
    # `_hex_net` keeps a point outside the domain only within 1.001
    # spacings (eps / 6 in `spread_points`) of a vertex, hence of the
    # boundary, so only such points need the winding test.
    near = np.flatnonzero(inner & (bdist <= 1.001 * eps / 6.0 * (1.0 + 1e-9)))
    inner[near] = meshmod.winding_numbers(mesh, net[near]) != 0
    cand = np.concatenate([net[inner],
                           meshmod.nearest_boundary_point(mesh, net[edge])])
    cost = np.repeat([2, 1], [inner.sum(), edge.sum()])
    return cand, cost, _ball_incidence(cand, points, eps)


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
    candidates built for this call: `_greedy_select` over
    `_capture_candidates`.  `spread_points` takes the same candidates from
    the mesh's cover instead.
    """
    return _greedy_select(*_capture_candidates(mesh, points, net, eps),
                          weights, K)


class _Cover:
    """What `spread_points` computes from the mesh and eps alone: the hex
    net of spacing eps / 6, whose size gives the mass floor, and, each on
    first use, the net's eps / 6-balls and the greedy capture's candidates
    with their eps-balls.  Every density on the mesh at this eps shares it.

    It holds the mesh's vertex array but not the mesh, so a mesh that keeps
    its covers is still freed by reference counting.
    """

    def __init__(self, mesh, eps):
        self.eps = eps
        self.radius = eps / 6.0
        self.net = _hex_net(mesh, self.radius)
        self.mass_floor = eps / len(self.net)
        self._vertices = mesh.vertices
        self._candidates = None

    @cached_property
    def _net_balls(self):
        return _ball_incidence(self.net, self._vertices, self.radius)

    def ball_masses(self, weights):
        """The mass of each net point's ball of the net's spacing."""
        return self._net_balls @ weights

    def greedy_capture(self, mesh, weights, K):
        """`_greedy_capture` of the vertex weights on the net."""
        if self._candidates is None:
            self._candidates = _capture_candidates(mesh, self._vertices,
                                                   self.net, self.eps)
        return _greedy_select(*self._candidates, weights, K)


def _cover(mesh, eps):
    """The `_Cover` of `mesh` at `eps`.  The mesh keeps the covers of the
    two eps it was last asked for, oldest first, since a projection at eps
    covers at eps / 3 beside spreads at eps; a third eps evicts the least
    recently used."""
    covers = mesh.__dict__.setdefault("_covers", {})
    cover = covers.pop(eps, None) or _Cover(mesh, eps)
    covers[eps] = cover
    if len(covers) > 2:
        del covers[next(iter(covers))]
    return cover


def _far_apart(cand, order, gap):
    """Greedy far-apart subset: visit `cand` in `order`, keep a point unless
    a kept one lies closer than `gap`.

    Each kept point q blocks the points p with `norm(p - q) < gap`.  One
    KD-tree pair query, padded against rounding, proposes every pair; the
    norm decides (`vecdot` takes the same dot product per row as `norm` of
    one vector), so lattice points exactly `gap` apart resolve the same way
    as in a direct comparison against every kept point.  Each blocking
    pair, in both directions, becomes a one-entry row; `tocsc` groups them
    by their first point in one O(pairs) counting pass, as in
    `_ball_incidence`, and the visit only indexes the neighbour lists.
    """
    pairs = cKDTree(cand).query_pairs(gap * (1.0 + 1e-9),
                                      output_type="ndarray")
    diff = cand[pairs[:, 1]] - cand[pairs[:, 0]]
    a, b = pairs[np.sqrt(np.vecdot(diff, diff)) < gap].T
    m = 2 * len(a)
    by_point = sp.csr_matrix((np.ones(m, bool), np.concatenate([a, b]),
                              np.arange(m + 1)), shape=(m, len(cand))).tocsc()
    near, start = np.concatenate([b, a])[by_point.indices], by_point.indptr
    blocked = np.zeros(len(cand), dtype=bool)
    kept = []
    for idx in order:
        if blocked[idx]:
            continue
        kept.append(idx)
        blocked[near[start[idx]:start[idx + 1]]] = True
    return cand[kept] if kept else np.zeros((0, 2))


def spread_points(mesh, f_values, eps, K):
    """Covering alternative for a normalized density.

    Returns Concentrated (with a witnessing family) when an admissible
    family of weighted count at most K captures 1 - eps of the mass within
    eps-balls, and Spread (points far apart, each holding definite mass,
    with weighted count at least K + 1) otherwise.
    """
    _, weights = density_atoms(mesh, f_values)
    cover = _cover(mesh, eps)
    radius = cover.radius

    if K > 0:
        family, flags, captured = cover.greedy_capture(mesh, weights, K)
        if captured >= 1.0 - eps:
            return Concentrated(points=np.array(family),
                                interior=np.array(flags, bool))

    ball_mass = cover.ball_masses(weights)
    heavy = ball_mass >= cover.mass_floor
    cand = cover.net[heavy]
    cand_mass = ball_mass[heavy]

    order = np.lexsort((cand[:, 1], cand[:, 0], -cand_mass))
    chosen = _far_apart(cand, order, 4.0 * radius)
    bdist = (meshmod.boundary_distances(mesh, chosen)
             if len(chosen) else np.zeros(0))
    interior = bdist >= radius

    if weighted_count(interior) >= K + 1:
        return Spread(points=chosen, interior=interior,
                      mass_floor=cover.mass_floor, radius=radius)
    # The far-apart construction itself stayed within budget, so its balls
    # capture the mass; boundary-tagged members move onto the boundary.
    witness = chosen.copy()
    witness[~interior] = meshmod.nearest_boundary_point(mesh,
                                                        chosen[~interior])
    return Concentrated(points=witness, interior=interior)


def project_to_barycenters(mesh, f_values, eps, K):
    """Project a concentrated density onto an admissible atom measure.

    Atoms sit at the capturing family (refined to local centers of mass),
    weighted by disjointified ball masses of radius eps/3 plus equal shares
    of the residual; the result is within eps of the density in the
    bounded-Lipschitz metric.
    """
    outcome = spread_points(mesh, f_values, eps / 3.0, K)
    if isinstance(outcome, Spread):
        raise NotConcentratedError(
            "density is not captured by an admissible atom family")
    family, interior = outcome.points, outcome.interior
    if len(family) == 0:
        raise NotConcentratedError("no capturing atoms found")

    points, weights = density_atoms(mesh, f_values)
    ball = eps / 3.0
    assigned = np.full(len(points), -1)
    for k, p in enumerate(family):          # first ball wins: disjointified
        hit = (np.linalg.norm(points - p, axis=1) <= ball) & (assigned < 0)
        assigned[hit] = k
    t = np.bincount(np.where(assigned < 0, 0, assigned),
                    weights=np.where(assigned < 0, 0.0, weights),
                    minlength=len(family))
    residual = weights[assigned < 0].sum()
    t = t + residual / len(family)
    t /= t.sum()

    # Refine atom positions to the local center of mass of their ball.
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
    return BarycenterMeasure(points=atoms, weights=t, interior=interior)


def psi_map(u, basis, I, K, eps):
    """Decompose a low-energy field into (measure, sphere direction, t).

    t = min(1, |Pi_I u|); the sphere entry exists for t > 0 and the measure
    entry for t < 1 (via the barycenter projection of e^u / int e^u).
    """
    model = EnergyFunctional.for_mesh(u.mesh)
    pi = project_pi(u, basis, I)
    norm = float(np.linalg.norm(pi))
    t = min(1.0, norm)
    sphere = pi / norm if t > 0.0 else None
    measure = None
    if t < 1.0:
        density = model.exp_density(u)
        try:
            measure = project_to_barycenters(model.mesh, density, eps, K)
        except NotConcentratedError as exc:
            raise NotInLowSublevelError("u not in a low sublevel") from exc
    return JoinPoint(measure=measure, sphere=sphere, t=t)
