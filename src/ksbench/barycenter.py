"""Weighted barycenter measures, the bounded-Lipschitz metric and projections.

A barycenter measure is a finitely supported probability measure whose
interior atoms count twice and boundary atoms once toward the weight budget
K.  Densities on a mesh are identified with atom sets at the vertices via
the lumped mass quadrature.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.spatial import cKDTree

from . import mesh as meshmod
from .energy import EnergyFunctional, project_pi
from .errors import NotConcentratedError, NotInLowSublevelError

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


def _net_geometry(mesh, points, d0, half, eps):
    """Which capture candidates the net `points` give, from the midpoint
    bound `d0 - half <= d <= d0` of `mesh._midpoint_bounds` (a d0 of inf
    stands for any point farther than eps / 2 + half from every midpoint).

    A point inside the domain gives an interior candidate, itself, and a
    point within eps / 2 of the boundary a boundary candidate, its nearest
    boundary point.  Returns (inner, edge, the edge points' projections in
    the order of `points`).
    """
    # Only a point within eps / 2 of the boundary needs its exact distance:
    # by the midpoint bound d >= d0 - L/2, the others are interior
    # candidates and not boundary ones.
    close = np.flatnonzero(d0 - half <= eps / 2.0 * (1.0 + 1e-9) + 1e-12)
    bdist = np.full(len(points), np.inf)
    bdist[close] = meshmod.boundary_distances(mesh, points[close])
    inner, edge = bdist > 0.0, bdist < eps / 2.0
    # `_hex_net` keeps a point outside the domain only within 1.001
    # spacings (eps / 6 in `spread_points`) of a vertex, hence of the
    # boundary, so only such points need the winding test.
    near = np.flatnonzero(inner & (bdist <= 1.001 * eps / 6.0 * (1.0 + 1e-9)))
    inner[near] = meshmod.winding_numbers(mesh, points[near]) != 0
    foot = (meshmod.nearest_boundary_point(mesh, points[edge]) if edge.any()
            else np.zeros((0, 2)))
    return inner, edge, foot


def _grid_cells(points, origin, side, nx):
    """The flat index of the cell holding each point in a grid of square
    cells of the given side, `nx` to a row, whose first cell starts at
    `origin`."""
    x, y = np.floor((points - origin) / side).astype(np.intp).T
    return y * nx + x


def _box_sums(mass, r):
    """The sum of the 2-D array `mass` over the (2r + 1) x (2r + 1) box of
    cells around each cell, the cells beyond its edges holding 0.  With
    nonnegative masses each sum is accurate to far better than the 1e-9
    that `_Cover`'s bounds are padded by."""
    ny, nx = mass.shape
    pad = np.zeros((ny + 2 * r, nx + 2 * r))
    pad[r:r + ny, r:r + nx] = mass
    rows = pad[:ny].copy()
    for k in range(1, 2 * r + 1):
        rows += pad[k:k + ny]
    box = rows[:, :nx].copy()
    for k in range(1, 2 * r + 1):
        box += rows[:, k:k + nx]
    return box


class _Cover:
    """What `spread_points` computes from the mesh and eps alone: the hex
    net of spacing eps / 6, whose size gives the mass floor, and, each on
    first use, the net's eps / 6-balls, a grid of cells of side eps / 4
    and the greedy capture's candidates with their eps-balls.  Every
    density on the mesh at this eps shares it.

    The greedy capture builds a candidate only where it can still win.  An
    interior candidate is its net point and a boundary candidate lies
    within eps / 2 of it, so the candidate's eps-ball lies within 5 cells
    (interior) or 7 cells (boundary) of the net point's cell each way, one
    cell of that for the point's place in its cell and for rounding.  The
    mass in that box of cells bounds the candidate's gain from above; the
    ball holds the net point's own cell, whose mass bounds the gain from
    below.  Each pick builds, in one batch, the candidates whose upper
    bound reaches the best gain known, exact for the candidates already
    built and the best lower bound otherwise: their geometry (the midpoint
    bound, from one midpoint tree per cover, the exact boundary distance,
    the winding test and the boundary projection) and their eps-ball rows,
    kept for later picks and densities, one per net point and kind.

    It holds the mesh's vertex array but not the mesh, so a mesh that keeps
    its covers is still freed by reference counting.
    """

    def __init__(self, mesh, eps):
        self.eps = eps
        self.radius = eps / 6.0
        self.net = _hex_net(mesh, self.radius)
        self.mass_floor = eps / len(self.net)
        self._vertices = mesh.vertices
        n = len(self.net)
        # Per net point: the midpoint bound's d0 (NaN until queried), and
        # once its geometry is known, its candidates.
        self._midpoints = None
        self._d0 = np.full(n, np.nan)
        self._known = np.zeros(n, bool)
        self._inner = np.zeros(n, bool)
        self._edge = np.zeros(n, bool)
        self._foot = np.zeros((n, 2))
        # The eps-ball rows built so far, in blocks, with each row's net
        # point and kind; which net points have a row of each kind.
        self._rows = []
        self._row_net = np.zeros(0, np.intp)
        self._row_edge = np.zeros(0, bool)
        self._has_row = np.zeros((2, n), bool)       # interior, boundary

    @cached_property
    def _net_balls(self):
        return _ball_incidence(self.net, self._vertices, self.radius)

    def ball_masses(self, weights):
        """The mass of each net point's ball of the net's spacing."""
        return self._net_balls @ weights

    @cached_property
    def _cells(self):
        """The capture grid, cells of side eps / 4 from one eps below the
        vertices' least coordinates to one eps beyond their greatest, so
        that it holds every net point: its shape and the cell of each
        vertex and of each net point."""
        side = self.eps / 4.0
        origin = self._vertices.min(axis=0) - self.eps
        nx, ny = ((self._vertices.max(axis=0) + self.eps - origin)
                  // side).astype(int) + 2
        return ((ny, nx), _grid_cells(self._vertices, origin, side, nx),
                _grid_cells(self.net, origin, side, nx))

    def _bounds(self, weights):
        """For each net point, bounds on the mass of `weights` in its
        candidates' eps-balls: above, padded up against rounding, its boxes
        of 11 x 11 cells (interior) and 15 x 15 cells (boundary); below,
        padded down, its own cell."""
        (ny, nx), vert, net = self._cells
        mass = np.bincount(vert, weights=weights,
                           minlength=ny * nx).reshape(ny, nx)
        inner, edge = (_box_sums(mass, r).ravel()[net] * (1.0 + 1e-9)
                       for r in (5, 7))
        return inner, edge, mass.ravel()[net] * (1.0 - 1e-9)

    def _midpoint_distances(self, mesh, idx):
        """The midpoint bound's d0 of the net points `idx`, queried once
        each.  Beyond eps + L, far past the eps / 2 + L / 2 within which
        a point needs its exact boundary distance, it reads inf."""
        if self._midpoints is None:
            # The midpoints' tree and L / 2, for no point yet.
            tree, _, half = meshmod._midpoint_bounds(mesh, self.net[:0])
            self._midpoints = tree, half
        tree, half = self._midpoints
        todo = idx[np.isnan(self._d0[idx])]
        if len(todo):
            self._d0[todo], _ = tree.query(
                self.net[todo], distance_upper_bound=self.eps + 2.0 * half)
        return self._d0[idx]

    def _build(self, mesh, inner, edge):
        """The interior candidates of the net points in mask `inner` and
        the boundary candidates of those in mask `edge`: their geometry and
        eps-ball rows where not built yet, each in one batch.  Where either
        mask holds more than a quarter of the net, every candidate of the
        net is built at once: bounds that prune that little leave most of
        the rest to the next picks and densities at this eps, and one batch
        costs less than many."""
        if 4 * max(np.count_nonzero(inner), np.count_nonzero(edge)) > len(
                self.net):
            inner = edge = np.ones(len(self.net), bool)
        new = np.flatnonzero((inner | edge) & ~self._known)
        if len(new):
            d0 = self._midpoint_distances(mesh, new)
            self._known[new] = True
            self._inner[new], self._edge[new], foot = _net_geometry(
                mesh, self.net[new], d0, self._midpoints[1], self.eps)
            self._foot[new[self._edge[new]]] = foot
        ii = np.flatnonzero(inner & self._inner & ~self._has_row[0])
        ee = np.flatnonzero(edge & self._edge & ~self._has_row[1])
        if len(ii) + len(ee) == 0:
            return
        self._rows.append(_ball_incidence(
            np.concatenate([self.net[ii], self._foot[ee]]), self._vertices,
            self.eps))
        self._row_net = np.concatenate([self._row_net, ii, ee])
        self._row_edge = np.concatenate([self._row_edge,
                                         np.repeat([False, True],
                                                   [len(ii), len(ee)])])
        self._has_row[0, ii] = True
        self._has_row[1, ee] = True

    def _gains(self, mesh, weights, budget, bounds):
        """The mass of `weights` in each built candidate's eps-ball, 0 for
        a candidate the budget cannot afford, after building every
        candidate whose gain can reach the largest within 1e-12 by
        `bounds`, the `_bounds` of `weights`."""
        inner, edge, low = bounds
        gains = [rows @ weights for rows in self._rows]
        built = len(gains)
        afford = self._row_edge | (budget >= 2)
        best = (np.concatenate(gains)[afford].max(initial=0.0) if gains
                else 0.0)
        if budget >= 2:
            # Every net point gives a candidate: a point that `_hex_net`
            # keeps outside the domain lies within a spacing of a vertex,
            # so within eps / 2 of the boundary.
            cut = max(best, low.max()) * (1.0 - 1e-12)
            self._build(mesh, inner >= cut, edge >= cut)
        else:
            # Only boundary candidates are affordable.  A net point gives
            # one for sure where d0 < eps / 2; only the net points within
            # reach of the best gain known need their d0.
            idx = np.flatnonzero(edge >= best * (1.0 - 1e-12))
            sure = self._edge[idx] | (self._midpoint_distances(mesh, idx)
                                      < self.eps / 2.0 * (1.0 - 1e-9))
            cut = max(best, low[idx[sure]].max(initial=0.0)) * (1.0 - 1e-12)
            self._build(mesh, np.zeros(len(self.net), bool), edge >= cut)
        gains += [rows @ weights for rows in self._rows[built:]]
        gains = np.concatenate(gains) if gains else np.zeros(0)
        return np.where(self._row_edge | (budget >= 2), gains, 0.0)

    def _row(self, k):
        """The vertices in the eps-ball of built candidate `k`."""
        for rows in self._rows:
            if k < rows.shape[0]:
                return rows.indices[rows.indptr[k]:rows.indptr[k + 1]]
            k -= rows.shape[0]
        raise IndexError(k)

    def greedy_capture(self, mesh, weights, K):
        """Greedy capture of the vertex weights within budget K: each pick
        is the affordable candidate (interior 2, boundary 1) of largest
        uncovered eps-ball mass; gains within 1e-12 relative tie, and the
        boundary candidate, then the earlier net point, wins a tie.
        Returns (family, interior flags, captured mass fraction), and
        ([], [], 0.0) before building anything where K times the heaviest
        box of `_bounds`, which no eps-ball outweighs, is below 1 - eps."""
        family, flags = [], []
        covered = np.zeros(len(weights), bool)
        budget = K
        while budget > 0:
            uncovered = np.where(covered, 0.0, weights)
            bounds = self._bounds(uncovered)
            if budget == K and K * bounds[1].max() < 1.0 - self.eps:
                return [], [], 0.0
            gains = self._gains(mesh, uncovered, budget, bounds)
            top = gains.max(initial=0.0)
            if top <= 0.0:
                break
            near = np.flatnonzero(gains >= top * (1.0 - 1e-12))
            best = near[np.lexsort((self._row_net[near],
                                    ~self._row_edge[near]))[0]]
            covered[self._row(best)] = True
            i, edge = self._row_net[best], bool(self._row_edge[best])
            family.append((self._foot[i] if edge else self.net[i]).copy())
            flags.append(not edge)
            budget -= 1 if edge else 2
        return family, flags, weights[covered].sum()


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

    Each kept point q blocks the points p with `norm(p - q) < gap`.  A
    KD-tree ball around each point as it is kept, padded against rounding,
    proposes them; the norm decides (`vecdot` takes the same dot product
    per row as `norm` of one vector), so lattice points exactly `gap` apart
    resolve the same way as in a direct comparison against every kept
    point.  Only the kept points are queried: packing bounds them by the
    area over gap^2, far fewer than the candidates.
    """
    tree = cKDTree(cand)
    blocked = np.zeros(len(cand), dtype=bool)
    kept = []
    for idx in order:
        if blocked[idx]:
            continue
        kept.append(idx)
        near = np.array(tree.query_ball_point(cand[idx], gap * (1.0 + 1e-9)),
                        dtype=np.intp)
        diff = cand[near] - cand[idx]
        blocked[near[np.sqrt(np.vecdot(diff, diff)) < gap]] = True
    return cand[kept] if kept else np.zeros((0, 2))


def spread_points(mesh, f_values, eps, K):
    """Covering alternative for a normalized density.

    Returns Concentrated (with a witnessing family) when an admissible
    family of weighted count at most K captures 1 - eps of the mass within
    eps-balls, and Spread (points far apart, each holding definite mass,
    with weighted count at least K + 1) otherwise.

    The family is the greedy capture's, from the mesh's cover at eps.  It
    holds at most K eps-balls, each holding at most the heaviest box of
    15 x 15 eps/4-cells around a net point; where K times that is below
    1 - eps, the density is spread and no capture candidate is built.
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
    # First ball wins: disjointified.
    hit = np.linalg.norm(points[:, None] - family, axis=2) <= ball
    assigned = np.where(hit.any(axis=1), hit.argmax(axis=1), -1)
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
