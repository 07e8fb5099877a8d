"""Triangulated planar domains with Neumann boundary.

A mesh is immutable after construction.  Boundary edges are stored with the
domain on their left, so the outer loop runs counterclockwise and hole loops
run clockwise; this orientation is what makes the winding-number containment
test work on multiply connected domains.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .errors import MeshError

BUILTIN_NAMES = ("unit_square", "disk", "annulus")


@dataclass(eq=False)
class Mesh:
    vertices: np.ndarray            # (V, 2) float
    triangles: np.ndarray           # (T, 3) int, counterclockwise
    boundary_edges: np.ndarray      # (B, 2) int, directed, domain on the left
    boundary_vertex_flags: np.ndarray  # (V,) bool
    area: float
    genus: int
    triangle_areas: np.ndarray      # (T,) float

    @property
    def num_vertices(self):
        return len(self.vertices)

    def lumped_masses(self):
        """Vertex weights of the lumped mass matrix: integral of each hat function."""
        w = np.zeros(self.num_vertices)
        np.add.at(w, self.triangles.ravel(),
                  np.repeat(self.triangle_areas / 3.0, 3))
        return w


def _signed_areas(vertices, triangles):
    p = vertices[triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _boundary_loops(boundary_edges):
    """Split directed boundary edges into closed loops (lists of vertices)."""
    nxt = {}
    for a, b in boundary_edges:
        if a in nxt:
            raise MeshError("boundary is not a union of simple loops")
        nxt[int(a)] = int(b)
    loops = []
    remaining = set(nxt)
    while remaining:
        start = min(remaining)
        loop = [start]
        cur = nxt[start]
        remaining.discard(start)
        while cur != start:
            loop.append(cur)
            remaining.discard(cur)
            if cur not in nxt:
                raise MeshError("boundary loop is not closed")
            cur = nxt[cur]
        loops.append(loop)
    return loops


def _finalize(vertices, triangles, allow_flip=False):
    vertices = np.ascontiguousarray(vertices, dtype=float)
    triangles = np.ascontiguousarray(triangles, dtype=np.int64)
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise MeshError("triangles must be an (T, 3) index array")
    if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= len(vertices):
        raise MeshError("triangle index out of range")

    areas = _signed_areas(vertices, triangles)
    if allow_flip:
        flip = areas < 0
        triangles[flip] = triangles[flip][:, ::-1]
        areas = np.abs(areas)
    if np.any(areas <= 0):
        raise MeshError("inverted or degenerate triangle")

    # Undirected edge census; boundary edges occur in exactly one triangle.
    e = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]],
                        triangles[:, [2, 0]]])
    key = np.sort(e, axis=1)
    order = np.lexsort((key[:, 1], key[:, 0]))
    ks = key[order]
    new = np.ones(len(ks), bool)
    new[1:] = np.any(ks[1:] != ks[:-1], axis=1)
    group = np.cumsum(new) - 1
    counts = np.bincount(group)
    if counts.max(initial=0) > 2:
        raise MeshError("non-manifold edge (shared by more than two triangles)")
    first_of_group = order[new]
    boundary = first_of_group[counts == 1]
    boundary_edges = e[boundary]           # directed as in their triangle

    flags = np.zeros(len(vertices), bool)
    flags[boundary_edges.ravel()] = True

    n_edges = len(counts)
    chi = len(vertices) - n_edges + len(triangles)
    genus = 1 - chi
    if genus < 0:
        raise MeshError("mesh has positive Euler characteristic > 1")
    loops = _boundary_loops(boundary_edges)
    if len(loops) != genus + 1:
        raise MeshError("boundary loop count inconsistent with Euler characteristic")

    return Mesh(vertices=vertices, triangles=triangles,
                boundary_edges=boundary_edges, boundary_vertex_flags=flags,
                area=float(areas.sum()), genus=int(genus),
                triangle_areas=areas)


def _build_unit_square(n):
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([gx.ravel(), gy.ravel()])

    def vid(i, j):
        return i * (n + 1) + j

    tris = []
    for i in range(n):
        for j in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    return vertices, np.array(tris)


def _disk_rings(n):
    """Concentric rings of points for the inscribed n-gon disk."""
    m = max(1, int(round(n / 6)))
    pts = [(0.0, 0.0)]
    for j in range(1, m + 1):
        r = j / m
        nj = n if j == m else max(4, int(round(n * j / m)))
        # Half-step offset on the outer ring puts an edge midpoint on the
        # positive x axis; alternate inner rings for triangle quality.
        off = 0.5 if (m - j) % 2 == 0 else 0.0
        ang = 2.0 * np.pi * (np.arange(nj) + off) / nj
        pts.extend(zip(r * np.cos(ang), r * np.sin(ang)))
    return np.array(pts)


def _build_disk(n):
    vertices = _disk_rings(n)
    tri = Delaunay(vertices)
    return vertices, tri.simplices


def _build_annulus(n):
    m = max(2, int(round(n / 12)))
    layers = []
    for j in range(m + 1):
        r = 0.5 + 0.5 * j / m
        off = 0.5 if j % 2 else 0.0
        ang = 2.0 * np.pi * (np.arange(n) + off) / n
        layers.append(np.column_stack([r * np.cos(ang), r * np.sin(ang)]))
    vertices = np.concatenate(layers)

    tris = []
    for j in range(m):
        base0, base1 = j * n, (j + 1) * n
        for i in range(n):
            a = base0 + i
            b = base0 + (i + 1) % n
            c = base1 + i
            d = base1 + (i + 1) % n
            tris.append((a, b, d))
            tris.append((a, d, c))
    return vertices, np.array(tris)


def build_builtin(name, resolution):
    """Construct one of the built-in domains at the given resolution.

    unit_square: structured right-triangle grid, exact area 1.
    disk: inscribed regular polygon with `resolution` boundary vertices.
    annulus: inner radius 1/2, outer radius 1, genus 1.
    """
    if resolution < 4:
        raise MeshError("resolution must be at least 4")
    if name == "unit_square":
        v, t = _build_unit_square(resolution)
    elif name == "disk":
        v, t = _build_disk(resolution)
    elif name == "annulus":
        v, t = _build_annulus(resolution)
    else:
        raise MeshError(f"unsupported builtin domain {name!r}")
    return _finalize(v, t, allow_flip=True)


def load_mesh(text):
    """Parse the plain-text mesh format.

    Line 1 is `V T`, then V lines `x y`, then T lines `i j k` with 0-based,
    counterclockwise vertex indices.  Lines starting with `#` are comments.
    """
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise MeshError("empty mesh file")
    try:
        head = rows[0].split()
        nv, nt = int(head[0]), int(head[1])
        if len(rows) != 1 + nv + nt:
            raise MeshError(f"expected {1 + nv + nt} data lines, found {len(rows)}")
        verts = np.array([[float(x) for x in ln.split()] for ln in rows[1:1 + nv]])
        tris = np.array([[int(x) for x in ln.split()] for ln in rows[1 + nv:]],
                        dtype=np.int64)
        if verts.shape != (nv, 2) or tris.shape != (nt, 3):
            raise MeshError("malformed vertex or triangle line")
    except MeshError:
        raise
    except (ValueError, IndexError) as exc:
        raise MeshError(f"mesh parse error: {exc}") from exc
    return _finalize(verts, tris, allow_flip=False)


def winding_numbers(mesh, points):
    """Winding number of the oriented boundary around each query point.

    1 inside the domain, 0 outside (holes included in 'outside').
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    a = mesh.vertices[mesh.boundary_edges[:, 0]]
    b = mesh.vertices[mesh.boundary_edges[:, 1]]
    w = np.zeros(len(points), dtype=np.int64)
    px = points[:, 0][:, None]
    py = points[:, 1][:, None]
    ay, by = a[None, :, 1], b[None, :, 1]
    cross = ((b[None, :, 0] - a[None, :, 0]) * (py - ay)
             - (b[None, :, 1] - a[None, :, 1]) * (px - a[None, :, 0]))
    up = (ay <= py) & (by > py) & (cross > 0)
    down = (by <= py) & (ay > py) & (cross < 0)
    w += up.sum(axis=1) - down.sum(axis=1)
    return w


def boundary_distances(mesh, points):
    """Distance from each point to the mesh boundary (no containment check).

    Exact, with no (points x segments) matrix.  The midpoint of a segment
    lies on it, so the nearest midpoint, at distance d0, bounds the distance
    from above; a segment attaining the minimum therefore has its midpoint
    within d0 + L/2, L the longest segment.  A KD-tree ball of that radius,
    padded against rounding, proposes the candidate segments, and the
    clamped projection onto each candidate decides.
    """
    a = mesh.vertices[mesh.boundary_edges[:, 0]]
    b = mesh.vertices[mesh.boundary_edges[:, 1]]
    points = np.atleast_2d(points)
    if len(points) == 0:
        return np.empty(0)
    d = b - a
    tree = cKDTree(0.5 * (a + b))
    d0, _ = tree.query(points)
    half = 0.5 * float(np.linalg.norm(d, axis=1).max())
    balls = tree.query_ball_point(points, (d0 + half) * (1.0 + 1e-9) + 1e-12)
    counts = np.fromiter(map(len, balls), dtype=np.intp, count=len(points))
    seg = np.concatenate(balls).astype(np.intp)
    p = np.repeat(points, counts, axis=0)
    denom = np.einsum("sj,sj->s", d, d)
    denom = np.where(denom == 0.0, 1.0, denom)
    t = np.clip(np.einsum("nj,nj->n", p - a[seg], d[seg]) / denom[seg],
                0.0, 1.0)
    proj = a[seg] + t[:, None] * d[seg]
    dist = np.linalg.norm(p - proj, axis=1)
    return np.minimum.reduceat(dist, np.cumsum(counts) - counts)


def boundary_distance(mesh, p):
    """Distance from a point of the closed domain to the boundary."""
    p = np.asarray(p, dtype=float)
    d = float(boundary_distances(mesh, p[None, :])[0])
    if d > 1e-12 and winding_numbers(mesh, p[None, :])[0] == 0:
        raise MeshError(f"point {p.tolist()} lies outside the domain")
    return d


def contains(mesh, points, tol=1e-12):
    """Boolean mask: inside the closed domain (boundary band of width tol)."""
    inside = winding_numbers(mesh, points) != 0
    if not inside.all():
        idx = np.flatnonzero(~inside)
        near = boundary_distances(mesh, np.atleast_2d(points)[idx]) <= tol
        inside[idx[near]] = True
    return inside


def nearest_boundary_point(mesh, p):
    """Closest point on the mesh boundary to p."""
    p = np.asarray(p, dtype=float)
    a = mesh.vertices[mesh.boundary_edges[:, 0]]
    b = mesh.vertices[mesh.boundary_edges[:, 1]]
    d = b - a
    denom = np.einsum("sj,sj->s", d, d)
    denom = np.where(denom == 0.0, 1.0, denom)
    t = np.clip(((p - a) * d).sum(axis=1) / denom, 0.0, 1.0)
    proj = a + t[:, None] * d
    return proj[np.argmin(np.linalg.norm(proj - p, axis=1))]


def min_edge_length(mesh):
    e = np.concatenate([mesh.triangles[:, [0, 1]], mesh.triangles[:, [1, 2]],
                        mesh.triangles[:, [2, 0]]])
    v = mesh.vertices
    return float(np.linalg.norm(v[e[:, 0]] - v[e[:, 1]], axis=1).min())


def boundary_loops(mesh):
    """Closed boundary loops as vertex index lists."""
    return _boundary_loops(mesh.boundary_edges)


def vertex_tree(mesh):
    return cKDTree(mesh.vertices)
