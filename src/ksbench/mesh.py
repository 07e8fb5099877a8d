"""Triangulated planar domains with Neumann boundary.

A mesh is immutable after construction.  Boundary edges are stored with the
domain on their left, so the outer loop runs counterclockwise and hole loops
run clockwise; this orientation is what makes the winding-number containment
test work on multiply connected domains.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Delaunay, cKDTree

from .errors import MeshError

BUILTIN_NAMES = ("unit_square", "disk", "annulus")
CONTAINS_TOL = 1e-12        # width of the boundary band that `contains` admits


@dataclass(eq=False)
class Mesh:
    vertices: np.ndarray            # (V, 2) float
    triangles: np.ndarray           # (T, 3) int32, counterclockwise
    boundary_edges: np.ndarray      # (B, 2) int32, directed, domain on left
    boundary_vertex_flags: np.ndarray  # (V,) bool
    area: float
    genus: int
    triangle_areas: np.ndarray      # (T,) float
    edges: np.ndarray               # (E, 2) int32, lo < hi, in lo V + hi order
    triangle_edges: np.ndarray      # (T, 3) int32, edge k joins corners k, k+1

    @property
    def num_vertices(self):
        return len(self.vertices)

    def lumped_masses(self):
        """Vertex weights of the lumped mass matrix: integral of each hat function."""
        return np.bincount(self.triangles.ravel(),
                           weights=np.repeat(self.triangle_areas / 3.0, 3),
                           minlength=self.num_vertices)


def _signed_areas(vertices, triangles):
    p = vertices[triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _boundary_loop_count(boundary_edges, num_vertices):
    """The number of closed loops that the directed boundary edges form:
    the weak components of their graph, less the vertices on none."""
    a, b = boundary_edges.T
    if len(np.unique(a)) < len(a):
        raise MeshError("boundary is not a union of simple loops")
    if not np.array_equal(np.sort(a), np.sort(b)):
        raise MeshError("boundary loop is not closed")
    graph = sp.csr_matrix((np.ones(len(a)), (a, b)),
                          shape=(num_vertices, num_vertices))
    count, _ = connected_components(graph, connection="weak")
    return count - (num_vertices - len(a))


def _finalize(vertices, triangles, allow_flip=False):
    """The `Mesh` of `vertices` and the vertex triples `triangles`, with its
    topology (triangles, edges, boundary edges and side maps) in 32-bit
    indices, whatever the width of the indices given: they are
    range-checked first."""
    vertices = np.ascontiguousarray(vertices, dtype=float)
    triangles = np.asarray(triangles)
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise MeshError("triangles must be an (T, 3) index array")
    if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= len(vertices):
        raise MeshError("triangle index out of range")
    triangles = np.ascontiguousarray(triangles, dtype=np.int32)

    with np.errstate(over="ignore", invalid="ignore"):
        areas = _signed_areas(vertices, triangles)
        finite = np.isfinite(vertices).all() and np.isfinite(abs(areas).sum())
    if not finite:
        raise MeshError("vertex coordinates and triangle areas must be finite")
    if allow_flip:
        flip = areas < 0
        triangles[flip] = triangles[flip][:, ::-1]
        areas = np.abs(areas)
    if np.any(areas <= 0):
        raise MeshError("inverted or degenerate triangle")

    # Undirected edge census by the key lo V + hi of each triangle side; the
    # stable sort keeps the sides of one edge in triangle order.  Boundary
    # edges occur in exactly one triangle.  The key alone is 64-bit: it
    # passes 2^31 - 1 from V = 46341 on.
    e = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]],
                        triangles[:, [2, 0]]])
    lo, hi = e.min(axis=1), e.max(axis=1)
    key = lo.astype(np.int64) * len(vertices) + hi
    order = np.argsort(key, kind="stable")
    ks = key[order]
    new = np.ones(len(ks), bool)
    new[1:] = ks[1:] != ks[:-1]
    group = np.cumsum(new) - 1
    counts = np.bincount(group)
    if counts.max(initial=0) > 2:
        raise MeshError("non-manifold edge (shared by more than two triangles)")
    first_of_group = order[new]
    boundary = first_of_group[counts == 1]
    boundary_edges = e[boundary]           # directed as in their triangle
    edges = np.column_stack([lo, hi])[first_of_group]
    side_edge = np.empty(len(e), dtype=np.int32)
    side_edge[order] = group

    flags = np.zeros(len(vertices), bool)
    flags[boundary_edges.ravel()] = True

    chi = len(vertices) - len(edges) + len(triangles)
    genus = 1 - chi
    if genus < 0:
        raise MeshError("mesh has positive Euler characteristic > 1")
    if _boundary_loop_count(boundary_edges, len(vertices)) != genus + 1:
        raise MeshError("boundary loop count inconsistent with Euler characteristic")

    return Mesh(vertices=vertices, triangles=triangles,
                boundary_edges=boundary_edges, boundary_vertex_flags=flags,
                area=float(areas.sum()), genus=int(genus),
                triangle_areas=areas, edges=edges,
                triangle_edges=np.ascontiguousarray(side_edge.reshape(3, -1).T))


def _build_unit_square(n):
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([gx.ravel(), gy.ravel()])

    # Cell (i, j) has corners a = (i, j), b = (i+1, j), c = (i+1, j+1) and
    # d = (i, j+1), vertex (i, j) being i (n + 1) + j; each cell gives the
    # triangles (a, b, c) and (a, c, d), cells in row-major order.
    i, j = np.divmod(np.arange(n * n), n)
    a = i * (n + 1) + j
    b, c, d = a + n + 1, a + n + 2, a + 1
    return vertices, np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)


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

    # Cell (j, i) joins points i and i + 1 (mod n) of layers j and j + 1
    # and gives the triangles (a, b, d) and (a, d, c), cells layer by layer.
    j, i = np.divmod(np.arange(m * n), n)
    a, b = j * n + i, j * n + (i + 1) % n
    c, d = a + n, b + n
    return vertices, np.stack([a, b, d, a, d, c], axis=1).reshape(-1, 3)


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
    except (ValueError, IndexError, OverflowError) as exc:
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


def _midpoint_bounds(mesh, points):
    """Distance d0 from each point to the nearest boundary-segment midpoint.

    The midpoint of a segment lies on it, so d0 bounds the boundary
    distance d from above.  The nearest boundary point lies within L/2 of
    its segment's midpoint, L the longest segment, so d0 - L/2 <= d <= d0.
    Returns the midpoints' KD-tree, d0 and L/2.
    """
    a = mesh.vertices[mesh.boundary_edges[:, 0]]
    b = mesh.vertices[mesh.boundary_edges[:, 1]]
    tree = cKDTree(0.5 * (a + b))
    d0, _ = tree.query(points)
    return tree, d0, 0.5 * float(np.linalg.norm(b - a, axis=1).max())


def _segment_projections(mesh, points):
    """Clamped projections of each point onto its candidate boundary segments.

    Exact, with no (points x segments) matrix.  By `_midpoint_bounds`, a
    segment attaining the minimum distance has its midpoint within d0 + L/2.
    A KD-tree ball of that radius, padded against rounding, proposes the
    candidate segments, in increasing index order, and the clamped
    projection onto each candidate decides.  Returns the candidates'
    distances and projections, flat, and the number of candidates of each
    point.
    """
    a = mesh.vertices[mesh.boundary_edges[:, 0]]
    d = mesh.vertices[mesh.boundary_edges[:, 1]] - a
    tree, d0, half = _midpoint_bounds(mesh, points)
    balls = tree.query_ball_point(points, (d0 + half) * (1.0 + 1e-9) + 1e-12,
                                  return_sorted=True)
    counts = np.fromiter(map(len, balls), dtype=np.intp, count=len(points))
    seg = np.concatenate(balls).astype(np.intp)
    p = np.repeat(points, counts, axis=0)
    denom = np.einsum("sj,sj->s", d, d)
    denom = np.where(denom == 0.0, 1.0, denom)
    t = np.clip(np.einsum("nj,nj->n", p - a[seg], d[seg]) / denom[seg],
                0.0, 1.0)
    proj = a[seg] + t[:, None] * d[seg]
    return np.linalg.norm(p - proj, axis=1), proj, counts


def boundary_distances(mesh, points):
    """Distance from each point to the mesh boundary (no containment check)."""
    points = np.atleast_2d(points)
    if len(points) == 0:
        return np.empty(0)
    dist, _, counts = _segment_projections(mesh, points)
    return np.minimum.reduceat(dist, np.cumsum(counts) - counts)


def contains(mesh, points):
    """Boolean mask: inside the closed domain (boundary band CONTAINS_TOL)."""
    inside = winding_numbers(mesh, points) != 0
    if not inside.all():
        idx = np.flatnonzero(~inside)
        d = boundary_distances(mesh, np.atleast_2d(points)[idx])
        inside[idx[d <= CONTAINS_TOL]] = True
    return inside


def nearest_boundary_point(mesh, points):
    """Closest boundary point to each point: (n, 2) for (n, 2), (2,) for (2,).

    On a tie the segment of lowest index wins.
    """
    points = np.asarray(points, dtype=float)
    flat = np.atleast_2d(points)
    if len(flat) == 0:
        return np.empty((0, 2))
    dist, proj, counts = _segment_projections(mesh, flat)
    starts = np.cumsum(counts) - counts
    at_min = dist == np.repeat(np.minimum.reduceat(dist, starts), counts)
    first = np.minimum.reduceat(np.where(at_min, np.arange(len(dist)),
                                         len(dist)), starts)
    out = proj[first]
    return out[0] if points.ndim == 1 else out


def edge_lengths(mesh):
    """Length of each edge of `mesh.edges`."""
    v = mesh.vertices
    return np.linalg.norm(v[mesh.edges[:, 0]] - v[mesh.edges[:, 1]], axis=1)


def min_edge_length(mesh):
    return float(edge_lengths(mesh).min())
