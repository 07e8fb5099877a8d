"""Mesh construction, geometry queries and the plain-text format."""
import numpy as np
import pytest
from scipy.spatial import Delaunay

from ksbench import mesh as meshmod, spectrum
from ksbench.errors import MeshError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies



def _graded_square(ratio=60.0, steps=12, inner=30, seed=5):
    """Delaunay mesh of the unit square whose boundary segments grow
    geometrically by `ratio` over `steps` segments from each corner to the
    middle of a side, with `inner` random interior vertices.  The defaults
    give segments from about 0.005 to 0.15 in length, so that the nearest
    segment midpoint can belong to a segment other than the nearest one."""
    t = np.concatenate([[0.0], np.cumsum(np.geomspace(1.0, ratio, steps))])
    t /= t[-1]
    side = np.concatenate([t[:-1], 1.0 - t[:0:-1]])
    side = np.unique(np.round(side, 12))[:-1]
    one = np.ones_like(side)
    rim = np.concatenate([np.column_stack([side, 0 * one]),
                          np.column_stack([one, side]),
                          np.column_stack([1.0 - side, one]),
                          np.column_stack([0 * one, 1.0 - side])])
    inside = np.random.default_rng(seed).uniform(0.1, 0.9, size=(inner, 2))
    vertices = np.concatenate([rim, inside])
    tris = Delaunay(vertices).simplices
    p = vertices[tris]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    flip = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] < 0
    tris[flip] = tris[flip][:, ::-1]
    text = "\n".join([f"{len(vertices)} {len(tris)}"]
                     + [f"{float(x)!r} {float(y)!r}" for x, y in vertices]
                     + [" ".join(map(str, t)) for t in tris])
    return meshmod.load_mesh(text)


ORACLE_MESHES = {
    "unit_square": meshmod.build_builtin("unit_square", 16),
    "disk": meshmod.build_builtin("disk", 40),
    "annulus": meshmod.build_builtin("annulus", 30),
    "graded square": _graded_square(),
}


def _segment_distances(points, a, b):
    """Distance from each point to each segment [a_i, b_i]; (P, S) matrix."""
    points = np.atleast_2d(points)
    d = b - a                                     # (S, 2)
    pa = points[:, None, :] - a[None, :, :]       # (P, S, 2)
    denom = np.einsum("sj,sj->s", d, d)
    denom = np.where(denom == 0.0, 1.0, denom)
    t = np.clip(np.einsum("psj,sj->ps", pa, d) / denom, 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * d[None, :, :]
    return np.linalg.norm(points[:, None, :] - proj, axis=2)


def _boundary_distances_brute(mesh, points):
    """The former O(P x B) boundary_distances: every point against every
    boundary segment, in chunks."""
    a = mesh.vertices[mesh.boundary_edges[:, 0]]
    b = mesh.vertices[mesh.boundary_edges[:, 1]]
    points = np.atleast_2d(points)
    chunk = max(1, 4_000_000 // max(1, len(a)))
    out = np.empty(len(points))
    for lo in range(0, len(points), chunk):
        out[lo:lo + chunk] = _segment_distances(
            points[lo:lo + chunk], a, b).min(axis=1)
    return out


def _nearest_boundary_point_brute(mesh, p):
    """The former nearest_boundary_point: the point against every boundary
    segment, the first segment winning a tie.  An (n, 2) array is
    projected row by row."""
    p = np.asarray(p, dtype=float)
    if p.ndim == 2:
        return np.array([_nearest_boundary_point_brute(mesh, q)
                         for q in p]).reshape(-1, 2)
    a = mesh.vertices[mesh.boundary_edges[:, 0]]
    b = mesh.vertices[mesh.boundary_edges[:, 1]]
    d = b - a
    denom = np.einsum("sj,sj->s", d, d)
    denom = np.where(denom == 0.0, 1.0, denom)
    t = np.clip(((p - a) * d).sum(axis=1) / denom, 0.0, 1.0)
    proj = a + t[:, None] * d
    return proj[np.argmin(np.linalg.norm(proj - p, axis=1))]


def _special_points(mesh):
    """Vertices, boundary-edge points, points on the inward bisector at
    each boundary vertex (equidistant from its two segments), and the
    same points pushed outside the domain."""
    v = mesh.vertices
    a = v[mesh.boundary_edges[:, 0]]
    b = v[mesh.boundary_edges[:, 1]]
    d = b - a
    inward = np.column_stack([-d[:, 1], d[:, 0]])
    inward /= np.linalg.norm(inward, axis=1)[:, None]
    # The edge arriving at vertex i is the one whose head is i.
    arriving = np.empty(len(v), dtype=np.intp)
    arriving[mesh.boundary_edges[:, 1]] = np.arange(len(a))
    bisector = inward + inward[arriving[mesh.boundary_edges[:, 0]]]
    bisector /= np.linalg.norm(bisector, axis=1)[:, None]
    on_edges = np.concatenate([a + t * d for t in (0.25, 0.5, 0.9)])
    ties = np.concatenate([a + s * bisector for s in (0.01, 0.05, 0.2)])
    outside = np.concatenate([a - s * bisector for s in (0.01, 0.3)])
    return np.concatenate([v, on_edges, ties, outside])


def _unit_square_loops(n):
    """The former `_build_unit_square`: one Python loop iteration per cell."""
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


def _annulus_loops(n):
    """The former `_build_annulus`: one Python loop iteration per cell."""
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


GRID_BUILDERS = {
    "unit_square": (meshmod._build_unit_square, _unit_square_loops),
    "annulus": (meshmod._build_annulus, _annulus_loops),
}


@pytest.mark.parametrize("domain, n",
                         [("unit_square", n) for n in (4, 7, 32, 256)]
                         + [("annulus", n) for n in (4, 7, 29, 64, 256)])
def test_grid_builders_match_loops(domain, n):
    build, oracle = GRID_BUILDERS[domain]
    vertices, tris = build(n)
    want_vertices, want_tris = oracle(n)
    assert np.array_equal(vertices, want_vertices)
    assert tris.dtype == want_tris.dtype == np.int64
    assert np.array_equal(tris, want_tris)


def test_unit_square_area_and_counts(square64):
    assert square64.area == pytest.approx(1.0, rel=1e-12)
    assert square64.num_vertices == 65 * 65
    assert square64.genus == 0


def test_disk_area_converges(disk128, disk256):
    err128 = abs(disk128.area - np.pi)
    err256 = abs(disk256.area - np.pi)
    assert err128 / np.pi < 2e-3
    assert err256 < err128


def test_annulus_has_two_loops_and_genus_one():
    ann = meshmod.build_builtin("annulus", 64)
    assert ann.genus == 1
    assert len(meshmod._boundary_loops(ann.boundary_edges)) == 2


def test_boundary_distance_square_oracle(square64):
    pts = np.array([[0.5, 0.5], [0.1, 0.3], [0.97, 0.5], [0.5, 0.02]])
    expected = np.array([0.5, 0.1, 0.03, 0.02])
    got = meshmod.boundary_distances(square64, pts)
    assert np.allclose(got, expected, atol=1e-12)


def test_boundary_distance_chunking_matches_direct(disk128):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.7, 0.7, size=(50, 2))
    got = meshmod.boundary_distances(disk128, pts)
    assert np.allclose(got, _boundary_distances_brute(disk128, pts),
                       atol=1e-12)


def test_contains_square(square64):
    pts = np.array([[0.5, 0.5], [1.5, 0.5], [-0.01, 0.2], [1.0, 0.5]])
    inside = meshmod.contains(square64, pts)
    assert inside.tolist() == [True, False, False, True]


def test_nearest_boundary_point_is_on_boundary(disk128):
    p = meshmod.nearest_boundary_point(disk128, np.array([0.3, 0.1]))
    assert meshmod.boundary_distances(disk128, p[None])[0] < 1e-12
    assert np.linalg.norm(p) == pytest.approx(1.0, abs=2e-3)


def test_min_edge_length(square64):
    assert meshmod.min_edge_length(square64) == pytest.approx(1.0 / 64)


def _edge_census_oracle(triangles):
    """The former census of `_finalize`, by a two-column lexsort of the
    sorted sides: the boundary edges, and the edges (lo, hi) with the edge
    of each triangle side, in that census's group order."""
    e = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]],
                        triangles[:, [2, 0]]])
    key = np.sort(e, axis=1)
    order = np.lexsort((key[:, 1], key[:, 0]))
    ks = key[order]
    new = np.ones(len(ks), bool)
    new[1:] = np.any(ks[1:] != ks[:-1], axis=1)
    group = np.cumsum(new) - 1
    counts = np.bincount(group)
    side_edge = np.empty(len(e), dtype=np.intp)
    side_edge[order] = group
    return (e[order[new][counts == 1]], key[order[new]],
            side_edge.reshape(3, -1).T)


def _min_edge_length_oracle(mesh):
    """The former `min_edge_length`: every triangle side, shared ones twice."""
    e = np.concatenate([mesh.triangles[:, [0, 1]], mesh.triangles[:, [1, 2]],
                        mesh.triangles[:, [2, 0]]])
    v = mesh.vertices
    return float(np.linalg.norm(v[e[:, 0]] - v[e[:, 1]], axis=1).min())


def _check_edge_census(mesh):
    boundary_edges, edges, triangle_edges = _edge_census_oracle(mesh.triangles)
    assert np.array_equal(mesh.boundary_edges, boundary_edges)
    assert np.array_equal(mesh.edges, edges)
    assert np.array_equal(mesh.triangle_edges, triangle_edges)
    assert mesh.triangle_edges.flags.c_contiguous
    # Edge k of triangle t joins its corners k and k + 1.
    t = mesh.triangles
    sides = np.sort(np.stack([t, np.roll(t, -1, axis=1)], axis=2), axis=2)
    assert np.array_equal(mesh.edges[mesh.triangle_edges], sides)
    assert meshmod.min_edge_length(mesh) == _min_edge_length_oracle(mesh)


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
def test_edge_census_matches_lexsort_on_oracle_meshes(name):
    _check_edge_census(ORACLE_MESHES[name])


def test_edge_census_matches_lexsort_on_builtin_meshes(square48, disk128):
    for mesh in (square48, disk128, meshmod.build_builtin("annulus", 64)):
        _check_edge_census(mesh)


def test_topology_is_32_bit_where_the_census_key_is_not(square256):
    # On square256 (V = 66049) the census key lo V + hi passes 2^31 - 1,
    # so a 32-bit key would merge or split edges there.
    mesh = square256
    assert (mesh.num_vertices - 1) ** 2 > np.iinfo(np.int32).max
    for index in (mesh.triangles, mesh.boundary_edges, mesh.edges,
                  mesh.triangle_edges, spectrum.operators(mesh).order):
        assert index.dtype == np.int32
    _check_edge_census(mesh)


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(st.floats(1.0, 100.0), st.integers(2, 14),
                  st.integers(0, 40), st.integers(0, 2 ** 32 - 1))
def test_edge_census_matches_lexsort_on_graded_squares(ratio, steps, inner,
                                                       seed):
    _check_edge_census(_graded_square(ratio, steps, inner, seed))


def test_load_mesh_roundtrip_and_orientation():
    text = "4 2\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\n"
    m = meshmod.load_mesh(text)
    assert m.num_vertices == 4
    assert m.area == pytest.approx(1.0)
    assert len(m.boundary_edges) == 4


def test_load_mesh_rejects_malformed():
    with pytest.raises(MeshError):
        meshmod.load_mesh("")
    with pytest.raises(MeshError):
        meshmod.load_mesh("3 1\n0 0\n1 0\n0 1 2\n")
    with pytest.raises(MeshError):
        meshmod.load_mesh("3 1\n0 0\n1 0\nx y\n0 1 2\n")
    for vertices in ("0 0\n1 0\nnan 1", "0 0\n1 0\n0 inf",
                     "0 0\n1e200 0\n0 1e200"):    # the last area overflows
        with pytest.raises(MeshError):
            meshmod.load_mesh(f"3 1\n{vertices}\n0 1 2\n")


_BAD_TOKENS = ["nan", "-inf", "1e400", "1e200", "x", "", "1.5", "-1",
               str(2 ** 63)]


@st.composite
def _mesh_texts(draw):
    """An n x n grid of the square with up to three edits: a token replaced
    (by a small index or a non-finite, huge or unparsable one), a triangle
    dropped, or a triangle repeated with its corners in another order."""
    n = draw(st.integers(1, 3))
    lines = [[str(i), str(j)] for i in range(n + 1) for j in range(n + 1)]
    for i in range(n):
        for j in range(n):
            a, b = i * (n + 1) + j, (i + 1) * (n + 1) + j
            lines += [[str(a), str(b), str(b + 1)],
                      [str(a), str(b + 1), str(a + 1)]]
    nv = (n + 1) ** 2
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["token", "drop", "repeat"]))
        k = draw(st.integers(nv, len(lines) - 1))
        if edit == "token":
            tokens = lines[draw(st.integers(0, len(lines) - 1))]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
                st.one_of(st.integers(-1, nv).map(str),
                          st.sampled_from(_BAD_TOKENS)))
        elif edit == "drop" and len(lines) > nv + 1:
            del lines[k]
        else:
            lines.append(draw(st.permutations(lines[k])))
    header = f"{nv} {len(lines) - nv}"
    return "\n".join([header] + [" ".join(tokens) for tokens in lines])


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(st.one_of(_mesh_texts(), st.text(max_size=60)))
def test_load_mesh_raises_only_mesh_error(text):
    try:
        mesh = meshmod.load_mesh(text)
    except MeshError:
        return
    assert np.isfinite(mesh.area) and mesh.area > 0


def test_lumped_masses_sum_to_area(disk128):
    assert disk128.lumped_masses().sum() == pytest.approx(disk128.area)


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
def test_boundary_distances_match_brute_force(name):
    mesh = ORACLE_MESHES[name]
    pts = _special_points(mesh)
    assert np.array_equal(meshmod.boundary_distances(mesh, pts),
                          _boundary_distances_brute(mesh, pts))
    assert np.array_equal(meshmod.nearest_boundary_point(mesh, pts),
                          _nearest_boundary_point_brute(mesh, pts))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.sampled_from(sorted(ORACLE_MESHES)),
                  st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                           min_size=1, max_size=40))
def test_boundary_distances_match_brute_force_anywhere(name, points):
    mesh = ORACLE_MESHES[name]
    pts = np.array(points)
    assert np.array_equal(meshmod.boundary_distances(mesh, pts),
                          _boundary_distances_brute(mesh, pts))
    assert np.array_equal(meshmod.nearest_boundary_point(mesh, pts),
                          _nearest_boundary_point_brute(mesh, pts))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.sampled_from(sorted(ORACLE_MESHES)),
                  st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                           min_size=1, max_size=40))
def test_midpoint_bounds_bracket_the_boundary_distance(name, points):
    # d0 - L/2 <= d <= d0, up to rounding, inside the domain and out.
    mesh = ORACLE_MESHES[name]
    pts = np.array(points)
    _, d0, half = meshmod._midpoint_bounds(mesh, pts)
    d = _boundary_distances_brute(mesh, pts)
    assert np.all(d <= d0 + 1e-12)
    assert np.all(d0 - half <= d + 1e-12)


def test_boundary_distances_of_no_points():
    out = meshmod.boundary_distances(ORACLE_MESHES["disk"], np.zeros((0, 2)))
    assert out.shape == (0,)
    out = meshmod.nearest_boundary_point(ORACLE_MESHES["disk"],
                                         np.zeros((0, 2)))
    assert out.shape == (0, 2)
