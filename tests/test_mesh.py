"""Mesh construction, geometry queries and the plain-text format."""
import numpy as np
import pytest
from scipy.spatial import Delaunay

from ksbench import mesh as meshmod
from ksbench.errors import MeshError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies



def _graded_square():
    """Delaunay mesh of the unit square whose boundary segments range from
    about 0.005 to 0.15 in length, so that the nearest segment midpoint
    can belong to a segment other than the nearest one."""
    t = np.concatenate([[0.0], np.cumsum(np.geomspace(1.0, 60.0, 12))])
    t /= t[-1]
    side = np.concatenate([t[:-1], 1.0 - t[:0:-1]])
    side = np.unique(np.round(side, 12))[:-1]
    one = np.ones_like(side)
    rim = np.concatenate([np.column_stack([side, 0 * one]),
                          np.column_stack([one, side]),
                          np.column_stack([1.0 - side, one]),
                          np.column_stack([0 * one, 1.0 - side])])
    inner = np.random.default_rng(5).uniform(0.1, 0.9, size=(30, 2))
    vertices = np.concatenate([rim, inner])
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
    assert len(meshmod.boundary_loops(ann)) == 2


def test_boundary_distance_square_oracle(square64):
    pts = np.array([[0.5, 0.5], [0.1, 0.3], [0.97, 0.5], [0.5, 0.02]])
    expected = np.array([0.5, 0.1, 0.03, 0.02])
    got = meshmod.boundary_distances(square64, pts)
    assert np.allclose(got, expected, atol=1e-12)


def test_boundary_distance_chunking_matches_direct(disk128):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.7, 0.7, size=(50, 2))
    got = meshmod.boundary_distances(disk128, pts)
    single = np.array([meshmod.boundary_distance(disk128, p) for p in pts])
    assert np.allclose(got, single, atol=1e-12)


def test_contains_square(square64):
    pts = np.array([[0.5, 0.5], [1.5, 0.5], [-0.01, 0.2], [1.0, 0.5]])
    inside = meshmod.contains(square64, pts)
    assert inside.tolist() == [True, False, False, True]


def test_nearest_boundary_point_is_on_boundary(disk128):
    p = meshmod.nearest_boundary_point(disk128, np.array([0.3, 0.1]))
    assert meshmod.boundary_distance(disk128, p) < 1e-12
    assert np.linalg.norm(p) == pytest.approx(1.0, abs=2e-3)


def test_min_edge_length(square64):
    assert meshmod.min_edge_length(square64) == pytest.approx(1.0 / 64)


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


def test_lumped_masses_sum_to_area(disk128):
    assert disk128.lumped_masses().sum() == pytest.approx(disk128.area)


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
def test_boundary_distances_match_brute_force(name):
    mesh = ORACLE_MESHES[name]
    pts = _special_points(mesh)
    assert np.array_equal(meshmod.boundary_distances(mesh, pts),
                          _boundary_distances_brute(mesh, pts))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.sampled_from(sorted(ORACLE_MESHES)),
                  st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                           min_size=1, max_size=40))
def test_boundary_distances_match_brute_force_anywhere(name, points):
    mesh = ORACLE_MESHES[name]
    pts = np.array(points)
    assert np.array_equal(meshmod.boundary_distances(mesh, pts),
                          _boundary_distances_brute(mesh, pts))


def test_boundary_distances_of_no_points():
    out = meshmod.boundary_distances(ORACLE_MESHES["disk"], np.zeros((0, 2)))
    assert out.shape == (0,)
