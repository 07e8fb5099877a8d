"""Neumann eigenpairs and bracket-index arithmetic."""
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh

from ksbench import mesh as meshmod, solver, spectrum
from ksbench.energy import EnergyFunctional, Parameters
from ksbench.errors import ResonanceError
from test_mesh import ORACLE_MESHES, _graded_square

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SQUARE_MODES = np.pi ** 2 * np.array([1.0, 1.0, 2.0, 4.0, 4.0, 5.0])
CLUSTER_TOL = 1e-5      # relative gap below which eigenvalues form a cluster


def _dense_eigenpairs(mesh, count):
    """The former dense path of `eigenpairs`: generalized eigh on the full
    K and M, the lowest count + 1 pairs with the constant mode first."""
    ops = spectrum.assemble(mesh)
    return eigh(ops.stiffness.toarray(), ops.mass.toarray(),
                subset_by_index=[0, count])


def _assemble_oracle(mesh):
    """The former `assemble`: the hat gradients of each triangle, its
    element matrices as COO triplets, and duplicates summed by scipy."""
    v, t, areas = mesh.vertices, mesh.triangles, mesh.triangle_areas
    p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    g = np.empty((len(t), 3, 2))
    g[:, 0] = (p1 - p2)[:, ::-1]
    g[:, 1] = (p2 - p0)[:, ::-1]
    g[:, 2] = (p0 - p1)[:, ::-1]
    g[:, :, 0] *= -1.0
    g /= (2.0 * areas)[:, None, None]
    ke = np.einsum("tif,tjf->tij", g, g) * areas[:, None, None]
    me = (areas[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    n = mesh.num_vertices
    return tuple(sp.coo_matrix((e.ravel(), (rows, cols)), shape=(n, n)).tocsr()
                 for e in (ke, me))


def source_oracle(mesh, M):
    """The former `EnergyFunctional._exp_entries`: which value of
    concat([vertex values, edge values]) each entry of M's pattern holds,
    by a search of the edges' keys lo n + hi: vertex i's diagonal holds
    value i, both entries of edge k value n + k."""
    n = M.shape[0]
    row = np.repeat(np.arange(n), np.diff(M.indptr))
    lo, hi = np.minimum(row, M.indices), np.maximum(row, M.indices)
    edge = np.searchsorted(mesh.edges[:, 0].astype(np.int64) * n
                           + mesh.edges[:, 1], lo * n + hi)
    return np.where(lo == hi, row, n + edge)


def _lumped_masses_oracle(mesh):
    """The former `Mesh.lumped_masses`, by np.add.at."""
    w = np.zeros(mesh.num_vertices)
    np.add.at(w, mesh.triangles.ravel(),
              np.repeat(mesh.triangle_areas / 3.0, 3))
    return w


# Builtin meshes on which the assembly is checked against the COO oracle.
# On the dyadic unit squares every K term is exact and every M entry sums
# equal terms, so the two agree bit for bit whatever their summation order.
EXACT_MESHES = [("unit_square", 8), ("unit_square", 64), ("unit_square", 256)]
ASSEMBLY_MESHES = EXACT_MESHES + [("unit_square", 48), ("disk", 40),
                                  ("disk", 128), ("annulus", 64),
                                  ("annulus", 128)]


def _key_id(key):
    return key if isinstance(key, str) else f"{key[0]}{key[1]}"


def _assembly_mesh(key):
    return ORACLE_MESHES[key] if key in ORACLE_MESHES \
        else meshmod.build_builtin(*key)


def _check_assembly(mesh, exact=False):
    """K and M against the COO oracle: the same CSR pattern, and data equal,
    or within 1e-15 of each row's largest |entry|; the source map against
    the search of the former `_exp_entries`."""
    ops = spectrum.assemble(mesh)
    assert np.array_equal(ops.source, source_oracle(mesh, ops.mass))
    for got, want in zip((ops.stiffness, ops.mass), _assemble_oracle(mesh)):
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        if exact:
            assert np.array_equal(got.data, want.data)
        else:
            row_max = abs(want).max(axis=1).toarray().ravel()
            scale = np.repeat(row_max, np.diff(want.indptr))
            assert np.all(np.abs(got.data - want.data) <= 1e-15 * scale)


@pytest.mark.parametrize("key", ASSEMBLY_MESHES + sorted(ORACLE_MESHES),
                         ids=_key_id)
def test_assembly_matches_coo_oracle(key):
    _check_assembly(_assembly_mesh(key), exact=key in EXACT_MESHES)


@pytest.mark.parametrize("key", ASSEMBLY_MESHES + sorted(ORACLE_MESHES),
                         ids=_key_id)
def test_lumped_masses_match_add_at(key):
    mesh = _assembly_mesh(key)
    assert np.array_equal(mesh.lumped_masses(), _lumped_masses_oracle(mesh))


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(st.floats(1.0, 100.0), st.integers(2, 14),
                  st.integers(0, 40), st.integers(0, 2 ** 32 - 1))
def test_assembly_matches_oracles_on_graded_squares(ratio, steps, inner,
                                                    seed):
    _check_assembly(_graded_square(ratio, steps, inner, seed))


@pytest.mark.parametrize("key", sorted(ORACLE_MESHES) + [("disk", 128),
                                                          ("unit_square", 64)],
                         ids=_key_id)
def test_eigenpairs_factors_the_permuted_sum(key, monkeypatch):
    # The ordered K + M gathered through `ordered_pattern` is, entry for
    # entry, the former (K + M)[q][:, q].tocsc().
    mesh = _assembly_mesh(key)
    ops = spectrum.operators(mesh)
    K, M, q = ops.stiffness, ops.mass, ops.order
    factored = _count_splu(monkeypatch)
    spectrum.eigenpairs(mesh, 4)
    (A,) = factored
    want = (K + M)[q][:, q].tocsc()
    assert np.array_equal(A.indptr, want.indptr)
    assert np.array_equal(A.indices, want.indices)
    assert np.array_equal(A.data, want.data)


def _clusters(vals):
    """Index arrays of the runs of eigenvalues closer than CLUSTER_TOL."""
    breaks = np.flatnonzero(np.diff(vals) > CLUSTER_TOL * vals[1:]) + 1
    return np.split(np.arange(len(vals)), breaks)


def test_square_eigenvalues_analytic(square64_basis):
    got = square64_basis.eigenvalues[:6]
    assert np.all(np.abs(got - SQUARE_MODES) <= 0.01 * SQUARE_MODES)


def test_eigenvalues_sorted_positive(disk128_basis):
    lam = disk128_basis.eigenvalues
    assert np.all(np.diff(lam) >= -1e-12)
    assert lam[0] > 0.0


def test_eigenvectors_mass_orthonormal_zero_mean(square64, square64_basis):
    from ksbench.energy import EnergyFunctional, Parameters
    model = EnergyFunctional.for_mesh(square64)
    V = square64_basis.eigenvectors
    G = V.T @ (model.mass @ V)
    assert np.allclose(G, np.eye(V.shape[1]), atol=1e-9)
    means = model.lumped @ V
    assert np.abs(means).max() < 1e-9


def test_repeat_runs_span_same_subspace(square64):
    # Degenerate pairs may rotate between runs; the eigenvalues and the
    # projection of a fixed probe onto the computed span must agree.
    a = spectrum.eigenpairs(square64, 6)
    b = spectrum.eigenpairs(square64, 6)
    assert np.allclose(a.eigenvalues, b.eigenvalues, rtol=1e-10)
    rng = np.random.default_rng(0)
    z = rng.standard_normal(square64.num_vertices)
    Mz_a = a.eigenvectors @ (a.eigenvectors.T @ (a.mass @ z))
    Mz_b = b.eigenvectors @ (b.eigenvectors.T @ (b.mass @ z))
    assert np.allclose(Mz_a, Mz_b, atol=1e-8)


def test_eigenpairs_repeat_exactly(square48):
    # The annulus pairs are exactly degenerate, so only a fixed start vector
    # pins the basis of each pair.
    for mesh in (meshmod.build_builtin("annulus", 64), square48):
        a = spectrum.eigenpairs(mesh, 8)
        b = spectrum.eigenpairs(mesh, 8)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_one_assembly_per_mesh(monkeypatch):
    calls = []
    assemble = spectrum.assemble

    def counted(mesh):
        calls.append(mesh)
        return assemble(mesh)
    monkeypatch.setattr(spectrum, "assemble", counted)
    mesh = meshmod.build_builtin("unit_square", 16)
    basis = spectrum.eigenpairs(mesh, 8)
    model = EnergyFunctional.for_mesh(mesh)
    assert calls == [mesh]
    assert model.mass is basis.mass


def _count_splu(monkeypatch):
    """The list that every later `spla.splu` call appends its matrix to."""
    calls = []
    splu = spla.splu

    def counted(A, *args, **kwargs):
        calls.append(A)
        return splu(A, *args, **kwargs)
    monkeypatch.setattr(spla, "splu", counted)
    return calls


def test_mass_lu_is_factored_once_the_chebyshev_solves_run_out(monkeypatch):
    # Every model of the mesh shares its count of mass solves.
    calls = _count_splu(monkeypatch)
    mesh = meshmod.build_builtin("unit_square", 16)
    model = EnergyFunctional.for_mesh(mesh)
    p = Parameters(beta=-5.0, rho=13.0)
    u = model.project_zero_mean(np.cos(3.0 * mesh.vertices[:, 0]))
    model.energy(u, p)
    model.log_int_exp(u)
    model.evaluate(u, p).energy
    models = [model, EnergyFunctional.for_mesh(mesh), EnergyFunctional(mesh)]
    for k in range(spectrum.MASS_SOLVES_BEFORE_LU):
        models[k % 3].evaluate(u, p).gradient_norm
    assert calls == []
    assert "mass_lu" not in vars(spectrum.operators(mesh))
    EnergyFunctional(mesh).gradient(u, p)
    assert len(calls) == 1
    model.gradient_norm(u, p)
    assert len(calls) == 1


def test_reading_mass_lu_ends_the_chebyshev_solves(monkeypatch):
    mesh = meshmod.build_builtin("disk", 32)
    ops = spectrum.operators(mesh)
    b = np.random.default_rng(8).standard_normal(mesh.num_vertices)
    ops.mass_solve(b)
    lu = ops.mass_lu
    chebyshev = []
    monkeypatch.setattr(ops, "_chebyshev_solve", chebyshev.append)
    assert np.array_equal(ops.mass_solve(b), lu.solve(b))
    assert chebyshev == []


def test_reading_the_order_factors_nothing(monkeypatch):
    calls = _count_splu(monkeypatch)
    mesh = meshmod.build_builtin("disk", 32)
    ops = spectrum.operators(mesh)
    order = spectrum.operators(mesh).order
    assert order is ops.order
    assert calls == []
    assert "mass_lu" not in vars(ops)
    assert np.array_equal(order, np.argsort(ops.mass_lu.perm_c))


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(st.sampled_from(sorted(ORACLE_MESHES) + ["disk128"]),
                  st.integers(0, 2 ** 32 - 1), st.floats(-30.0, 30.0))
def test_chebyshev_mass_solve_matches_mass_lu(disk128, name, seed,
                                              log_scale):
    # 34 Chebyshev steps on Wathen's interval [1/2, 2] cut the error by
    # 2 * 3^-34 < 2^-52, so the solve matches the LU's to rounding:
    # measured 4.2e-16 to 4.7e-16 relative in the 2-norm, here and on
    # square256.
    ops = spectrum.operators(disk128 if name == "disk128"
                             else ORACLE_MESHES[name])
    b = np.random.default_rng(seed).standard_normal(ops.mass.shape[0])
    b *= 2.0 ** log_scale
    want = ops.mass_lu.solve(b)
    got = ops._chebyshev_solve(b)
    assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
def test_ordered_shift_invert_solve_matches_plain_splu(name):
    # The solve that eigenpairs hands eigsh: K + M factored in the mesh's
    # order, against SuperLU's default order on the unpermuted matrix.
    ops = spectrum.operators(ORACLE_MESHES[name])
    order = ops.order
    A = (ops.stiffness + ops.mass).tocsc()
    lu = spla.splu(A[order][:, order].tocsc(), permc_spec="NATURAL")
    b = np.random.default_rng(6).standard_normal(A.shape[0])
    want = spla.splu(A).solve(b)
    got = spectrum.ordered_solve(lu, order)(b)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


# The meshes whose factorizations must store only their nonzeros: the
# oracle meshes, the paper's disk, the annulus (the most padded by relaxed
# supernodes, +111% in M) and a square.
FACTOR_MESHES = sorted(ORACLE_MESHES) + ["disk128", "annulus64", "square48"]


def _factor_mesh(name, request):
    if name in ORACLE_MESHES:
        return ORACLE_MESHES[name]
    if name == "annulus64":
        return meshmod.build_builtin("annulus", 64)
    return request.getfixturevalue(name)


# How far a solve with the factor in `spectrum.PANEL_SIZE`-column panels
# may lie from one with SuperLU's default width of 20, relative to the
# solution's largest entry, for a float64 factor: the two sum the same
# updates in another order (at most 3.4e-14 measured, on disk128's
# bordered Hessian).  A float32 factor is held to as many of its own unit
# roundoffs (about 4500): 5.4e-4, where square256's measured 6.6e-5.
PANEL_SOLVE_TOL = 1e-12


def _check_panel_width(lu, A, permc_spec, **options):
    """`lu`, a factorization of A in narrow panels, stores as many entries,
    pivots as the unrelaxed factorization at SuperLU's default panel width
    does, and solves as it does to PANEL_SOLVE_TOL, scaled to the unit
    roundoff of A's dtype.  `options` are the pivoting options `lu` was
    factored with."""
    wide = spla.splu(A, permc_spec=permc_spec, relax=spectrum.SUPERNODE_RELAX,
                     **options)
    assert lu.nnz == wide.nnz
    assert np.array_equal(lu.perm_c, wide.perm_c)
    assert np.array_equal(lu.perm_r, wide.perm_r)
    b = np.random.default_rng(8).standard_normal(A.shape[0]).astype(A.dtype)
    want = wide.solve(b)
    tol = PANEL_SOLVE_TOL * np.finfo(A.dtype).eps / np.finfo(np.float64).eps
    assert np.abs(lu.solve(b) - want).max() <= tol * np.abs(want).max()


def _check_unpadded(lu, A, permc_spec, **options):
    """`lu`, a factorization of A, stores (within 1%) only its nonzeros,
    pivots as SuperLU's default factorization with relaxed supernodes does,
    and solves as it does; that default factorization is returned.  It is
    also checked against the default panel width (`_check_panel_width`).
    `options` are the pivoting options `lu` was factored with."""
    relaxed = spla.splu(A, permc_spec=permc_spec, **options)
    assert lu.nnz <= 1.01 * (lu.L.nnz + lu.U.nnz)
    assert np.array_equal(lu.perm_c, relaxed.perm_c)
    assert np.array_equal(lu.perm_r, relaxed.perm_r)
    b = np.random.default_rng(7).standard_normal(A.shape[0])
    want = relaxed.solve(b)
    assert np.abs(lu.solve(b) - want).max() <= 1e-12 * np.abs(want).max()
    _check_panel_width(lu, A, permc_spec, **options)
    return relaxed


@pytest.mark.parametrize("name", FACTOR_MESHES)
def test_mass_lu_stores_only_nonzeros(name, request):
    ops = spectrum.operators(_factor_mesh(name, request))
    relaxed = _check_unpadded(ops.mass_lu, ops.mass.tocsc(), "MMD_AT_PLUS_A")
    assert np.array_equal(ops.order, np.argsort(relaxed.perm_c))


@pytest.mark.parametrize("name", FACTOR_MESHES)
def test_shift_invert_lu_stores_only_nonzeros(name, request, monkeypatch):
    mesh = _factor_mesh(name, request)
    factored = []
    splu = spla.splu

    def capture(A, *args, **kwargs):
        lu = splu(A, *args, **kwargs)
        factored.append((A, lu))
        return lu
    monkeypatch.setattr(spla, "splu", capture)
    spectrum.eigenpairs(mesh, 4)
    (A, lu), = factored
    _check_unpadded(lu, A, "NATURAL")


@pytest.mark.parametrize("shift", ["zero", "morse"])
@pytest.mark.parametrize("name", FACTOR_MESHES)
def test_bordered_hessian_lu_stores_only_nonzeros(name, shift, request,
                                                  monkeypatch):
    # "zero": Newton's factor of B(0), with partial pivoting; "morse": the
    # Morse index's factors of B(-+EIG_GUARD), without a row pivot.
    model = EnergyFunctional.for_mesh(_factor_mesh(name, request))
    rng = np.random.default_rng(5)
    u = model.project_zero_mean(rng.standard_normal(model.mesh.num_vertices))
    p = Parameters(beta=-5.0, rho=13.0)
    factored = []
    splu = spla.splu

    def capture(A, **kwargs):
        factored.append((A, splu(A, **kwargs), kwargs))
        return factored[-1][1]
    monkeypatch.setattr(spla, "splu", capture)
    if shift == "morse":
        solver.morse_index_at(model, u, p, model.mesh.num_vertices - 1)
    else:
        solver._ZeroMeanHessianSolver(model).factor(
            model.hessian_operator(u, p))
    monkeypatch.undo()
    assert len(factored) == (2 if shift == "morse" else 1)
    for A, lu, kwargs in factored:
        # Below SINGLE_PRECISION_VERTICES Newton's factor is float64 too.
        assert A.dtype == np.float64
        assert (kwargs["diag_pivot_thresh"] == 0.0) == (shift == "morse")
        _check_unpadded(lu, A, "NATURAL", **{
            key: kwargs[key] for key in ("diag_pivot_thresh", "options")
            if key in kwargs})


def test_square256_bordered_hessian_panel_width(square256):
    # The largest factor of the benchmark, at V = 66049, once; the
    # reference is factored in the same precision, float32 at this size.
    model = EnergyFunctional.for_mesh(square256)
    u = model.project_zero_mean(np.random.default_rng(5).standard_normal(
        square256.num_vertices))
    hess = solver._ZeroMeanHessianSolver(model)
    hess.factor(model.hessian_operator(u, Parameters(beta=-5.0, rho=13.0)))
    B, _ = hess._bordered.matrix(dtype=hess._dtype)
    assert B.dtype == np.float32
    _check_panel_width(hess._lu, B, "NATURAL",
                       diag_pivot_thresh=solver.PIVOT_THRESHOLD)


def test_bracket_index_analytic():
    lam = [1.0, 2.0, 5.0]
    assert spectrum.bracket_index(lam, 0.5) == 0
    assert spectrum.bracket_index(lam, -1.5) == 1
    assert spectrum.bracket_index(lam, -10.0) == 3


def test_bracket_index_resonance():
    with pytest.raises(ResonanceError):
        spectrum.bracket_index([1.0, 2.0], -1.0)
    with pytest.raises(ResonanceError):
        spectrum.bracket_index([1.0, 2.0], -2.0 + 1e-9)


def test_dense_and_sparse_paths_agree(square24, disk128):
    # The dense solve is the oracle for the shift-invert path.  Clusters may
    # rotate (the annulus pairs are exactly degenerate), so eigenvectors are
    # compared through the mass projector onto each cluster's span.
    for mesh in (square24, meshmod.build_builtin("disk", 40),
                 meshmod.build_builtin("annulus", 64), disk128):
        got = spectrum.eigenpairs(mesh, 8)
        vals, vecs = _dense_eigenpairs(mesh, 9)
        vals, vecs = vals[1:], vecs[:, 1:]
        assert vals[8] - vals[7] > CLUSTER_TOL * vals[8]   # no cluster is cut
        assert np.allclose(got.eigenvalues, vals[:8], rtol=1e-10, atol=0)
        for idx in _clusters(vals[:8]):
            a, b = got.eigenvectors[:, idx], vecs[:, idx]
            assert np.abs(a @ (a.T @ (got.mass @ b)) - b).max() < 1e-6
    a = spectrum.eigenpairs(square24, 4)
    b = spectrum.eigenpairs(square24, 8)
    assert np.allclose(a.eigenvalues, b.eigenvalues[:4], rtol=1e-10)


def test_eigenpairs_allocates_no_dense_matrix(disk128):
    # One V x V float64 array is 15.1 MiB at V = 1409; the sparse path peaks
    # near 2 MiB.  The warm-up call keeps one-time allocations out.
    spectrum.eigenpairs(disk128, 8)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        spectrum.eigenpairs(disk128, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * disk128.num_vertices ** 2
