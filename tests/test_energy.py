"""Energy functional: values, derivatives and the exponential quadrature."""
import gc
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ksbench import mesh as meshmod, solver, spectrum
from ksbench.energy import (EnergyFunctional, Evaluation, Parameters,
                            field_values, project_pi)
from ksbench.errors import ConvergenceError
from test_mesh import ORACLE_MESHES, _graded_square
from test_spectrum import source_oracle

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# The (beta, rho) pairs of the Hessian oracle tests.
PAIRS = (Parameters(beta=-5.0, rho=13.0), Parameters(beta=2.0, rho=-30.0),
         Parameters(beta=0.0, rho=1.0))

PARAM_SETS = [Parameters(beta=1.0, rho=1.0),
              Parameters(beta=-5.0, rho=13.0),
              Parameters(beta=0.5, rho=20.0)]


def _random_field(model, rng, amp=1.0):
    return model.project_zero_mean(rng.standard_normal(model.mesh.num_vertices)
                                   * amp)


def test_energy_at_zero(square64_model):
    p = Parameters(beta=-2.0, rho=7.0)
    area = square64_model.area
    assert square64_model.energy(np.zeros(square64_model.mesh.num_vertices), p) \
        == pytest.approx(-p.rho * np.log(area), abs=1e-12)


def test_residual_vanishes_at_zero(square64_model):
    p = Parameters(beta=-2.0, rho=7.0)
    r = square64_model.residual(np.zeros(square64_model.mesh.num_vertices), p)
    assert np.abs(r).max() < 1e-13


def test_exp_density_normalized_and_shift_free(square64_model):
    x, y = square64_model.mesh.vertices.T
    u = square64_model.project_zero_mean(np.sin(2 * np.pi * x)
                                         * np.sin(2 * np.pi * y))
    d = square64_model.exp_density(u)
    d_shift = square64_model.exp_density(u + 300.0)
    assert np.allclose(d, d_shift, rtol=1e-12)
    # Thanks to the edge-midpoint rule the density is a ratio of quadratures;
    # its lumped integral is close to, but not exactly, one.
    assert square64_model.integral(d) == pytest.approx(1.0, rel=5e-3)


def test_log_int_exp_overflow_safe(square64_model):
    u = np.full(square64_model.mesh.num_vertices, 1000.0)
    val = square64_model.log_int_exp(u)
    assert np.isfinite(val)
    assert val == pytest.approx(1000.0 + np.log(square64_model.area), rel=1e-12)


def test_gradient_matches_finite_differences(square48):
    model = EnergyFunctional.for_mesh(square48)
    rng = np.random.default_rng(7)
    h = 1e-5
    for p in PARAM_SETS:
        for _ in range(3):
            u = _random_field(model, rng)
            v = _random_field(model, rng)
            lhs = model.residual(u, p) @ v
            fd = (model.energy(u + h * v, p) - model.energy(u - h * v, p)) / (2 * h)
            assert abs(lhs - fd) <= 1e-6 * max(1.0, abs(lhs))


def test_hessian_matches_finite_differences(square48):
    model = EnergyFunctional.for_mesh(square48)
    rng = np.random.default_rng(11)
    h = 1e-5
    for p in PARAM_SETS:
        u = _random_field(model, rng)
        v = _random_field(model, rng)
        A0, c, w = model.hessian_operator(u, p)
        lhs = A0 @ v + c * w * (w @ v)
        fd = (model.residual(u + h * v, p) - model.residual(u - h * v, p)) / (2 * h)
        denom = max(1.0, np.linalg.norm(lhs))
        assert np.linalg.norm(lhs - fd) <= 1e-5 * denom
        # The Riesz-represented action, the solver's Hessian action followed
        # by the mass solve and the zero-mean projection, agrees with the
        # gradient differences.  The action is read from the bordered
        # residual that Newton's refinement forms, at (v, 0, y),
        # y = sign(c) sqrt|c| w . v, where its corner row vanishes and its
        # first block is -(A0 + c w w^T) v.
        y = np.sign(c) * np.sqrt(abs(c)) * (w @ v)
        r = solver.BorderedHessian(model, (A0, c, w)).residual(
            np.zeros_like(v), np.append(v, [0.0, y]))
        assert abs(r[-1]) <= 1e-12 * max(1.0, abs(y))
        riesz = model.project_zero_mean(model._mass_solve(-r[:-2]))
        fd_g = (model.gradient(u + h * v, p).values
                - model.gradient(u - h * v, p).values) / (2 * h)
        assert np.linalg.norm(riesz - fd_g) \
            <= 1e-5 * max(1.0, np.linalg.norm(riesz))


def test_residual_nonfinite_guard(square64_model):
    p = Parameters(beta=0.0, rho=1.0)
    u = np.full(square64_model.mesh.num_vertices, np.nan)
    with np.errstate(all="raise"):
        r = square64_model.residual(u, p)
    assert np.all(np.isnan(r))


def test_project_zero_mean_idempotent(square64_model):
    rng = np.random.default_rng(2)
    u = rng.standard_normal(square64_model.mesh.num_vertices) + 3.0
    z = square64_model.project_zero_mean(u)
    assert abs(square64_model.integral(z)) < 1e-10
    assert np.allclose(square64_model.project_zero_mean(z), z)


def test_project_pi_is_orthogonal_projection(square64, square64_basis):
    model = EnergyFunctional.for_mesh(square64)
    rng = np.random.default_rng(5)
    u = model.field(model.project_zero_mean(
        rng.standard_normal(square64.num_vertices)))
    c = project_pi(u, square64_basis, 3)
    # Coefficients in the mass inner product against the first 3 modes.
    V = square64_basis.eigenvectors[:, :3]
    expected = V.T @ (model.mass @ u.values)
    assert np.allclose(c, expected, atol=1e-10)


def _triangle_rule(mesh):
    """The former quadrature, from the mesh's triangles alone: a node at
    each triangle's three edge midpoints, as the ends (a, b) of each node's
    side and its weight |T| / 3."""
    t = mesh.triangles
    return (t.ravel(), t[:, [1, 2, 0]].ravel(),
            np.repeat(mesh.triangle_areas / 3.0, 3))


def _edge_rule(mesh):
    """The edge-midpoint rule by np.add.at: a node at each mesh edge's
    midpoint, weighing |T| / 3 for each triangle T on that edge."""
    qw = np.zeros(len(mesh.edges))
    np.add.at(qw, mesh.triangle_edges.ravel(),
              np.repeat(mesh.triangle_areas / 3.0, 3))
    return mesh.edges[:, 0], mesh.edges[:, 1], qw


def _exp_quad(model, u):
    """The former `EnergyFunctional._exp_quad`: the shift s, the shifted
    quadrature values, the vertex vector w_i = exp(-s) int e^u phi_i (the
    Hessian's w) and the total W = exp(-s) int e^u, as `Evaluation` takes
    them."""
    s, vals = model._exp_vals(u)
    return s, vals, model._at_ends(0.5 * vals), float(vals.sum())


def _exp_quad_add_at(u, rule):
    """`_exp_quad` under a rule (a, b, weights): w scattered by two
    np.add.at calls."""
    a, b, qw = rule
    s = float(u.max(initial=0.0))
    vals = np.exp(0.5 * (u[a] + u[b]) - s) * qw
    w = np.zeros(len(u))
    np.add.at(w, a, 0.5 * vals)
    np.add.at(w, b, 0.5 * vals)
    return s, vals, w, float(vals.sum())


def _shifted_product(model, u, p, one_product):
    """K u + beta M u and the quadratic part of the energy: from one
    product with A_beta = K + beta M on M's pattern, as `evaluate` takes
    them, or from K @ u and M @ u, as the former `energy` and `residual`
    took them."""
    K, M = model.stiffness, model.mass
    if one_product:
        Au = sp.csr_matrix((K.data + p.beta * M.data, M.indices, M.indptr),
                           shape=M.shape) @ u
        return Au, 0.5 * (u @ Au)
    Ku, Mu = K @ u, M @ u
    return Ku + p.beta * Mu, 0.5 * (u @ Ku + p.beta * (u @ Mu))


def _energy_oracle(model, u, p, rule, one_product):
    """The former `energy` under a quadrature rule."""
    _, quad = _shifted_product(model, u, p, one_product)
    s, _, _, total = _exp_quad_add_at(u, rule)
    return float(quad - p.rho * (s + float(np.log(total))))


def _evaluation_oracle(model, u, p, rule, one_product):
    """The former `energy`, `residual`, `gradient` (as vertex values) and
    `gradient_norm` under a quadrature rule."""
    Au, _ = _shifted_product(model, u, p, one_product)
    _, _, w, total = _exp_quad_add_at(u, rule)
    if not np.all(np.isfinite(u)) or total <= 0.0:
        r = np.full_like(u, np.nan)
    else:
        r = Au - p.rho * (w / total - model.lumped / model.area)
    g = model._mass_solve(r)
    return (_energy_oracle(model, u, p, rule, one_product), r,
            model.project_zero_mean(g), float(np.sqrt(max(r @ g, 0.0))))


def _assert_matches_triangle_rule(model, u, p, got):
    """`got`, the energy of u or all four values of its evaluation, against
    the per-triangle oracle.

    Non-finite values lie at the same places.  For a finite u NaN lies at
    the same places and the infinities are equal; for a non-finite u the
    order in which infinities meet in the quadratic form decides between
    NaN and an infinity, and regrouping may change it.  Regrouping the rule
    by edges moves each node value by a few ulps, so the finite values
    agree to 1e-12 of a scale: the energy's is the size of its terms
    |u^T A u / 2| + |rho| (1 + |s| + |log W|), each vector's its own
    max-norm.  Where either rule's shifted total W is below the smallest
    normal float, its node values are subnormal and round by absolute
    amounts, so that a node may round to zero under one rule only (W = 0
    against W = 5e-324 happens); there nothing is compared."""
    rule = _triangle_rule(model.mesh)
    with np.errstate(all="ignore"):
        s, _, _, total = _exp_quad_add_at(u, rule)
        edge_total = _exp_quad_add_at(u, _edge_rule(model.mesh))[3]
        if len(got) == 1:
            want = (_energy_oracle(model, u, p, rule, one_product=False),)
        else:
            want = _evaluation_oracle(model, u, p, rule, one_product=False)
        quad = _shifted_product(model, u, p, one_product=False)[1]
    if not min(total, edge_total) >= np.finfo(float).tiny:
        return
    scales = [abs(quad) + abs(p.rho) * (1.0 + abs(s) + abs(np.log(total)))]
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        finite = np.isfinite(w)
        assert np.array_equal(np.isfinite(g), finite)
        if np.all(np.isfinite(u)):
            assert np.array_equal(g[~finite], w[~finite], equal_nan=True)
        scale = scales[0] if w.ndim == 0 else np.abs(w[finite]).max(initial=0)
        assert np.all(np.abs(g[finite] - w[finite]) <= 1e-12 * scale)


class TriangleRuleModel(EnergyFunctional):
    """The model under the former quadrature and products: three nodes per
    triangle (`_triangle_rule`), E's off-diagonal entry on an edge summed
    from the values of its one or two sides, and K u + beta M u from
    K @ u and M @ u.  E is gathered through `source_oracle`'s map, not the
    model's."""

    def __init__(self, mesh):
        super().__init__(mesh)
        self._qa, self._qb, self._qw = _triangle_rule(mesh)
        self._qab = np.concatenate([self._qa, self._qb])
        self._source = source_oracle(mesh, self.mass)

    def evaluate(self, u, p):
        u = field_values(u)
        Au = self.stiffness @ u + p.beta * (self.mass @ u)
        with np.errstate(divide="ignore", invalid="ignore"):
            s, vals = self._exp_vals(u)
            return Evaluation(self, u, p, Au, s, vals)

    def _exp_mass(self, quad_vals):
        quarter = 0.25 * quad_vals
        return np.concatenate([
            np.bincount(self._qab, weights=np.concatenate([quarter, quarter]),
                        minlength=self.mesh.num_vertices),
            np.bincount(self.mesh.triangle_edges.ravel(), weights=quarter,
                        minlength=len(self.mesh.edges))])[self._source]


def _exp_mass_matrix(model, u, quad_vals):
    """The former per-step COO build of E_ab = exp(-s) int e^u phi_a phi_b
    from the per-triangle quadrature values."""
    n = len(u)
    q = 0.25 * quad_vals
    qa, qb, _ = _triangle_rule(model.mesh)
    rows = np.concatenate([qa, qa, qb, qb])
    cols = np.concatenate([qa, qb, qa, qb])
    data = np.concatenate([q, q, q, q])
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def _bordered_oracle(model, u, p, shift):
    """The former Hessian assembly under the per-triangle rule: A0 from
    `_exp_mass_matrix` and sparse sums, c = rho / W^2 and w, then the doubly
    bordered [[A0 - shift M, m, v], [m^T, 0, 0], [v^T, 0, -sign]], v =
    sqrt|c| w and sign that of c (1 at c = 0), by sp.bmat."""
    _, quad_vals, w, total = _exp_quad_add_at(u, _triangle_rule(model.mesh))
    E = _exp_mass_matrix(model, u, quad_vals)
    A0 = (model.stiffness + p.beta * model.mass - (p.rho / total) * E).tocsr()
    c = p.rho / total ** 2
    m = model.lumped[:, None]
    v = np.sqrt(abs(c)) * w[:, None]
    shifted = A0 - shift * model.mass if shift else A0
    corner = np.array([[-1.0 if c >= 0 else 1.0]])
    return A0, sp.bmat([[shifted, m, v], [m.T, None, None],
                        [v.T, None, corner]], format="csc")


def _oracle_input(model, kind, seed, amp):
    """A field of the given kind: scaled noise, noise with a NaN or an
    infinite entry, a constant whose quadrature underflows, a zero-mean
    spike whose quadrature underflows, or a field that is 0 at a fifth of the
    vertices and between -750 and -720 at the rest, so that the quadrature
    values on edges between the latter are subnormal."""
    rng = np.random.default_rng(seed)
    n = model.mesh.num_vertices
    u = amp * rng.standard_normal(n)
    if kind == "nan":
        u[rng.integers(n)] = np.nan
    elif kind == "inf":
        u[rng.integers(n)] = rng.choice([-np.inf, np.inf])
    elif kind == "underflow":
        u = np.full(n, -1e3 - amp)
    elif kind == "spike":
        u = np.zeros(n)
        u[rng.integers(n)] = 1e4 + amp
        u = model.project_zero_mean(u)
    elif kind == "subnormal":
        u = np.where(rng.random(n) < 0.2, 0.0, -720.0 - 30.0 * rng.random(n))
    return u


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(st.sampled_from(sorted(ORACLE_MESHES)),
                  st.sampled_from(["noise", "noise", "nan", "inf",
                                   "underflow", "spike"]),
                  st.integers(0, 2 ** 32 - 1), st.floats(-3.0, 3.0),
                  st.floats(-10.0, 10.0), st.floats(-30.0, 30.0))
def test_evaluate_matches_oracles(name, kind, seed, log_amp, beta, rho):
    # The mass LU is read first, so that the evaluation, its oracle and
    # the public methods all solve with it, not some of them with the
    # mesh's first Chebyshev solves.
    spectrum.operators(ORACLE_MESHES[name]).mass_lu
    model = EnergyFunctional.for_mesh(ORACLE_MESHES[name])
    u = _oracle_input(model, kind, seed, 10.0 ** log_amp)
    p = Parameters(beta=beta, rho=rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ev = model.evaluate(u, p)
    with np.errstate(all="ignore"):
        edges = _evaluation_oracle(model, u, p, _edge_rule(model.mesh),
                                   one_product=True)
    values = (ev.energy, ev.residual, ev.gradient, ev.gradient_norm)
    for got, want in zip(values, edges):
        assert np.array_equal(got, want, equal_nan=True)
    _assert_matches_triangle_rule(model, u, p, values)
    # The public methods are views of the same pass.
    assert np.array_equal(model.energy(u, p), ev.energy, equal_nan=True)
    assert np.array_equal(model.residual(u, p), ev.residual, equal_nan=True)
    assert np.array_equal(model.gradient(u, p).values, ev.gradient,
                          equal_nan=True)
    assert np.array_equal(model.gradient_norm(u, p), ev.gradient_norm,
                          equal_nan=True)


def test_exp_quad_matches_add_at(square64_model):
    mesh = square64_model.mesh
    rng = np.random.default_rng(9)
    tiny = np.nextafter(0.0, 1.0)
    for amp in (1e-3, 1.0, 30.0, 1e3):
        u = amp * rng.standard_normal(mesh.num_vertices)
        got = _exp_quad(square64_model, u)
        for g, want in zip(got, _exp_quad_add_at(u, _edge_rule(mesh))):
            assert np.array_equal(g, want)
        # Against the per-triangle rule, with each triangle's side values
        # summed into its edge's: a node value moves by a few ulps, or by a
        # few units of the smallest subnormal where it is subnormal, and so
        # do the sums over nodes.
        s, vals, w, total = _exp_quad_add_at(u, _triangle_rule(mesh))
        assert got[0] == s
        per_edge = np.bincount(mesh.triangle_edges.ravel(), weights=vals,
                               minlength=len(mesh.edges))
        assert np.all(np.abs(got[1] - per_edge)
                      <= 1e-15 * np.abs(per_edge) + 3 * tiny)
        slack = len(vals) * 3 * tiny
        assert np.all(np.abs(got[2] - w) <= 1e-13 * np.abs(w).max() + slack)
        assert abs(got[3] - total) <= 1e-13 * total + slack


@pytest.mark.parametrize("name", ["unit_square", "disk", "annulus"])
@pytest.mark.parametrize("res", [8, 45, 128])
def test_edge_weights_are_four_times_the_mass_edge_entries(name, res):
    # M's entries above the diagonal, in CSR order, are the edges in census
    # order (both are sorted by lo V + hi), and each holds the sum of
    # |T| / 12 over the edge's triangles: a quarter of the node's weight,
    # bit for bit, since scaling by 4 is exact.
    mesh = meshmod.build_builtin(name, res)
    model = EnergyFunctional(mesh)
    M = model.mass
    upper = M.indices > np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    assert np.array_equal(model._source[upper],
                          mesh.num_vertices + np.arange(len(mesh.edges)))
    assert np.array_equal(model._qw, 4.0 * M.data[upper])


@pytest.mark.parametrize("name", ["unit_square", "disk", "annulus"])
@pytest.mark.parametrize("res", [8, 45, 128])
def test_edge_nodes_carry_the_triangle_rule_weights(name, res):
    mesh = meshmod.build_builtin(name, res)
    model = EnergyFunctional(mesh)
    assert abs(model._qw.sum() - mesh.area) <= 1e-14 * mesh.area
    # An edge's triangles are those holding both of its ends: one for a
    # boundary edge, two for an interior one.
    n, t = mesh.num_vertices, len(mesh.triangles)
    holds = sp.csr_matrix((np.ones(3 * t), mesh.triangles.ravel(),
                           np.arange(0, 3 * t + 1, 3)), shape=(t, n)).T.tocsr()
    a, b = mesh.edges.T
    both = holds[a].multiply(holds[b]).tocsr()
    bnd = np.sort(mesh.boundary_edges, axis=1)
    on_boundary = np.isin(a * n + b, bnd[:, 0] * n + bnd[:, 1])
    assert np.array_equal(np.diff(both.indptr), np.where(on_boundary, 1, 2))
    assert np.array_equal(model._qw, both @ (mesh.triangle_areas / 3.0))
    # The rule integrates a constant exactly.
    for c in (-2.0, 0.0, 3.5):
        s, vals = model._exp_vals(np.full(n, c))
        assert np.exp(s) * vals.sum() == pytest.approx(np.exp(c) * mesh.area,
                                                       rel=1e-14)


def test_one_shifted_stiffness_for_the_last_beta():
    mesh = meshmod.build_builtin("disk", 16)
    model = EnergyFunctional(mesh)
    K, M = model.stiffness, model.mass
    # A_beta lives on M's pattern, which K shares.
    assert np.array_equal(K.indptr, M.indptr)
    assert np.array_equal(K.indices, M.indices)
    u = model.project_zero_mean(np.random.default_rng(6).standard_normal(
        mesh.num_vertices))
    held = {}
    for beta in (-5.0, 2.0, 2.0, -5.0):
        model.evaluate(u, Parameters(beta=beta, rho=1.0))
        A = model._a_beta[1]
        assert model._a_beta[0] == beta
        assert np.array_equal(A.data, K.data + beta * M.data)
        held.setdefault(beta, []).append(A)
    assert held[2.0][0] is held[2.0][1]
    assert held[-5.0][0] is not held[-5.0][1]


def test_index_maps_are_narrow_and_shared():
    # The per-mesh index maps are int32, and A0 shares M's index arrays,
    # which no caller can alter.
    mesh = meshmod.build_builtin("disk", 16)
    model = EnergyFunctional.for_mesh(mesh)
    M = model.mass
    assert spectrum.operators(mesh).source.dtype == np.int32
    assert spectrum.operators(mesh).bordered_pattern[1].data.dtype \
        == np.int32
    assert model._qab.dtype == np.int32
    u = model.project_zero_mean(np.random.default_rng(6).standard_normal(
        mesh.num_vertices))
    A0, _, _ = model.hessian_operator(u, Parameters(beta=-5.0, rho=13.0))
    assert np.shares_memory(A0.indices, M.indices)
    assert np.shares_memory(A0.indptr, M.indptr)
    for index in (M.indices, M.indptr, A0.indices, A0.indptr):
        with pytest.raises(ValueError):
            index[0] = 1


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
@pytest.mark.parametrize("shift", [0.0, -7.5])
def test_bordered_hessian_matches_bmat(name, shift):
    model = EnergyFunctional.for_mesh(ORACLE_MESHES[name])
    rng = np.random.default_rng(1)
    u = model.project_zero_mean(rng.standard_normal(model.mesh.num_vertices))
    for p in PAIRS:
        A0_old, B_old = _bordered_oracle(model, u, p, shift)
        hessian = model.hessian_operator(u, p)
        A0 = hessian[0]
        B, order = solver.BorderedHessian(model, hessian).matrix(shift)
        want = B_old[order][:, order].tocsc()
        want.sort_indices()
        assert B.format == "csc"
        assert np.array_equal(B.indptr, want.indptr)
        assert np.array_equal(B.indices, want.indices)
        assert abs(B - want).max() <= 1e-13 * abs(want).max()
        assert abs(A0 - A0_old).max() <= 1e-13 * abs(A0_old).max()


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(st.sampled_from(sorted(ORACLE_MESHES)),
                  st.sampled_from(["noise", "noise", "nan", "inf",
                                   "underflow", "spike"]),
                  st.integers(0, 2 ** 32 - 1), st.floats(-3.0, 3.0),
                  st.floats(-10.0, 10.0), st.floats(-30.0, 30.0))
def test_energy_alone_matches_oracle(name, kind, seed, log_amp, beta, rho):
    # A model of its own whose mass solve raises: `energy` must not solve.
    model = EnergyFunctional(ORACLE_MESHES[name])

    def no_mass_solve(b):
        raise AssertionError("energy called the mass solve")
    model._mass_solve = no_mass_solve
    u = _oracle_input(model, kind, seed, 10.0 ** log_amp)
    p = Parameters(beta=beta, rho=rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = model.energy(u, p)
    with np.errstate(all="ignore"):
        edges = _energy_oracle(model, u, p, _edge_rule(model.mesh),
                               one_product=True)
    assert np.array_equal(e, edges, equal_nan=True)
    _assert_matches_triangle_rule(model, u, p, (e,))


def _hessian_cases(name, shift):
    """(model, u, p, Hessian data, bordered matrix by `_bordered_oracle`)
    at a noise field u for the parameter pairs `PAIRS`."""
    model = EnergyFunctional.for_mesh(ORACLE_MESHES[name])
    rng = np.random.default_rng(1)
    u = model.project_zero_mean(rng.standard_normal(model.mesh.num_vertices))
    for p in PAIRS:
        yield (model, u, p, model.hessian_operator(u, p),
               _bordered_oracle(model, u, p, shift)[1])


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
@pytest.mark.parametrize("shift", [0.0, -7.5])
def test_ordered_bordered_hessian_is_permuted_bmat(name, shift):
    for model, _, _, hessian, B in _hessian_cases(name, shift):
        Bq, order = solver.BorderedHessian(model, hessian).matrix(shift)
        n = model.mesh.num_vertices
        assert np.array_equal(order[-2:], [n, n + 1])
        assert np.array_equal(np.sort(order), np.arange(n + 2))
        want = B[order][:, order].tocsc()
        want.sort_indices()
        assert Bq.format == "csc" and Bq.has_sorted_indices
        assert np.array_equal(Bq.indptr, want.indptr)
        assert np.array_equal(Bq.indices, want.indices)
        assert np.abs(Bq.data - want.data).max() \
            <= 1e-13 * np.abs(want.data).max()


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
@pytest.mark.parametrize("shift", [0.0, -7.5])
def test_ordered_solves_match_plain_splu(name, shift):
    # B(shift) as Newton factors it (threshold partial pivoting), and
    # B(shift -+ EIG_GUARD) as the Morse index does (no row pivot), against
    # SuperLU's default order and pivoting on the unpermuted oracle.
    rng = np.random.default_rng(3)
    for model, u, p, hessian, _ in _hessian_cases(name, shift):
        for s, options in [
                (shift, dict(diag_pivot_thresh=solver.PIVOT_THRESHOLD))] + [
                (shift + g, dict(diag_pivot_thresh=0.0,
                                 options=dict(SymmetricMode=True)))
                for g in (-solver.EIG_GUARD, solver.EIG_GUARD)]:
            B = _bordered_oracle(model, u, p, s)[1]
            Bq, order = solver.BorderedHessian(model, hessian).matrix(s)
            lu = solver._factor(Bq, **options)
            if "options" in options:
                assert np.array_equal(lu.perm_r, np.arange(B.shape[0]))
            b = rng.standard_normal(B.shape[0])
            want = spla.splu(B).solve(b)
            got = spectrum.ordered_solve(lu, order)(b)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    b = rng.standard_normal(model.mesh.num_vertices)
    want = spla.splu(model.mass.tocsc()).solve(b)
    assert np.abs(model._mass_solve(b) - want).max() \
        <= 1e-10 * np.abs(want).max()


def test_ordered_bordered_lu_halves_the_fill():
    # Measured: 0.54 of the fill of SuperLU's default (COLAMD) order.
    model = EnergyFunctional.for_mesh(meshmod.build_builtin("unit_square", 128))
    rng = np.random.default_rng(4)
    u = model.project_zero_mean(rng.standard_normal(model.mesh.num_vertices))
    p = Parameters(beta=-5.0, rho=13.0)
    hess = solver._ZeroMeanHessianSolver(model)
    hess.factor(model.hessian_operator(u, p))
    colamd = spla.splu(_bordered_oracle(model, u, p, 0.0)[1])
    fill = hess._lu.L.nnz + hess._lu.U.nnz
    assert fill <= 0.7 * (colamd.L.nnz + colamd.U.nnz)


def _bordered_pattern_oracle(model):
    """The former `_bordered_pattern` with the v border: the CSC pattern of
    [[A, m, v], [m^T, 0, 0], [v^T, 0, d]] for A on the mass matrix's
    pattern, the data positions of A's entries and of the two borders, and
    the entry of A that each quadrature term of E adds to, by a search of
    the pattern's row-major keys.  The quadrature nodes are the mesh's
    edges."""
    M = model.mass
    n, nnz = M.shape[0], M.nnz
    cols = np.arange(n)
    row_of = np.repeat(cols, np.diff(M.indptr))
    block = np.arange(nnz) + 2 * row_of
    border = M.indptr[1:] + 2 * cols
    indices = np.empty(nnz + 4 * n + 1, dtype=M.indices.dtype)
    indices[block] = M.indices
    indices[border] = n
    indices[border + 1] = n + 1
    indices[nnz + 2 * n:-1] = np.tile(cols, 2)
    indices[-1] = n + 1
    indptr = np.append(M.indptr + 2 * np.arange(n + 1),
                       [nnz + 3 * n, nnz + 4 * n + 1])
    keys = row_of * n + M.indices
    qa, qb = model.mesh.edges.T
    rows = np.concatenate([qa, qa, qb, qb])
    cols_q = np.concatenate([qa, qb, qa, qb])
    return (indptr, indices, block, border,
            np.searchsorted(keys, rows.astype(np.int64) * n + cols_q))


def _exp_mass_oracle(pattern, quad_vals, nnz):
    """The former E data of `hessian_operator`: the quarter values tiled
    four times and summed into their entries by one bincount."""
    return np.bincount(pattern[4], weights=np.tile(0.25 * quad_vals, 4),
                       minlength=nnz)


def _bordered_data_oracle(model, pattern, hessian, shift):
    """The data of the former `_bordered_hessian` with the v border: A0 -
    shift M, m, v = sqrt|c| w and the corner -sign filled into the
    unordered pattern."""
    _, indices, block, border, _ = pattern
    A0, c, w = hessian
    n = A0.shape[0]
    v = np.sqrt(abs(c)) * w
    data = np.empty(len(indices))
    data[block] = (A0.data - shift * model.mass.data) if shift else A0.data
    data[border] = model.lumped
    data[border + 1] = v
    data[-2 * n - 1:-n - 1] = model.lumped
    data[-n - 1:-1] = v
    data[-1] = -1.0 if c >= 0 else 1.0
    return data


def _ordered_pattern_oracle(model, pattern):
    """The former `_ordered_pattern`: the unordered pattern's entries
    renumbered by the mesh's order, borders last, and sorted by a lexsort.
    Returns the order, indptr, indices and each entry's unordered data
    position."""
    indptr, indices = pattern[:2]
    n = model.mesh.num_vertices
    order = np.append(spectrum.operators(model.mesh).order, [n, n + 1])
    rank = np.empty(n + 2, dtype=np.intp)
    rank[order] = np.arange(n + 2)
    cols = np.repeat(np.arange(n + 2), np.diff(indptr))
    new_rows, new_cols = rank[indices], rank[cols]
    gather = np.lexsort((new_rows, new_cols))
    new_indptr = np.zeros(n + 3, dtype=indptr.dtype)
    np.cumsum(np.bincount(new_cols, minlength=n + 2), out=new_indptr[1:])
    return order, new_indptr, new_rows[gather], gather


def _check_hessian_against_oracles(model, fields):
    """E, A0 and the ordered bordered Hessian of each field, for the pairs
    `PAIRS` and shifts in {0, -7.5}, bit for bit against the oracles, and the
    Hessian read from the field's `Evaluation` bit for bit against the one
    of the field.  Where W^2 underflows, `hessian_operator`'s c = rho / W^2
    is not defined, both raise a ConvergenceError, and only E is
    compared."""
    pattern = _bordered_pattern_oracle(model)
    order, indptr, indices, gather = _ordered_pattern_oracle(model, pattern)
    K, M = model.stiffness, model.mass
    for u in fields:
        with np.errstate(all="ignore"):
            _, vals, _, total = _exp_quad(model, u)
            E = _exp_mass_oracle(pattern, vals, M.nnz)
            assert np.array_equal(model._exp_mass(vals), E, equal_nan=True)
            if total ** 2 == 0.0:
                for arg in (u, model.evaluate(u, PAIRS[0])):
                    with pytest.raises(ConvergenceError, match="underflows"):
                        model.hessian_operator(arg, PAIRS[0])
                continue
            w_add_at = _exp_quad_add_at(u, _edge_rule(model.mesh))[2]
            for p in PAIRS:
                A0, c, w = model.hessian_operator(u, p)
                assert np.array_equal(w, w_add_at, equal_nan=True)
                A0_ev, c_ev, w_ev = model.hessian_operator(
                    model.evaluate(u, p), p)
                for got, want in ((A0_ev.data, A0.data),
                                  (A0_ev.indices, A0.indices),
                                  (A0_ev.indptr, A0.indptr), (c_ev, c),
                                  (w_ev, w)):
                    assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(
                    A0.data, K.data + p.beta * M.data - (p.rho / total) * E,
                    equal_nan=True)
                for shift in (0.0, -7.5):
                    B, got_order = solver.BorderedHessian(
                        model, (A0, c, w)).matrix(shift)
                    data = _bordered_data_oracle(model, pattern, (A0, c, w),
                                                 shift)
                    assert B.format == "csc"
                    assert np.array_equal(B.indptr, indptr)
                    assert np.array_equal(B.indices, indices)
                    assert np.array_equal(B.data, data[gather],
                                          equal_nan=True)
                    assert np.array_equal(got_order, order)


HESSIAN_KINDS = ["noise", "nan", "inf", "underflow", "spike", "subnormal"]


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(st.sampled_from(sorted(ORACLE_MESHES)),
                  st.sampled_from(HESSIAN_KINDS),
                  st.integers(0, 2 ** 32 - 1), st.floats(-3.0, 3.0))
# Every kind at least once.
@hypothesis.example("disk", "noise", 3, 0.0)
@hypothesis.example("disk", "nan", 3, 0.0)
@hypothesis.example("disk", "inf", 3, 0.0)
@hypothesis.example("disk", "underflow", 3, 0.0)
@hypothesis.example("disk", "spike", 3, 0.0)
@hypothesis.example("disk", "subnormal", 3, 0.0)
def test_hessian_matches_oracles_on_oracle_meshes(name, kind, seed, log_amp):
    model = EnergyFunctional.for_mesh(ORACLE_MESHES[name])
    _check_hessian_against_oracles(
        model, [_oracle_input(model, kind, seed, 10.0 ** log_amp)])


def test_hessian_matches_oracles_on_builtin_meshes(square48, square256,
                                                   disk128):
    for mesh in (square48, square256, disk128,
                 meshmod.build_builtin("annulus", 64)):
        model = EnergyFunctional.for_mesh(mesh)
        _check_hessian_against_oracles(
            model, [_oracle_input(model, kind, 8, 1.0)
                    for kind in ("noise", "nan", "subnormal")])


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(st.floats(1.0, 100.0), st.integers(2, 14),
                  st.integers(0, 40), st.integers(0, 2 ** 32 - 1),
                  st.sampled_from(HESSIAN_KINDS))
def test_hessian_matches_oracles_on_graded_squares(ratio, steps, inner, seed,
                                                   kind):
    model = EnergyFunctional(_graded_square(ratio, steps, inner, seed))
    _check_hessian_against_oracles(
        model, [_oracle_input(model, kind, seed, 1.0)])


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
def test_mass_pattern_is_the_diagonal_and_both_directions_of_each_edge(name):
    mesh = ORACLE_MESHES[name]
    M = spectrum.operators(mesh).mass
    n = mesh.num_vertices
    lo, hi = mesh.edges.T
    keys = np.repeat(np.arange(n), np.diff(M.indptr)) * n + M.indices
    want = np.sort(np.concatenate([np.arange(n) * (n + 1), lo * n + hi,
                                   hi * n + lo]))
    assert np.array_equal(keys, want)


def test_model_is_freed_with_its_mesh():
    mesh = meshmod.build_builtin("unit_square", 8)
    model = EnergyFunctional.for_mesh(mesh)
    assert EnergyFunctional.for_mesh(mesh) is model
    model.hessian_operator(np.zeros(mesh.num_vertices),
                           Parameters(beta=0.0, rho=1.0))
    ref = weakref.ref(model)
    del mesh, model
    gc.collect()
    assert ref() is None


def test_mesh_and_model_form_no_reference_cycle():
    # Reference counting alone frees them: no collector run is needed.
    mesh = meshmod.build_builtin("unit_square", 8)
    model = EnergyFunctional.for_mesh(mesh)
    model.hessian_operator(np.zeros(mesh.num_vertices),
                           Parameters(beta=0.0, rho=1.0))
    refs = weakref.ref(mesh), weakref.ref(model)
    gc.disable()
    try:
        del mesh, model
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()
