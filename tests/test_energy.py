"""Energy functional: values, derivatives and the exponential quadrature."""
import gc
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from ksbench import mesh as meshmod
from ksbench.energy import EnergyFunctional, Parameters, project_pi
from test_mesh import ORACLE_MESHES

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

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
        # The Riesz-represented action agrees with the gradient differences.
        riesz = model.hessian_apply(u, p, v).values
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


def _exp_quad_add_at(model, u):
    """The former `_exp_quad`: w scattered by two np.add.at calls."""
    s = float(u.max(initial=0.0))
    vals = np.exp(0.5 * (u[model._qa] + u[model._qb]) - s) * model._qw
    w = np.zeros(len(u))
    np.add.at(w, model._qa, 0.5 * vals)
    np.add.at(w, model._qb, 0.5 * vals)
    return s, vals, w, float(vals.sum())


def _energy_oracle(model, u, p):
    """The former `energy`."""
    quad = 0.5 * (u @ (model.stiffness @ u) + p.beta * (u @ (model.mass @ u)))
    s, _, _, total = _exp_quad_add_at(model, u)
    return float(quad - p.rho * (s + float(np.log(total))))


def _residual_oracle(model, u, p):
    """The former `residual`."""
    if not np.all(np.isfinite(u)):
        return np.full_like(u, np.nan)
    _, _, w, total = _exp_quad_add_at(model, u)
    if total <= 0.0:
        return np.full_like(u, np.nan)
    return (model.stiffness @ u + p.beta * (model.mass @ u)
            - p.rho * (w / total - model.lumped / model.area))


def _gradient_oracle(model, u, p):
    """The former `gradient`, as vertex values."""
    g = model._mass_solve(_residual_oracle(model, u, p))
    return model.project_zero_mean(g)


def _gradient_norm_oracle(model, u, p):
    """The former `gradient_norm`."""
    r = _residual_oracle(model, u, p)
    return float(np.sqrt(max(r @ model._mass_solve(r), 0.0)))


def _exp_mass_matrix(model, u, quad_vals):
    """The former per-step COO build of E_ab = exp(-s) int e^u phi_a phi_b."""
    n = len(u)
    q = 0.25 * quad_vals
    rows = np.concatenate([model._qa, model._qa, model._qb, model._qb])
    cols = np.concatenate([model._qa, model._qb, model._qa, model._qb])
    data = np.concatenate([q, q, q, q])
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def _bordered_oracle(model, u, p, sigma):
    """The former Hessian assembly: A0 from `_exp_mass_matrix` and sparse
    sums, then [[A0 - sigma M, m], [m^T, 0]] by sp.bmat."""
    _, quad_vals, _, total = _exp_quad_add_at(model, u)
    E = _exp_mass_matrix(model, u, quad_vals)
    A0 = (model.stiffness + p.beta * model.mass - (p.rho / total) * E).tocsr()
    m = model.lumped
    shifted = A0 - sigma * model.mass if sigma else A0
    return A0, sp.bmat([[shifted, m[:, None]], [m[None, :], None]],
                       format="csc")


def _oracle_input(model, kind, seed, amp):
    """A field of the given kind: scaled noise, noise with a NaN or an
    infinite entry, a constant whose quadrature underflows, or a zero-mean
    spike whose quadrature underflows."""
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
    return u


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(st.sampled_from(sorted(ORACLE_MESHES)),
                  st.sampled_from(["noise", "noise", "nan", "inf",
                                   "underflow", "spike"]),
                  st.integers(0, 2 ** 32 - 1), st.floats(-3.0, 3.0),
                  st.floats(-10.0, 10.0), st.floats(-30.0, 30.0))
def test_evaluate_matches_oracles(name, kind, seed, log_amp, beta, rho):
    model = EnergyFunctional.for_mesh(ORACLE_MESHES[name])
    u = _oracle_input(model, kind, seed, 10.0 ** log_amp)
    p = Parameters(beta=beta, rho=rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ev = model.evaluate(u, p)
    with np.errstate(all="ignore"):
        expected = (_energy_oracle(model, u, p), _residual_oracle(model, u, p),
                    _gradient_oracle(model, u, p),
                    _gradient_norm_oracle(model, u, p))
    for got, want in zip(ev, expected):
        assert np.array_equal(got, want, equal_nan=True)
    # The public methods are views of the same pass.
    assert np.array_equal(model.energy(u, p), ev.energy, equal_nan=True)
    assert np.array_equal(model.residual(u, p), ev.residual, equal_nan=True)
    assert np.array_equal(model.gradient(u, p).values, ev.gradient,
                          equal_nan=True)
    assert np.array_equal(model.gradient_norm(u, p), ev.gradient_norm,
                          equal_nan=True)


def test_exp_quad_matches_add_at(square64_model):
    rng = np.random.default_rng(9)
    for amp in (1e-3, 1.0, 30.0, 1e3):
        u = amp * rng.standard_normal(square64_model.mesh.num_vertices)
        for got, want in zip(square64_model._exp_quad(u),
                             _exp_quad_add_at(square64_model, u)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
@pytest.mark.parametrize("sigma", [0.0, -7.5])
def test_bordered_hessian_matches_bmat(name, sigma):
    model = EnergyFunctional.for_mesh(ORACLE_MESHES[name])
    rng = np.random.default_rng(1)
    u = model.project_zero_mean(rng.standard_normal(model.mesh.num_vertices))
    for p in (Parameters(beta=-5.0, rho=13.0), Parameters(beta=2.0, rho=-30.0),
              Parameters(beta=0.0, rho=1.0)):
        A0_old, B_old = _bordered_oracle(model, u, p, sigma)
        A0, _, _ = model.hessian_operator(u, p)
        B = model._bordered_hessian(A0, sigma)
        assert B.format == "csc"
        assert np.array_equal(B.indptr, B_old.indptr)
        assert np.array_equal(B.indices, B_old.indices)
        assert abs(B - B_old).max() <= 1e-13 * abs(B_old).max()
        assert abs(A0 - A0_old).max() <= 1e-13 * abs(A0_old).max()


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
