"""The mean-field energy functional and its first two derivatives.

All fields are zero-mean P1 functions.  Nonlinear integrals of e^u use a
3-point (edge-midpoint) Gauss rule per triangle, evaluated with a log-sum-exp
shift so that nothing overflows.  Gradient and Hessian actions are returned
as mass representers (Riesz vectors in the discrete L2 inner product).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import factorized

from . import spectrum

ZERO_MEAN_TOL = 1e-10


@dataclass(frozen=True)
class Parameters:
    beta: float
    rho: float


@dataclass(eq=False)
class Field:
    """Zero-mean scalar P1 function given by its vertex values."""
    mesh: object
    values: np.ndarray

    def copy(self):
        return Field(self.mesh, self.values.copy())


class Evaluation(NamedTuple):
    """Energy, dual-space residual, zero-mean gradient (mass representer of
    the residual) and gradient norm of one field."""
    energy: float
    residual: np.ndarray
    gradient: np.ndarray
    gradient_norm: float


class _BorderedPattern(NamedTuple):
    """CSC pattern of [[A, m], [m^T, 0]] for A on the mass matrix's pattern."""
    indptr: np.ndarray
    indices: np.ndarray
    block: np.ndarray       # position of each of A's entries in the data
    border: np.ndarray      # position of m_j in column j
    exp_slots: np.ndarray   # entry of A that each quadrature term of E adds to


class EnergyFunctional:
    """Discretization of J(u) = 1/2 int(|grad u|^2 + beta u^2) - rho log int e^u."""

    def __init__(self, mesh):
        self.mesh = mesh
        self.stiffness, self.mass = spectrum.assemble(mesh)
        self.area = mesh.area
        self.lumped = np.asarray(self.mass.sum(axis=1)).ravel()  # int of hats
        self._mass_solve = factorized(self.mass.tocsc())
        t = mesh.triangles
        # Quadrature nodes are the three edge midpoints of each triangle.
        self._qa = t[:, [0, 1, 2]].ravel()
        self._qb = t[:, [1, 2, 0]].ravel()
        self._qab = np.concatenate([self._qa, self._qb])
        self._qw = np.repeat(mesh.triangle_areas / 3.0, 3)

    @classmethod
    def for_mesh(cls, mesh):
        """The model of `mesh`, built once and kept on the mesh itself, so
        that it (and its mass factorization) is freed with the mesh."""
        model = getattr(mesh, "_energy_model", None)
        if model is None:
            model = cls(mesh)
            mesh._energy_model = model
        return model

    # -- fields -----------------------------------------------------------

    def project_zero_mean(self, values):
        values = np.asarray(values, dtype=float)
        return values - (self.lumped @ values) / self.area

    def field(self, values):
        return Field(self.mesh, self.project_zero_mean(values))

    def zero_field(self):
        return Field(self.mesh, np.zeros(self.mesh.num_vertices))

    def integral(self, values):
        return float(self.lumped @ values)

    def mass_norm(self, values):
        return float(np.sqrt(max(values @ (self.mass @ values), 0.0)))

    def h1_norm(self, values):
        q = values @ (self.stiffness @ values) + values @ (self.mass @ values)
        return float(np.sqrt(max(q, 0.0)))

    # -- exponential quadrature --------------------------------------------

    def _exp_quad(self, u):
        """Shift s, shifted quad values, shifted vertex vector w, shifted total W.

        w_i = exp(-s) * int e^u phi_i and W = exp(-s) * int e^u under the
        3-point rule, so any ratio of them is shift-free.
        """
        s = float(u.max(initial=0.0))
        vals = np.exp(0.5 * (u[self._qa] + u[self._qb]) - s) * self._qw
        half = 0.5 * vals
        w = np.bincount(self._qab, weights=np.concatenate([half, half]),
                        minlength=len(u))
        return s, vals, w, float(vals.sum())

    def log_int_exp(self, u):
        u = u.values if isinstance(u, Field) else u
        s, _, _, total = self._exp_quad(u)
        return s + float(np.log(total))

    def exp_density(self, u):
        """Vertex values of e^u / int e^u (shift-free)."""
        u = u.values if isinstance(u, Field) else u
        s, _, _, total = self._exp_quad(u)
        return np.exp(u - s) / total

    # -- functional, gradient, Hessian --------------------------------------

    def evaluate(self, u, p):
        """Energy, residual, gradient and gradient norm of u in one pass.

        One exponential quadrature, one K @ u, one M @ u and one mass solve
        serve all four, each bit-identical to what `energy`, `residual`,
        `gradient` and `gradient_norm` return.  For a non-finite u, or a
        quadrature that underflows to zero, the residual, gradient and
        gradient norm are NaN; the energy is whatever its formula gives
        (NaN, or an infinity on underflow), without a warning.
        """
        u = u.values if isinstance(u, Field) else u
        Ku = self.stiffness @ u
        Mu = self.mass @ u
        with np.errstate(divide="ignore", invalid="ignore"):
            s, _, w, total = self._exp_quad(u)
            log_int = s + float(np.log(total))
            energy = float(0.5 * (u @ Ku + p.beta * (u @ Mu))
                           - p.rho * log_int)
        if not np.all(np.isfinite(u)) or total <= 0.0:
            nan = np.full_like(u, np.nan)
            return Evaluation(energy, nan, nan, float("nan"))
        r = Ku + p.beta * Mu - p.rho * (w / total - self.lumped / self.area)
        g = self._mass_solve(r)
        return Evaluation(energy, r, self.project_zero_mean(g),
                          float(np.sqrt(max(r @ g, 0.0))))

    def energy(self, u, p):
        return self.evaluate(u, p).energy

    def residual(self, u, p):
        """Dual-space gradient r with r . v = J'(u)[v] for all v."""
        return self.evaluate(u, p).residual

    def gradient(self, u, p):
        return Field(self.mesh, self.evaluate(u, p).gradient)

    def gradient_norm(self, u, p):
        return self.evaluate(u, p).gradient_norm

    @cached_property
    def _bordered_pattern(self):
        """The per-mesh `_BorderedPattern`, built on first use.

        K and M share one CSR pattern, and the exp-weighted mass matrix E
        has it too.  M is symmetric, so its CSR arrays are also the CSC
        arrays of the block.  Column j of the bordered matrix holds the
        block's column j and then m_j in row n; the last column holds m.
        """
        M = self.mass
        n, nnz = M.shape[0], M.nnz
        cols = np.arange(n)
        row_of = np.repeat(cols, np.diff(M.indptr))
        block = np.arange(nnz) + row_of
        border = M.indptr[1:] + cols
        indices = np.empty(nnz + 2 * n, dtype=M.indices.dtype)
        indices[block] = M.indices
        indices[border] = n
        indices[nnz + n:] = cols
        indptr = np.append(M.indptr + np.arange(n + 1), nnz + 2 * n)
        # E_ab gathers a quarter of each quadrature value at (qa, qa),
        # (qa, qb), (qb, qa) and (qb, qb); find those entries among the
        # sorted row-major keys of M's pattern.
        keys = row_of * n + M.indices
        rows = np.concatenate([self._qa, self._qa, self._qb, self._qb])
        cols_q = np.concatenate([self._qa, self._qb, self._qa, self._qb])
        return _BorderedPattern(
            indptr=indptr.astype(M.indices.dtype), indices=indices,
            block=block, border=border,
            exp_slots=np.searchsorted(keys, rows * n + cols_q))

    def hessian_operator(self, u, p):
        """Sparse part A0 and rank-one data (c, w) with J''(u) = A0 + c w w^T.

        A0 = K + beta M - (rho / W) E lives on the mass matrix's pattern;
        only its data is computed here.
        """
        u = u.values if isinstance(u, Field) else u
        _, quad_vals, w, total = self._exp_quad(u)
        M = self.mass
        E = np.bincount(self._bordered_pattern.exp_slots,
                        weights=np.tile(0.25 * quad_vals, 4),
                        minlength=M.nnz)
        data = self.stiffness.data + p.beta * M.data - (p.rho / total) * E
        # A0 gets its own index arrays, so that no caller can alter M's.
        A0 = sp.csr_matrix((data, M.indices.copy(), M.indptr.copy()),
                           shape=M.shape)
        return A0, p.rho / total ** 2, w

    def _bordered_hessian(self, A0, sigma=0.0):
        """The CSC matrix [[A0 - sigma M, m], [m^T, 0]] with m the lumped
        masses, for A0 from `hessian_operator`: the data is filled into the
        per-mesh pattern, so no sparsity structure is built per call."""
        pat = self._bordered_pattern
        n = A0.shape[0]
        data = np.empty(len(pat.indices))
        data[pat.block] = (A0.data - sigma * self.mass.data) if sigma \
            else A0.data
        data[pat.border] = self.lumped
        data[-n:] = self.lumped
        return sp.csc_matrix((data, pat.indices, pat.indptr),
                             shape=(n + 1, n + 1))

    def hessian_apply(self, u, p, v):
        A0, c, w = self.hessian_operator(u, p)
        v = v.values if isinstance(v, Field) else v
        r = A0 @ v + c * w * (w @ v)
        h = self._mass_solve(r)
        return Field(self.mesh, self.project_zero_mean(h))


def project_pi(u, basis, I):
    """First I mass inner products of u with the eigenbasis."""
    if I > len(basis):
        raise ValueError("projection order exceeds available eigenpairs")
    if I == 0:
        return np.zeros(0)
    values = u.values if isinstance(u, Field) else u
    return basis.eigenvectors[:, :I].T @ (basis.mass @ values)
