"""The mean-field energy functional and its first two derivatives.

All fields are zero-mean P1 functions.  Nonlinear integrals of e^u use the
edge-midpoint rule: one node per mesh edge, weighing a third of the area of
each triangle on it (each triangle's 3-point rule, shared nodes merged),
with a log-sum-exp shift so that nothing overflows.  Gradient and Hessian
actions are returned as mass representers (Riesz vectors in the discrete L2
inner product).
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import spectrum
from .errors import ConvergenceError


@dataclass(frozen=True)
class Parameters:
    beta: float
    rho: float


@dataclass(eq=False)
class Field:
    """Zero-mean scalar P1 function given by its vertex values."""
    mesh: object
    values: np.ndarray


def field_values(u):
    """The vertex values of a Field; any other argument is returned as is."""
    return u.values if isinstance(u, Field) else u


class Evaluation:
    """Energy, dual-space residual, zero-mean gradient (mass representer of
    the residual), gradient norm and Hessian data of one field.

    The energy is computed at once, the others on first read from the
    same K u + beta M u and quadrature values, so a caller that reads only
    the energy (a rejected flow trial) pays no residual and no mass solve.
    """

    def __init__(self, model, u, p, Au, s, vals):
        self._model, self._u, self._p = model, u, p
        self._Au, self._s, self._vals = Au, s, vals
        self._total = float(vals.sum())
        self._defined = bool(np.all(np.isfinite(u))) and self._total > 0.0
        self.energy = model._energy(u, Au, s, self._total, p)

    @cached_property
    def residual(self):
        if not self._defined:
            return np.full_like(self._u, np.nan)
        model, p = self._model, self._p
        w = model._at_ends(0.5 * self._vals)
        return self._Au - p.rho * (
            w / self._total - model.lumped / model.area)

    @cached_property
    def _solved(self):
        """Gradient and gradient norm from one mass solve of the residual."""
        if not self._defined:
            return np.full_like(self._u, np.nan), float("nan")
        g = self._model._mass_solve(self.residual)
        return (self._model.project_zero_mean(g),
                float(np.sqrt(max(self.residual @ g, 0.0))))

    gradient = property(lambda self: self._solved[0])
    gradient_norm = property(lambda self: self._solved[1])

    @cached_property
    def hessian(self):
        """The (A0, c, w) of `EnergyFunctional.hessian_operator` from this
        quadrature; a ConvergenceError where the W^2 of c = rho / W^2
        underflows."""
        model, p, total = self._model, self._p, self._total
        if total ** 2 == 0.0:
            raise ConvergenceError("Hessian undefined: the quadrature of e^u "
                                   "underflows")
        M = model.mass
        data = (model._shifted_stiffness(p.beta).data
                - (p.rho / total) * model._exp_mass(self._vals))
        # A0 shares M's index arrays, which are read-only
        # (`spectrum.assemble`), so no caller can alter M's through it.
        A0 = sp.csr_matrix((data, M.indices, M.indptr), shape=M.shape)
        return A0, p.rho / total ** 2, model._at_ends(0.5 * self._vals)


class EnergyFunctional:
    """Discretization of J(u) = 1/2 int(|grad u|^2 + beta u^2) - rho log int e^u."""

    def __init__(self, mesh):
        self.mesh = mesh
        ops = spectrum.operators(mesh)
        self.stiffness, self.mass = ops.stiffness, ops.mass
        self._source, self._mass_solve = ops.source, ops.mass_solve
        self.area = mesh.area
        self.lumped = mesh.lumped_masses()
        # One node per edge midpoint, weighing |T| / 3 per triangle T on it.
        # Its ends are the mesh's int32 edge ends, gathered with `take`:
        # indexing by them costs 35 us a disk128 quadrature, `take` 20.
        self._qab = mesh.edges.T.ravel()
        self._qa, self._qb = np.split(self._qab, 2)
        self._qw = np.bincount(mesh.triangle_edges.ravel(),
                               weights=np.repeat(mesh.triangle_areas / 3.0, 3),
                               minlength=len(mesh.edges))
        self._a_beta = (None, None)

    @classmethod
    def for_mesh(cls, mesh):
        """The model of `mesh`, shared by every caller while one holds it.

        The model refers to its mesh, and the mesh to the model only
        weakly, so the two form no reference cycle: a dropped mesh and its
        model are freed at once, not at the next run of the cyclic garbage
        collector."""
        model = getattr(mesh, "_energy_model", lambda: None)()
        if model is None:
            model = cls(mesh)
            mesh._energy_model = weakref.ref(model)
        return model

    # -- fields -----------------------------------------------------------

    def project_zero_mean(self, values):
        values = np.asarray(values, dtype=float)
        return values - (self.lumped @ values) / self.area

    def field(self, values):
        return Field(self.mesh, self.project_zero_mean(values))

    def integral(self, values):
        return float(self.lumped @ values)

    def h1_norm(self, values):
        q = values @ (self.stiffness @ values) + values @ (self.mass @ values)
        return float(np.sqrt(max(q, 0.0)))

    # -- exponential quadrature --------------------------------------------

    def _exp_vals(self, u):
        """Shift s and the shifted quadrature values exp(u_q - s) w_q."""
        s = float(u.max(initial=0.0))
        ends = u.take(self._qa) + u.take(self._qb)
        return s, np.exp(0.5 * ends - s) * self._qw

    def _at_ends(self, node_vals):
        """Each quadrature node's value added to both ends of its edge: from
        half the quadrature values the vector w_i = exp(-s) int e^u phi_i,
        from a quarter E's diagonal."""
        return np.bincount(self._qab,
                           weights=np.concatenate([node_vals, node_vals]),
                           minlength=self.mesh.num_vertices)

    def log_int_exp(self, u):
        u = field_values(u)
        s, vals = self._exp_vals(u)
        return s + float(np.log(vals.sum()))

    def exp_density(self, u):
        """Vertex values of e^u / int e^u (shift-free)."""
        u = field_values(u)
        s, vals = self._exp_vals(u)
        return np.exp(u - s) / float(vals.sum())

    # -- functional, gradient, Hessian --------------------------------------

    @staticmethod
    def _energy(u, Au, s, total, p):
        """J(u) from A_beta u and the shifted quadrature total W."""
        return float(0.5 * (u @ Au) - p.rho * (s + float(np.log(total))))

    def _shifted_stiffness(self, beta):
        """A_beta = K + beta M on M's pattern, which K shares; the model
        keeps only the one of the last beta asked for."""
        if self._a_beta[0] != beta:
            M = self.mass
            self._a_beta = (beta, sp.csr_matrix(
                (self.stiffness.data + beta * M.data, M.indices, M.indptr),
                shape=M.shape))
        return self._a_beta[1]

    def evaluate(self, u, p):
        """The `Evaluation` of u: one exponential quadrature and one
        product A_beta @ u serve all four values, and one mass solve the
        gradient and its norm; each is bit-identical to what `energy`,
        `residual`, `gradient` and `gradient_norm` return.  For a
        non-finite u, or a quadrature that underflows to zero, the
        residual, gradient and gradient norm are NaN; the energy is
        whatever its formula gives (NaN, or an infinity on underflow),
        without a warning.
        """
        u = field_values(u)
        Au = self._shifted_stiffness(p.beta) @ u
        with np.errstate(divide="ignore", invalid="ignore"):
            s, vals = self._exp_vals(u)
            return Evaluation(self, u, p, Au, s, vals)

    def energy(self, u, p):
        """The energy alone: one quadrature and the quadratic form, no
        residual and no mass solve."""
        return self.evaluate(u, p).energy

    def residual(self, u, p):
        """Dual-space gradient r with r . v = J'(u)[v] for all v."""
        return self.evaluate(u, p).residual

    def gradient(self, u, p):
        return Field(self.mesh, self.evaluate(u, p).gradient)

    def gradient_norm(self, u, p):
        return self.evaluate(u, p).gradient_norm

    def _exp_mass(self, quad_vals):
        """The data of E_ab = exp(-s) int e^u phi_a phi_b on the mass
        matrix's pattern, from the shifted quadrature values, gathered
        through the pattern's source map (`spectrum.assemble`).

        Each edge's value adds a quarter to the four entries of its ends,
        so an edge's two off-diagonal entries are its own quarter value,
        and a vertex's diagonal the sum of the quarters of the values on its
        edges.  The diagonal is not w / 2: halving w rounds subnormal values
        differently.
        """
        quarter = 0.25 * quad_vals
        return np.concatenate([self._at_ends(quarter), quarter]).take(
            self._source)

    def hessian_operator(self, u, p):
        """Sparse part A0 and rank-one data (c, w) with J''(u) = A0 + c w w^T.

        A0 = K + beta M - (rho / W) E lives on the mass matrix's pattern:
        only its data is computed here, and it shares M's read-only index
        arrays.  u may be the iterate's `Evaluation` at p, whose quadrature
        then serves (`Evaluation.hessian`).
        """
        ev = u if isinstance(u, Evaluation) else self.evaluate(u, p)
        return ev.hessian


def project_pi(u, basis, I):
    """First I mass inner products of u with the eigenbasis."""
    if I > len(basis):
        raise ValueError("projection order exceeds available eigenpairs")
    return basis.eigenvectors[:, :I].T @ (basis.mass @ field_values(u))
