"""Critical-point search: gradient flow, damped Newton, Morse indices and
blow-up diagnostics."""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import mesh as meshmod
from . import spectrum, topology
from .bubbles import (TestConfig, boundary_atom, interior_atom, make_measure,
                      phi_lambda)
from .barycenter import JoinPoint, _ball_incidence
from .energy import EnergyFunctional, Field, Parameters, field_values
from .errors import ConvergenceError, ResonanceError

NEWTON_TOL = 1e-10
FLOW_TOL = 1e-6
BLOWUP_NORM_CAP = 1e3
EIG_GUARD = 1e-8            # below it a Hessian eigenvalue counts as zero
SEED_LAMBDAS = (30.0, 100.0)    # overall scales of the seed family
# Newton's factor swaps rows only where the diagonal is below this share of
# its column's largest (threshold pivoting).  On 96 disk128 search states
# it solves to 4.2e-13 relative residual (full pivoting 2.3e-13, none
# 1.1e-11), and stores 0.4%, not 1.1%, explicit zeros on square48.
PIVOT_THRESHOLD = 0.1
# Iterative refinement of a Newton step against a held factorization.
REFINE_TOL = 1e-12
REFINE_SWEEPS = 8
# Meshes from this many vertices factor Newton's Hessian in float32, half
# the factor's storage, and refine each step to REFINE_TOL against it.
SINGLE_PRECISION_VERTICES = 2 ** 14

CLASS_TRIVIAL = "trivial"
CLASS_NONTRIVIAL = "nontrivial"
CLASS_DIVERGED = "diverged"


@dataclass(eq=False)
class SolveResult:
    u: Field
    residual: float
    energy: float
    classification: str
    morse_index: int | None
    iterations: int
    seed_descriptor: str = "zero"

    def to_json_dict(self, p):
        return {
            "residual": self.residual,
            "energy": self.energy,
            "classification": self.classification,
            "morse_index": self.morse_index,
            "iterations": self.iterations,
            "seed": self.seed_descriptor,
            "field": [float(x) for x in self.u.values],
            "beta": p.beta,
            "rho": p.rho,
        }


@dataclass(eq=False)
class BlowupDiagnostic:
    candidate_points: list       # (point, local_mass, tag) triples
    interpretation: str          # interior_like | boundary_like | none


def triviality_tol(p):
    return 1e-4 * (1.0 + abs(p.beta) + abs(p.rho))


def _classify(model, u, gnorm, p, tol_res):
    if not np.all(np.isfinite(u)):
        return CLASS_DIVERGED
    if model.h1_norm(u) < triviality_tol(p):
        return CLASS_TRIVIAL
    if gnorm < tol_res:
        return CLASS_NONTRIVIAL
    return CLASS_DIVERGED


def flow(model, seed, p, step_budget):
    """Explicit gradient descent with adaptive steps.

    Steps are halved on energy increase and grown by 1.2 on decrease; the
    energy is non-increasing across accepted steps.  Terminates at residual
    below FLOW_TOL, when the budget runs out, or when the step falls below
    1e-14; and at once, reported as diverged, when an accepted step's sup
    norm exceeds BLOWUP_NORM_CAP.
    """
    u = model.project_zero_mean(field_values(seed))
    ev = model.evaluate(u, p)
    e, g, gnorm = ev.energy, ev.gradient, ev.gradient_norm
    dt = 0.1
    it = 0
    cls = None
    while it < step_budget and gnorm > FLOW_TOL:
        trial = model.project_zero_mean(u - dt * g)
        ev = model.evaluate(trial, p)
        it += 1
        if not np.isfinite(ev.energy) or ev.energy > e:
            dt *= 0.5
            if dt < 1e-14:
                break
            continue
        u, e, g, gnorm = trial, ev.energy, ev.gradient, ev.gradient_norm
        dt *= 1.2
        if np.abs(u).max() > BLOWUP_NORM_CAP:
            cls = CLASS_DIVERGED
            break
    cls = cls or _classify(model, u, gnorm, p, FLOW_TOL)
    return SolveResult(u=Field(model.mesh, u), residual=gnorm, energy=e,
                       classification=cls, morse_index=None, iterations=it)


def _factor(B, **options):
    """SuperLU's LU of B, already in the mesh's order, in natural order,
    without relaxed supernodes (`spectrum.SUPERNODE_RELAX`) and in narrow
    panels (`spectrum.PANEL_SIZE`)."""
    return spla.splu(B, permc_spec="NATURAL", relax=spectrum.SUPERNODE_RELAX,
                     panel_size=spectrum.PANEL_SIZE, **options)


class BorderedHessian:
    """The doubly bordered matrix of the Hessian data (A0, c, w) of
    `hessian_operator`,

        B(s) = [[A0 - s M, m, v], [m^T, 0, 0], [v^T, 0, -sign]],

    m the lumped masses, v = sqrt|c| w and sign = 1 if c >= 0 else -1.
    Eliminating the corner leaves [[A0 + c w w^T - s M, m], [m^T, 0]]: the
    first V entries of B(0)'s solve with (b, 0, 0) are the zero-mean
    Hessian solve of b, and by Sylvester's law of inertia (Parlett, The
    Symmetric Eigenvalue Problem, SIAM 1998, ch. 3) B(s) has one negative
    pivot for each eigenvalue of H x = lambda M x on the zero-mean space
    below s, H = A0 + c w w^T, one for the m border and one more where the
    corner is -1.
    """

    def __init__(self, model, hessian):
        self._model = model
        self._A0, c, w = hessian
        self._sign = 1.0 if c >= 0 else -1.0
        self._v = np.sqrt(abs(c)) * w

    def matrix(self, shift=0.0, dtype=np.float64):
        """The CSC matrix B(shift)[order][:, order], with values of
        `dtype`, and that order (`MeshOperators.bordered_pattern`).  One
        gather fills the per-mesh pattern, so no sparsity structure is
        built per call, and no float64 copy of the matrix is made for
        another dtype."""
        model = self._model
        order, pattern = spectrum.operators(model.mesh).bordered_pattern
        data = np.concatenate([self._A0.data - shift * model.mass.data,
                               model.lumped, self._v, [-self._sign]],
                              dtype=dtype)
        return sp.csc_matrix((data.take(pattern.data), pattern.indices,
                              pattern.indptr), shape=pattern.shape), order

    def residual(self, b, z):
        """(b, 0, 0) - B(0) z for z = (x, lambda, y), in float64 from the
        Hessian data alone: [b - A0 x - m lambda - v y, -m^T x, -v^T x +
        sign y]."""
        n, m = len(b), self._model.lumped
        x, lam, y = z[:n], z[n], z[n + 1]
        r = np.empty_like(z)
        r[:n] = b - self._A0 @ x - m * lam - self._v * y
        r[n] = -(m @ x)
        r[n + 1] = -(self._v @ x) + self._sign * y
        return r

    def count_below(self, shift):
        """The number of zero-mean eigenvalues of H below `shift`: the
        negative pivots of B(shift), factored without a row pivot (its L U
        is then L D L^T, D the diagonal of U), less the border pivots.  A
        ConvergenceError where SuperLU would have to pivot (a zero pivot)
        or finds B singular."""
        B, _ = self.matrix(shift)
        try:
            lu = _factor(B, diag_pivot_thresh=0.0,
                         options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise ConvergenceError(
                f"Morse factorization failed: {exc}") from exc
        if not np.array_equal(lu.perm_r, np.arange(B.shape[0])):
            raise ConvergenceError("Morse factorization failed: a zero pivot")
        borders = 2 if self._sign > 0 else 1
        return int(np.count_nonzero(lu.U.diagonal() < 0.0)) - borders


class _ZeroMeanHessianSolver:
    """Factorized Hessian H = A0 + c w w^T on the zero-mean space.

    The Hessian solve is that of the doubly bordered B(0) of
    `BorderedHessian`, whose m border imposes the constraint and whose v
    border carries the rank-one part; it is factored with threshold
    partial pivoting (PIVOT_THRESHOLD) in the mesh's order, borders last,
    in float32 on meshes of at least SINGLE_PRECISION_VERTICES vertices
    and in float64 below.  The solve maps the constant mode to zero.

    Nothing is factored until `factor` or the first `refined_solve`;
    `newton` keeps one solver across its iterates, and `drop`s the held
    factorization where refining against it would not pay.
    """

    def __init__(self, model):
        self._model = model
        self._precision = (
            np.float32 if model.mesh.num_vertices >= SINGLE_PRECISION_VERTICES
            else np.float64)
        self._lu = None

    def drop(self):
        """Release the held factorization; the next `refined_solve`
        factors its Hessian directly."""
        self._lu = self._bordered_solve = None

    def factor(self, hessian=None, dtype=None):
        """Factor `hessian`, the (A0, c, w) of `hessian_operator`, which
        becomes the current Hessian (by default the current one), in
        `dtype` (by default the mesh's precision).  The held LU is dropped
        first, so that two are never alive at once."""
        self.drop()
        if hessian is not None:
            self._bordered = BorderedHessian(self._model, hessian)
        self._dtype = dtype or self._precision
        B, order = self._bordered.matrix(dtype=self._dtype)
        self._lu = _factor(B, diag_pivot_thresh=PIVOT_THRESHOLD)
        self._bordered_solve = spectrum.ordered_solve(self._lu, order,
                                                      self._dtype)

    def solve(self, rhs):
        """The solve with the held factorization, which `refined_solve` may
        have kept from an earlier Hessian."""
        return self._bordered_solve(np.concatenate([rhs, [0.0, 0.0]]))[
            :len(rhs)]

    def _refine(self, rhs):
        """The zero-mean solve of the current Hessian, refined on the
        bordered system against the held factorization, or None where the
        refinement stalls."""
        n = len(rhs)
        z = np.zeros(n + 2)
        last = np.inf
        for _ in range(REFINE_SWEEPS):
            dz = self._bordered_solve(self._bordered.residual(rhs, z))
            z += dz
            size = np.linalg.norm(dz[:n])
            if size <= REFINE_TOL * np.linalg.norm(z[:n]):
                return z[:n]
            if not size <= 0.5 * last:      # a NaN stalls too
                return None
            last = size
        return None

    def refined_solve(self, hessian, rhs):
        """The zero-mean solve of H x = rhs for H the Hessian data
        `hessian`, which becomes the current Hessian: refined to REFINE_TOL
        relative, or solved directly against a fresh float64 factor.

        Iterative refinement on the bordered system B(0) z = (rhs, 0, 0)
        against the held factorization P, which may be of an earlier
        Hessian or in float32: z <- z + P^-1 ((rhs, 0, 0) - B(0) z), with
        the residual formed in float64 from the Hessian data, accepted once
        the correction's x part has ||dx|| <= REFINE_TOL ||x||.  (Refined
        on rhs - H x alone, a float32 factor leaves the zero-mean
        constraint, which that residual does not see, at float32 rounding:
        x then lies 1.5e-8 relative from the float64 solve on square128,
        against 7.5e-15 refined on the bordered system.)

        When a sweep fails to halve the correction, after REFINE_SWEEPS
        sweeps, or with nothing factored yet, H is factored in the mesh's
        precision in place of P: a float64 factor is solved directly, a
        float32 one refined as above, and where that stalls too H is
        factored in float64 and solved directly.  A direct solve is not
        checked: on the far-field Hessians of the disk128 search (one-norm
        condition up to 2.1e8), 14 of 353 fresh float64 factors left a
        relative residual of 1.2e-12 to 8.0e-10.  A factorization costs
        about 20-25 sweeps, each a bordered residual and a solve
        (single-threaded: about 20 on disk128, V = 1409, in float64; 24 on
        square256, V = 66049, in float32, a 0.16 s factor against 7 ms
        sweeps), so the cap keeps a stalled refinement well below the cost
        of refactoring.
        """
        self._bordered = BorderedHessian(self._model, hessian)
        if self._lu is not None:
            x = self._refine(rhs)
            if x is not None:
                return x
        self.factor()
        if self._dtype == np.float32:
            x = self._refine(rhs)
            if x is not None:
                return x
            self.factor(dtype=np.float64)
        return self.solve(rhs)


def newton(model, u0, p, max_iter=30, damped=False, seed_descriptor="zero"):
    """Newton iteration on the mass-represented gradient.

    Converges quadratically near nondegenerate critical points (saddles
    included).  With damped=True a residual-norm backtracking line search
    makes distant seeds usable.  Each step solves the Newton system
    against one factorization of the Hessian (in float32 on meshes of
    SINGLE_PRECISION_VERTICES or more), refined to REFINE_TOL (1e-12)
    relative, except where it factors afresh in float64: that solve is
    direct and unchecked (up to 8e-10 relative residual on far-field
    disk128 Hessians).  The factorization is taken at the first iterate
    and again only where refinement stalls
    (`_ZeroMeanHessianSolver.refined_solve`) or after a step that did not
    at least halve the gradient norm: the iterate then moved too far for
    the held factorization to precondition well (the refactoring test of
    Kelley, Solving Nonlinear Equations with Newton's Method, SIAM 2003,
    ch. 5).
    """
    u = model.project_zero_mean(field_values(u0))
    ev = model.evaluate(u, p)
    gnorm = ev.gradient_norm
    tol_abs = NEWTON_TOL * max(1.0, gnorm)
    it = 0
    hess = _ZeroMeanHessianSolver(model)
    while gnorm > tol_abs and it < max_iter:
        try:
            delta = hess.refined_solve(model.hessian_operator(ev, p),
                                       -ev.residual)
        except ConvergenceError:
            raise           # the Hessian's own: undefined
        except (RuntimeError, ValueError) as exc:
            raise ConvergenceError(f"Hessian solve failed: {exc}") from exc
        if not np.all(np.isfinite(delta)):
            raise ConvergenceError("non-finite Newton step")
        alpha = 1.0
        while True:
            trial = model.project_zero_mean(u + alpha * delta)
            ev_trial = model.evaluate(trial, p)
            gn_trial = ev_trial.gradient_norm
            if np.isfinite(gn_trial) and (not damped or gn_trial < gnorm
                                          or alpha < 1e-8):
                break
            alpha *= 0.5
        if damped and alpha < 1e-8 and gn_trial >= gnorm:
            raise ConvergenceError("Newton line search stalled")
        if not gn_trial <= 0.5 * gnorm:
            hess.drop()
        u, ev, gnorm = trial, ev_trial, gn_trial
        it += 1
    if gnorm > tol_abs:
        raise ConvergenceError(
            f"no convergence within {max_iter} Newton iterations "
            f"(residual {gnorm:.3e})")
    cls = _classify(model, u, gnorm, p, tol_abs)
    return SolveResult(u=Field(model.mesh, u), residual=gnorm,
                       energy=ev.energy, classification=cls,
                       morse_index=None, iterations=it,
                       seed_descriptor=seed_descriptor)


def morse_index_at(model, u, p, count):
    """Negative Hessian directions at a critical point, among the lowest `count`.

    The `BorderedHessian` of u, from one evaluation, counts the
    eigenvalues below -EIG_GUARD and below EIG_GUARD; where the two counts
    differ an eigenvalue lies within EIG_GUARD of 0: the point is not
    Morse, an error.  At u = 0 this is the J of the existence criterion,
    and at rho = 0 its I (see `index_below`).
    """
    B = BorderedHessian(model, model.hessian_operator(u, p))
    below, above = (B.count_below(s) for s in (-EIG_GUARD, EIG_GUARD))
    if below != above:
        raise ConvergenceError(
            "near-zero Hessian eigenvalue: critical point is not Morse")
    return min(below, count)


def index_below(model, threshold):
    """`spectrum.bracket_index` over the mesh's whole spectrum, with no
    eigensolve: the number of nonconstant Neumann eigenvalues below
    -threshold, a ResonanceError where one lies within
    `spectrum.resonance_tol` of it.

    The Hessian of u = 0 at Parameters(threshold, 0) is A0 = K + threshold
    M with c = 0, taken here with w = 0 and no evaluation; its eigenvalues
    on the zero-mean space are lambda_i + threshold, and its counts below
    -tol and below tol, tol that tolerance, differ exactly at a resonance.
    """
    B = BorderedHessian(model, (model._shifted_stiffness(threshold), 0.0,
                                np.zeros(model.mesh.num_vertices)))
    tol = spectrum.resonance_tol(threshold)
    below, above = (B.count_below(s) for s in (-tol, tol))
    if below != above:
        raise ResonanceError(f"threshold {threshold} resonates with an "
                             f"eigenvalue")
    return below


def local_mass(model, u, p, radius):
    """Blow-up diagnostic: candidate concentration points and their local mass.

    Each candidate is a local maximum of e^u whose density exceeds twice the
    uniform level; its mass fraction in a radius-ball is scaled by rho and
    matched against the boundary (4*pi) and interior (8*pi) quantization
    values within 15%.
    """
    mesh = model.mesh
    u = field_values(u)
    density = model.exp_density(u)

    # Two vertices share a triangle exactly when they share an edge.
    a, b = mesh.edges.T
    nbr_max = np.full(mesh.num_vertices, -np.inf)
    np.maximum.at(nbr_max, a, u[b])
    np.maximum.at(nbr_max, b, u[a])
    peaks = np.flatnonzero((u >= nbr_max) & (density > 2.0 / mesh.area))
    peaks = peaks[np.argsort(-u[peaks])]

    weights = mesh.lumped_masses() * density
    weights /= weights.sum()
    points = mesh.vertices[peaks]
    balls = _ball_incidence(points, mesh.vertices, radius)
    masses = p.rho * (balls @ weights)
    boundary = meshmod.boundary_distances(mesh, points) < radius / 4.0
    # A peak inside the ball of a higher one is not a candidate.
    taken = np.zeros(mesh.num_vertices, bool)
    candidates = []
    for k, idx in enumerate(peaks):
        if taken[idx]:
            continue
        taken[balls.indices[balls.indptr[k]:balls.indptr[k + 1]]] = True
        candidates.append((points[k], float(masses[k]),
                           "boundary" if boundary[k] else "interior"))

    interpretation = "none"
    for _, mass, _ in candidates:
        if abs(mass - 8.0 * np.pi) <= 0.15 * 8.0 * np.pi:
            interpretation = "interior_like"
            break
        if abs(mass - 4.0 * np.pi) <= 0.15 * 4.0 * np.pi:
            interpretation = "boundary_like"
            break
    return BlowupDiagnostic(candidate_points=candidates,
                            interpretation=interpretation)


def continuation(model, basis, p_start, p_end, steps, u0=None):
    """Warm-started Newton along a straight parameter path.

    Stops early on resonance, Newton failure, or a sup-norm above the
    blow-up cap (potential concentration near a 4*pi multiple).
    """
    results = []
    u = field_values(u0)
    if u is None:
        u = np.zeros(model.mesh.num_vertices)
    count = partial(spectrum.bracket_index, basis.eigenvalues)
    for s in np.linspace(0.0, 1.0, steps + 1):
        p = Parameters(beta=(1 - s) * p_start.beta + s * p_end.beta,
                       rho=(1 - s) * p_start.rho + s * p_end.rho)
        try:
            topology.indices(p, model.area, count)
        except ResonanceError as exc:
            return results, f"resonance on path: {exc}"
        try:
            res = newton(model, u, p, damped=True,
                         seed_descriptor="continuation")
        except ConvergenceError as exc:
            return results, f"step rejected: {exc}"
        if np.abs(res.u.values).max() > BLOWUP_NORM_CAP:
            results.append(res)
            return results, "norm cap exceeded (potential concentration)"
        results.append(res)
        u = res.u.values
    return results, None


def _seed_configs(mesh, K, I):
    """Join points enumerating atom families with 2l + m <= K, sphere
    directions +-e_i, t in {0, 1/2, 1} and the scales SEED_LAMBDAS."""
    b_atom = boundary_atom(mesh)
    i_atom = interior_atom(mesh)
    measures = []
    for l in range(K // 2 + 1):
        for m in range(K - 2 * l + 1):
            if l + m == 0:
                continue
            ang = 2.0 * np.pi * np.arange(m) / max(m, 1)
            offsets = 0.3 * np.arange(m)[:, None] * np.column_stack(
                [np.cos(ang), np.sin(ang)])
            pts = np.concatenate([
                i_atom + 0.05 * np.arange(l)[:, None],
                meshmod.nearest_boundary_point(mesh, b_atom + offsets)])
            measures.append(make_measure(pts, [True] * l + [False] * m))
    sigmas = [v for e in np.eye(I) for v in (e, -e)]
    return [TestConfig(lam=lam, zeta=JoinPoint(measure=mu, sphere=sg, t=t))
            for lam in SEED_LAMBDAS for t in (0.0, 0.5, 1.0)
            for mu in (measures if t < 1.0 else [None])
            for sg in (sigmas if t > 0.0 else [None])]


def find_critical_point(mesh, p, flow_budget=300):
    """Multi-seed search for a nontrivial critical point.

    Seeds enumerate the concentration test family plus scaled eigenmodes;
    each in turn is smoothed by a short gradient flow and polished by
    damped Newton, until one gives a nontrivial state, which is returned
    (failing that, the first trivial one, or None).  I is `index_below` at
    beta, over the whole spectrum, and the basis the max(I, 2) eigenpairs
    that the I sphere directions and the mode seeds read.  K and I are
    each 0 only where they resonate themselves: at a resonance of J alone,
    where a branch leaves u = 0, the family stays.
    """
    model = EnergyFunctional.for_mesh(mesh)
    try:
        K = topology.concentration_index(p.rho)
    except ResonanceError:
        K = 0
    try:
        I = index_below(model, p.beta)
    except ResonanceError:
        I = 0
    basis = spectrum.eigenpairs(mesh, max(I, 2))

    seeds = [("zero", np.zeros(mesh.num_vertices))]
    for cfg in _seed_configs(mesh, K, I):
        name = f"family(lam={cfg.lam:g}, t={cfg.zeta.t:g})"
        seeds.append((name, phi_lambda(cfg, mesh, basis).values))
    for i in range(len(basis)):
        for s in (2.0, -2.0, 4.0):
            seeds.append((f"mode({i},{s:g})",
                          s * basis.eigenvectors[:, i]))

    pick = None
    for name, seed in seeds:
        trial = seed
        if flow_budget > 0 and np.any(seed):
            trial = flow(model, model.field(seed), p, flow_budget).u.values
        try:
            res = newton(model, trial, p, damped=True, max_iter=60,
                         seed_descriptor=name)
        except ConvergenceError:
            continue
        if res.classification == CLASS_NONTRIVIAL:
            pick = res
            break
        if res.classification == CLASS_TRIVIAL:
            pick = pick or res
    if pick is not None and pick.residual < 1e-6:
        try:
            pick.morse_index = morse_index_at(
                model, pick.u, p, count=mesh.num_vertices - 1)
        except ConvergenceError:
            pick.morse_index = None
    return pick
