"""Critical-point search: gradient flow, damped Newton, Morse indices and
blow-up diagnostics."""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla
from scipy.spatial import cKDTree

from . import mesh as meshmod
from . import topology
from .bubbles import (TestConfig, boundary_atom, interior_atom, make_measure,
                      phi_lambda)
from .barycenter import JoinPoint
from .energy import EnergyFunctional, Field
from .errors import ConvergenceError, ResonanceError

NEWTON_TOL = 1e-10
FLOW_TOL = 1e-6
BLOWUP_NORM_CAP = 1e3

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

    def to_json_dict(self, p=None):
        out = {
            "residual": self.residual,
            "energy": self.energy,
            "classification": self.classification,
            "morse_index": self.morse_index,
            "iterations": self.iterations,
            "seed": self.seed_descriptor,
            "field": [float(x) for x in self.u.values],
        }
        if p is not None:
            out["beta"] = p.beta
            out["rho"] = p.rho
        return out


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


def flow(model, seed, p, step_budget, flow_tol=FLOW_TOL):
    """Explicit gradient descent with adaptive steps.

    Steps are halved on energy increase and grown by 1.2 on decrease; the
    energy is non-increasing across accepted steps.  Terminates at residual
    below flow_tol or when the budget runs out.
    """
    u = model.project_zero_mean(seed.values if isinstance(seed, Field) else seed)
    ev = model.evaluate(u, p)
    e, g, gnorm = ev.energy, ev.gradient, ev.gradient_norm
    dt = 0.1
    it = 0
    while it < step_budget and gnorm > flow_tol:
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
            return SolveResult(u=Field(model.mesh, u), residual=gnorm,
                               energy=e, classification=CLASS_DIVERGED,
                               morse_index=None, iterations=it)
    cls = _classify(model, u, gnorm, p, flow_tol)
    return SolveResult(u=Field(model.mesh, u), residual=gnorm, energy=e,
                       classification=cls, morse_index=None, iterations=it)


class _ZeroMeanHessianSolver:
    """Factorized shifted Hessian H - sigma M on the zero-mean space.

    The constraint is imposed by bordering A0 - sigma M with the
    mass-weighted constant; the rank-one part of the Hessian is folded in by
    the Woodbury identity.  The solve maps the constant mode to zero.
    """

    def __init__(self, model, u, p, sigma=0.0):
        A0, c, w = model.hessian_operator(u, p)
        self._hessian = (A0, c, w)
        n = A0.shape[0]
        self._lu = spla.splu(model._bordered_hessian(A0, sigma))
        self._c = c
        self._w = np.concatenate([w, [0.0]])
        self._n = n
        y = self._lu.solve(self._w)
        self._denom = 1.0 + c * (self._w @ y)
        self._y = y
        if abs(self._denom) < 1e-14:
            raise ConvergenceError("singular Hessian (degenerate critical point)")

    def apply(self, v):
        """The unshifted Hessian action A0 v + c w (w . v)."""
        A0, c, w = self._hessian
        return A0 @ v + c * w * (w @ v)

    def solve(self, rhs):
        b = np.concatenate([rhs, [0.0]])
        x = self._lu.solve(b)
        x = x - (self._c * (self._w @ x) / self._denom) * self._y
        return x[:self._n]


def newton(model, u0, p, tol=NEWTON_TOL, max_iter=30, damped=False,
           seed_descriptor="zero"):
    """Newton iteration on the mass-represented gradient.

    Converges quadratically near nondegenerate critical points (saddles
    included).  With damped=True a residual-norm backtracking line search
    makes distant seeds usable.
    """
    u = model.project_zero_mean(u0.values if isinstance(u0, Field) else u0)
    ev = model.evaluate(u, p)
    gnorm = ev.gradient_norm
    tol_abs = tol * max(1.0, gnorm)
    it = 0
    while gnorm > tol_abs and it < max_iter:
        try:
            hess = _ZeroMeanHessianSolver(model, u, p)
            delta = hess.solve(-ev.residual)
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


def _lowest_eigenvalues(model, u, p, count):
    """The lowest `count` (at most V - 2) eigenvalues, ascending, of the
    Hessian on the zero-mean space, H v = lambda M v with mean(v) = 0.

    Shift-invert Lanczos through the bordered factorization of H - sigma M,
    with sigma below the whole spectrum, so that the eigenvalues nearest
    sigma are the lowest.
    """
    n = len(u)
    # H = K + beta M - (rho/W) E + (rho/W^2) w w^T with K >= 0, W = sum(w),
    # E the shifted exp-weighted mass matrix.  The midpoint rule is exact
    # for squares of P1 functions, so v^T E v <= max_q e^(u_q - s) v^T M v,
    # and Cauchy-Schwarz gives (w^T v)^2 <= W v^T E v.  For either sign of
    # rho this yields H >= (beta - |rho| max_q e^(u_q - s) / W) M; the
    # vertex maximum of e^(u - s) / W (exp_density) bounds the midpoint one.
    sigma = p.beta - abs(p.rho) * float(model.exp_density(u).max()) - 1.0
    hess = _ZeroMeanHessianSolver(model, u, p, sigma=sigma)
    H = spla.LinearOperator((n, n), matvec=hess.apply, dtype=float)
    OPinv = spla.LinearOperator((n, n), matvec=hess.solve, dtype=float)
    # A fixed zero-mean start vector makes the eigenvalues reproducible; the
    # bordered solve maps the constant mode to zero, so it must be avoided.
    v0 = model.project_zero_mean(np.random.default_rng(0).standard_normal(n))
    try:
        vals = spla.eigsh(H, k=min(count, n - 2), M=model.mass, sigma=sigma,
                          OPinv=OPinv, which="LM", v0=v0,
                          return_eigenvectors=False)
    except spla.ArpackError as exc:
        raise ConvergenceError(f"Morse eigensolve failed: {exc}") from exc
    return np.sort(vals)


def morse_index_at(model, u, p, count, eig_guard=1e-8):
    """Negative Hessian directions at a critical point, among the lowest `count`.

    The eigenvalues come from shift-invert Lanczos on the zero-mean space
    with the shift sigma = beta - |rho| max(e^u / int e^u) - 1, below the
    spectrum (see `_lowest_eigenvalues`).  Errors out when the
    smallest-magnitude eigenvalue is below the guard (non-Morse point).
    """
    u = u.values if isinstance(u, Field) else u
    vals = _lowest_eigenvalues(model, u, p, count)
    if np.abs(vals).min() < eig_guard:
        raise ConvergenceError(
            "near-zero Hessian eigenvalue: critical point is not Morse")
    return int(np.sum(vals < 0.0))


def local_mass(model, u, p, radius):
    """Blow-up diagnostic: candidate concentration points and their local mass.

    Each candidate is a local maximum of e^u whose density exceeds twice the
    uniform level; its mass fraction in a radius-ball is scaled by rho and
    matched against the boundary (4*pi) and interior (8*pi) quantization
    values within 15%.
    """
    mesh = model.mesh
    u = u.values if isinstance(u, Field) else u
    density = model.exp_density(u)

    tri = mesh.triangles
    n = mesh.num_vertices
    nbr_max = np.full(n, -np.inf)
    for a, b in itertools.permutations(range(3), 2):
        np.maximum.at(nbr_max, tri[:, a], u[tri[:, b]])
    peaks = np.flatnonzero((u >= nbr_max) & (density > 2.0 / mesh.area))
    peaks = peaks[np.argsort(-u[peaks])]

    weights = mesh.lumped_masses() * density
    weights /= weights.sum()
    tree = cKDTree(mesh.vertices)
    taken = np.zeros(n, bool)
    candidates = []
    for idx in peaks:
        if taken[idx]:
            continue
        ball = tree.query_ball_point(mesh.vertices[idx], radius)
        taken[ball] = True
        mass = p.rho * weights[ball].sum()
        bdist = meshmod.boundary_distances(mesh, mesh.vertices[idx][None])[0]
        tag = "boundary" if bdist < radius / 4.0 else "interior"
        candidates.append((mesh.vertices[idx].copy(), float(mass), tag))

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


def continuation(model, basis, p_start, p_end, steps, u0=None,
                 tol=NEWTON_TOL):
    """Warm-started Newton along a straight parameter path.

    Stops early on resonance, Newton failure, or a sup-norm above the
    blow-up cap (potential concentration near a 4*pi multiple).
    """
    from .energy import Parameters

    results = []
    u = (u0.values if isinstance(u0, Field) else u0)
    if u is None:
        u = np.zeros(model.mesh.num_vertices)
    lam = basis.eigenvalues
    for s in np.linspace(0.0, 1.0, steps + 1):
        p = Parameters(beta=(1 - s) * p_start.beta + s * p_end.beta,
                       rho=(1 - s) * p_start.rho + s * p_end.rho)
        try:
            topology.indices(p, model.area, lam)
        except ResonanceError as exc:
            return results, f"resonance on path: {exc}"
        try:
            res = newton(model, u, p, tol=tol, damped=True,
                         seed_descriptor="continuation")
        except ConvergenceError as exc:
            return results, f"step rejected: {exc}"
        if np.abs(res.u.values).max() > BLOWUP_NORM_CAP:
            results.append(res)
            return results, "norm cap exceeded (potential concentration)"
        results.append(res)
        u = res.u.values
    return results, None


def _seed_configs(mesh, basis, K, I, lambdas=(30.0, 100.0)):
    """Join points enumerating atom families with 2l + m <= K, sphere
    directions +-e_i, and t in {0, 1/2, 1}."""
    b_atom = boundary_atom(mesh)
    i_atom = interior_atom(mesh)
    measures = []
    for l in range(K // 2 + 1):
        for m in range(K - 2 * l + 1):
            if l + m == 0:
                continue
            pts, flags = [], []
            for j in range(l):
                pts.append(i_atom + 0.05 * j)
                flags.append(True)
            for j in range(m):
                ang = 2.0 * np.pi * j / max(m, 1)
                pts.append(meshmod.nearest_boundary_point(
                    mesh, b_atom + 0.3 * j * np.array([np.cos(ang), np.sin(ang)])))
                flags.append(False)
            measures.append(make_measure(np.array(pts), flags))
    sigmas = []
    for i in range(I):
        e = np.zeros(I)
        e[i] = 1.0
        sigmas.extend([e, -e])
    configs = []
    ts = [0.0, 0.5, 1.0]
    for lam in lambdas:
        for t in ts:
            if t < 1.0 and not measures:
                continue
            mus = measures if t < 1.0 else [None]
            sgs = sigmas if t > 0.0 else [None]
            if t > 0.0 and not sigmas:
                continue
            for mu in mus:
                for sg in sgs:
                    configs.append(TestConfig(
                        lam=lam, zeta=JoinPoint(measure=mu, sphere=sg, t=t)))
    return configs


def find_critical_point(mesh, basis, p, flow_budget=300,
                        extra_seeds=(), dedup_tol=1e-3):
    """Multi-seed search for a nontrivial critical point.

    Seeds enumerate the concentration test family plus scaled eigenmodes;
    each is smoothed by a short gradient flow and polished by damped Newton.
    Distinct solutions are deduplicated by H1 distance; a nontrivial one is
    preferred.
    """
    model = EnergyFunctional.for_mesh(mesh)
    try:
        K, I, _ = topology.indices(p, model.area, basis.eigenvalues)
    except ResonanceError:
        K, I = 0, 0

    seeds = [("zero", np.zeros(mesh.num_vertices))]
    for cfg in _seed_configs(mesh, basis, K, I):
        name = f"family(lam={cfg.lam:g}, t={cfg.zeta.t:g})"
        seeds.append((name, phi_lambda(cfg, mesh, basis).values))
    for i in range(min(len(basis), max(I, 2))):
        for s in (2.0, -2.0, 4.0):
            seeds.append((f"mode({i},{s:g})",
                          s * basis.eigenvectors[:, i]))
    seeds.extend(extra_seeds)

    found = []
    for name, seed in seeds:
        trial = seed
        if flow_budget > 0 and np.any(seed):
            trial = flow(model, model.field(seed), p, flow_budget).u.values
        try:
            res = newton(model, trial, p, damped=True, max_iter=60,
                         seed_descriptor=name)
        except ConvergenceError:
            continue
        if res.classification == CLASS_DIVERGED:
            continue
        if any(model.h1_norm(res.u.values - r.u.values) < dedup_tol
               for r in found):
            continue
        found.append(res)
        if res.classification == CLASS_NONTRIVIAL:
            break
    nontrivial = [r for r in found if r.classification == CLASS_NONTRIVIAL]
    pick = nontrivial[0] if nontrivial else (found[0] if found else None)
    if pick is not None and pick.residual < 1e-6:
        try:
            pick.morse_index = morse_index_at(
                model, pick.u, p, count=min(8, mesh.num_vertices - 2))
        except ConvergenceError:
            pick.morse_index = None
    return pick, found
