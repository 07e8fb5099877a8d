"""The concentration test family: bubble profiles plus an eigenmode tail.

A bubble of scale s around atoms x_k is log sum_k t_k / (1 + s^2 |x-x_k|^2)^2,
sampled at mesh vertices.  The full family combines a zero-meaned bubble at
scale Lambda*(1-t) with a sqrt(log+(Lambda*t))-sized combination of the first
I eigenmodes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mesh as meshmod
from .barycenter import BarycenterMeasure, JoinPoint
from .energy import EnergyFunctional, Field
from .errors import RefinementNeededError


@dataclass(eq=False)
class TestConfig:
    lam: float               # overall scale Lambda >= 1
    zeta: JoinPoint


def log_plus(s):
    """max(0, log s), with log+(s) = 0 for s <= 1."""
    return float(np.log(max(s, 1.0)))


def bubble_values(mu, scale, mesh):
    """Raw (not zero-meaned) bubble vertex values."""
    if scale <= 0.0:
        return np.zeros(mesh.num_vertices)
    d2 = ((mesh.vertices[:, None, :] - mu.points[None, :, :]) ** 2).sum(axis=2)
    return np.log((mu.weights[None, :] / (1.0 + scale ** 2 * d2) ** 2).sum(axis=1))


def bubble(mu, scale, mesh):
    """Zero-meaned bubble field."""
    model = EnergyFunctional.for_mesh(mesh)
    return model.field(bubble_values(mu, scale, mesh))


def bubble_mean(mu, scale, mesh):
    """Domain average of the raw bubble (drifts like -4 log scale)."""
    model = EnergyFunctional.for_mesh(mesh)
    return model.integral(bubble_values(mu, scale, mesh)) / mesh.area


def eigen_tail(sigma, t_scale, basis):
    """sqrt(log+(t_scale)) times the unit eigenmode combination sigma."""
    sigma = np.asarray(sigma, dtype=float)
    I = len(sigma)
    if I > len(basis):
        raise ValueError("sigma has more entries than available eigenpairs")
    return np.sqrt(log_plus(t_scale)) * (basis.eigenvectors[:, :I] @ sigma)


def phi_lambda(cfg, mesh, basis):
    """Test field for the join point cfg.zeta at overall scale cfg.lam."""
    z = cfg.zeta
    lam, t = cfg.lam, z.t
    model = EnergyFunctional.for_mesh(mesh)
    vals = np.zeros(mesh.num_vertices)
    if t < 1.0 and z.measure is not None:
        vals += model.project_zero_mean(
            bubble_values(z.measure, lam * (1.0 - t), mesh))
    if t > 0.0 and z.sphere is not None:
        vals += eigen_tail(z.sphere, lam * t, basis)
    return Field(mesh, model.project_zero_mean(vals))


def dirichlet_energy(mesh, values):
    model = EnergyFunctional.for_mesh(mesh)
    return float(values @ (model.stiffness @ values))


def check_resolution(mesh, scales):
    h = meshmod.min_edge_length(mesh)
    smax = max(scales)
    if 1.0 / smax < 2.0 * h:
        raise RefinementNeededError(
            f"bubble core 1/{smax:g} under-resolved: min edge length {h:g}")


def dirichlet_slope(mu, scales, mesh):
    """Least-squares slope of the bubble Dirichlet energy against log scale.

    One boundary atom contributes 16*pi to the slope, one interior atom
    32*pi.  Errors out when the finest core is below twice the minimum edge
    length.
    """
    if len(scales) < 3:
        raise ValueError("need at least 3 scales")
    check_resolution(mesh, scales)
    energies = [dirichlet_energy(mesh, bubble_values(mu, s, mesh))
                for s in scales]
    return float(np.polyfit(np.log(np.asarray(scales, float)), energies, 1)[0])


def mt_probe(u, compactly_supported):
    """log int e^u minus the sharp multiple of the Dirichlet energy.

    The multiple is 1/(16*pi) for fields vanishing on the boundary and
    1/(8*pi) otherwise; the statistic is bounded above when the
    corresponding exponential-integrability inequality holds.
    """
    model = EnergyFunctional.for_mesh(u.mesh)
    vals = u.values
    if compactly_supported:
        if np.abs(vals[u.mesh.boundary_vertex_flags]).max(initial=0.0) > 1e-12:
            raise ValueError("field does not vanish on the boundary")
        c = 1.0 / (16.0 * np.pi)
    else:
        c = 1.0 / (8.0 * np.pi)
    return model.log_int_exp(vals) - c * dirichlet_energy(u.mesh, vals)


def exp_lower_statistic(cfg, mesh, basis, c):
    """log int e^Phi - 2 log+(Lambda(1-t)) + c sqrt(log+(Lambda t)); bounded below."""
    model = EnergyFunctional.for_mesh(mesh)
    u = phi_lambda(cfg, mesh, basis)
    lam, t = cfg.lam, cfg.zeta.t
    return (model.log_int_exp(u.values) - 2.0 * log_plus(lam * (1.0 - t))
            + c * np.sqrt(log_plus(lam * t)))


def l2_upper_statistic(cfg, mesh, basis, c):
    """log+(Lambda t) + c sqrt(log+(Lambda t)) - int Phi^2; bounded below."""
    model = EnergyFunctional.for_mesh(mesh)
    u = phi_lambda(cfg, mesh, basis)
    lam, t = cfg.lam, cfg.zeta.t
    sq = float(u.values @ (model.mass @ u.values))
    lp = log_plus(lam * t)
    return lp + c * np.sqrt(lp) - sq


def boundary_atom(mesh):
    """A deterministic boundary vertex away from any boundary corner.

    Corners (vertices where adjacent boundary edges turn sharply) distort
    the local cone angle and with it every per-atom energy constant, so the
    fixture vertex maximizes the distance to the nearest corner; on smooth
    discrete boundaries (no corners) the first boundary vertex is used.
    """
    a, b = mesh.boundary_edges.T
    pts = mesh.vertices
    # Boundary vertex nodes[i] is entered by edge into[i] and left by
    # edge out[i]: each is the head of one edge and the tail of another.
    out, into = np.argsort(a), np.argsort(b)
    nodes = a[out]
    e_in = pts[b[into]] - pts[a[into]]
    e_out = pts[b[out]] - pts[a[out]]
    cosang = (np.einsum("ij,ij->i", e_in, e_out)
              / (np.linalg.norm(e_in, axis=1) * np.linalg.norm(e_out, axis=1)))
    corners = nodes[np.arccos(np.clip(cosang, -1.0, 1.0)) > 0.2]
    if len(corners) == 0:
        return pts[nodes[0]].copy()
    d2 = ((pts[nodes][:, None, :] - pts[corners][None, :, :]) ** 2).sum(axis=2)
    return pts[nodes[int(np.argmax(d2.min(axis=1)))]].copy()


def interior_atom(mesh):
    """The vertex farthest from the boundary, the first one on a tie.

    Bound, then project: with d0 the distance to the nearest boundary-
    segment midpoint and L the longest segment, d0 - L/2 <= d <= d0.  A
    farthest vertex therefore has d0 >= max(d0) - L/2, and only the
    vertices that pass this test (padded against rounding as the ball of
    `boundary_distances` is) get their exact distance.
    """
    _, d0, half = meshmod._midpoint_bounds(mesh, mesh.vertices)
    keep = np.flatnonzero((d0 + half) * (1.0 + 1e-9) + 1e-12 >= d0.max())
    d = meshmod.boundary_distances(mesh, mesh.vertices[keep])
    return mesh.vertices[keep[int(np.argmax(d))]].copy()


def make_measure(points, interior_flags, weights=None):
    points = np.atleast_2d(points)
    if weights is None:
        weights = np.full(len(points), 1.0 / len(points))
    weights = np.asarray(weights, dtype=float)
    return BarycenterMeasure(points=points, weights=weights / weights.sum(),
                             interior=np.asarray(interior_flags, bool))
