"""Existence-criteria arithmetic: bracket indices, verdicts, homology ranks."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from functools import partial

from .errors import EmptySpaceError, ResonanceError
from .spectrum import bracket_index, resonance_tol

FOUR_PI = 4.0 * math.pi

VERDICT_GUARANTEED = "guaranteed_nontrivial"
VERDICT_NOT_GUARANTEED = "not_guaranteed"
VERDICT_DEGENERATE = "degenerate"


@dataclass
class ConditionReport:
    beta: float
    rho: float
    K: int
    I: int
    J: int
    genus: int
    resonant_rho: bool
    resonant_beta: bool
    resonant_shifted: bool
    verdict: str
    homology_rank: int
    homology_degree: int

    def to_json(self):
        return json.dumps(asdict(self), indent=2)


def concentration_index(rho):
    """K with 4*K*pi < rho < 4*(K+1)*pi; degenerate at multiples of 4*pi."""
    tol = resonance_tol(rho)
    if rho <= tol:
        raise ResonanceError("rho must be positive and away from 0")
    nearest = round(rho / FOUR_PI) * FOUR_PI
    if abs(rho - nearest) < tol:
        raise ResonanceError(f"rho = {rho} is within tolerance of 4*pi*N")
    return int(math.floor(rho / FOUR_PI))


def indices(p, area, count):
    """(K, I, J) of the bracketing conditions; ResonanceError when degenerate.

    count(threshold) is the number of nonconstant Neumann eigenvalues below
    -threshold, a ResonanceError where one resonates with it:
    `solver.index_below` over the whole spectrum, or `bracket_index` over
    computed eigenvalues.
    """
    return (_labelled("rho", concentration_index, p.rho),
            _labelled("beta", count, p.beta),
            _labelled("shifted", count, p.beta - p.rho / area))


def existence_verdict(K, I, J, genus):
    if genus == 0:
        ok = (2 * K + I) != J
    else:
        ok = (K, I) != (0, J)
    return VERDICT_GUARANTEED if ok else VERDICT_NOT_GUARANTEED


def homology_rank(K, I, genus):
    """(degree, rank) of the top reduced homology of the model join space."""
    if K == 0 and I == 0:
        raise EmptySpaceError("K = I = 0: coercive regime, low sublevels are empty")
    if K == 0:
        return I - 1, 1          # the model space is a sphere of dimension I-1
    return 2 * K + I - 1, math.comb(K + genus, genus)


def boundary_barycenter_homology(q, K, genus_circles):
    """Reduced homology rank of the boundary barycenter layer in degree q."""
    if K < 1:
        raise ValueError("K must be positive")
    g = genus_circles
    if q > 2 * K - 1 or q < max(K - 1, 2 * K - g - 1):
        return 0
    top1 = g + q - K + 1
    bot2 = 2 * K - q - 1
    if top1 < 0 or bot2 < 0 or bot2 > g:
        return 0
    return math.comb(top1, g) * math.comb(g, bot2)


def euler_characteristic(K, genus):
    """Euler characteristic of the weighted barycenter space, K >= 2."""
    if K < 2:
        raise ValueError("K must be at least 2")
    if genus >= 1:
        return 1 - math.comb(K // 2 + genus - 1, genus - 1)
    # Genus 0: chi = 1 - prod_{k=1..K//2} (k - chi(domain)) / (K//2)!, and
    # the k = 1 factor 1 - chi(domain) is 0 for a simply connected domain.
    return 1


def _labelled(which, index, threshold):
    """index(threshold), its ResonanceError labelled `which`."""
    try:
        return index(threshold)
    except ResonanceError as exc:
        raise ResonanceError(str(exc), which=which) from exc


def trivial_morse_index(p, area, eigenvalues):
    """Negative directions of the Hessian at u = 0: count of lambda_i + beta - rho/area < 0."""
    return _labelled("shifted", partial(bracket_index, eigenvalues),
                     p.beta - p.rho / area)


def condition_report(p, area, count, genus):
    """Full report, with the `count` of `indices`; resonances produce a
    degenerate verdict instead of raising."""
    resonance = None
    K = I = J = degree = rank = 0
    try:
        K, I, J = indices(p, area, count)
    except ResonanceError as exc:
        resonance = exc.which
        verdict = VERDICT_DEGENERATE
    else:
        verdict = existence_verdict(K, I, J, genus)
        try:
            degree, rank = homology_rank(K, I, genus)
        except EmptySpaceError:
            degree, rank = -1, 0
    return ConditionReport(beta=p.beta, rho=p.rho, K=K, I=I, J=J, genus=genus,
                           resonant_rho=resonance == "rho",
                           resonant_beta=resonance == "beta",
                           resonant_shifted=resonance == "shifted",
                           verdict=verdict,
                           homology_rank=rank, homology_degree=degree)
