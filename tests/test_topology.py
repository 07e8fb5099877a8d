"""Index arithmetic, verdicts and homology ranks (exact integer checks)."""
import dataclasses
import json
import math
from functools import partial

import numpy as np
import pytest

from ksbench import topology
from ksbench.spectrum import bracket_index
from ksbench.energy import Parameters
from ksbench.errors import EmptySpaceError, ResonanceError

# First Neumann eigenvalues of the unit disk: squared zeros of Bessel J'_m.
DISK_LAMBDAS = [3.389992, 3.389992, 9.328089, 9.328089, 14.681971]
DISK_COUNT = partial(bracket_index, DISK_LAMBDAS)


def test_concentration_index():
    assert topology.concentration_index(13.0) == 1
    assert topology.concentration_index(1.0) == 0
    assert topology.concentration_index(30.0) == 2
    with pytest.raises(ResonanceError):
        topology.concentration_index(4.0 * math.pi)
    with pytest.raises(ResonanceError):
        topology.concentration_index(-3.0)


def test_indices_disk_fixture():
    p = Parameters(beta=-5.0, rho=13.0)
    K, I, J = topology.indices(p, math.pi, DISK_COUNT)
    assert (K, I, J) == (1, 2, 2)


def test_indices_coercive_square():
    square = [np.pi ** 2, np.pi ** 2, 2 * np.pi ** 2]
    p = Parameters(beta=1.0, rho=1.0)
    assert topology.indices(p, 1.0, partial(bracket_index, square)) \
        == (0, 0, 0)


def test_existence_verdict_examples():
    g = topology.VERDICT_GUARANTEED
    n = topology.VERDICT_NOT_GUARANTEED
    assert topology.existence_verdict(1, 2, 2, 0) == g
    assert topology.existence_verdict(0, 0, 0, 0) == n
    assert topology.existence_verdict(1, 0, 2, 1) == g


def test_existence_verdict_truth_table():
    for K in range(6):
        for I in range(6):
            for J in range(6):
                simply = topology.existence_verdict(K, I, J, 0)
                assert (simply == topology.VERDICT_GUARANTEED) \
                    == (2 * K + I != J)
                for genus in range(1, 4):
                    holed = topology.existence_verdict(K, I, J, genus)
                    assert (holed == topology.VERDICT_GUARANTEED) \
                        == ((K, I) != (0, J))


def test_homology_rank_examples():
    assert topology.homology_rank(2, 1, 0) == (4, 1)
    assert topology.homology_rank(1, 0, 2) == (1, 3)
    assert topology.homology_rank(0, 3, 2) == (2, 1)
    with pytest.raises(EmptySpaceError):
        topology.homology_rank(0, 0, 1)


def test_homology_rank_formula_exhaustive():
    for K in range(6):
        for I in range(6):
            if K == 0 and I == 0:
                continue
            for genus in range(4):
                degree, rank = topology.homology_rank(K, I, genus)
                if K == 0:
                    assert (degree, rank) == (I - 1, 1)
                else:
                    assert degree == 2 * K + I - 1
                    assert rank == math.comb(K + genus, genus)


def test_boundary_homology_band_and_top_degree():
    for K in range(1, 6):
        for g in range(1, 4):
            lo = max(K - 1, 2 * K - g - 1)
            hi = 2 * K - 1
            for q in range(-1, 2 * K + 3):
                rank = topology.boundary_barycenter_homology(q, K, g)
                if q < lo or q > hi:
                    assert rank == 0
                else:
                    assert rank == (math.comb(g + q - K + 1, g)
                                    * math.comb(g, 2 * K - q - 1))
            # Top degree feeds the weighted-space rank.
            assert topology.boundary_barycenter_homology(hi, K, g) \
                == math.comb(K + g, g)


def test_boundary_homology_spot_value():
    assert topology.boundary_barycenter_homology(2, 2, 1) == 2


def test_euler_characteristic():
    assert topology.euler_characteristic(3, 1) == 0
    assert topology.euler_characteristic(4, 2) == -2
    assert topology.euler_characteristic(2, 0) == 1
    for K in range(2, 6):
        for genus in range(1, 4):
            n = K // 2
            assert topology.euler_characteristic(K, genus) \
                == 1 - math.comb(n + genus - 1, genus - 1)
    with pytest.raises(ValueError):
        topology.euler_characteristic(1, 0)


def test_trivial_morse_index_equals_J():
    rng = np.random.default_rng(9)
    lam = [np.pi ** 2, np.pi ** 2, 2 * np.pi ** 2, 4 * np.pi ** 2]
    checked = 0
    while checked < 20:
        p = Parameters(beta=rng.uniform(-8, 3), rho=rng.uniform(0.5, 24))
        try:
            _, _, J = topology.indices(p, 1.0, partial(bracket_index, lam))
            idx = topology.trivial_morse_index(p, 1.0, lam)
        except ResonanceError:
            continue
        assert idx == J
        checked += 1


def test_condition_report_roundtrip_and_degenerate():
    p = Parameters(beta=-5.0, rho=13.0)
    rep = topology.condition_report(p, math.pi, DISK_COUNT, 0)
    assert rep.verdict == topology.VERDICT_GUARANTEED
    assert (rep.K, rep.I, rep.J) == (1, 2, 2)
    assert rep.homology_degree == 2 * rep.K + rep.I - 1
    assert rep.homology_rank == 1
    assert json.loads(rep.to_json()) == dataclasses.asdict(rep)

    degen = topology.condition_report(
        Parameters(beta=0.0, rho=4.0 * math.pi), math.pi, DISK_COUNT, 0)
    assert degen.verdict == topology.VERDICT_DEGENERATE
    assert degen.resonant_rho


def test_condition_report_labels_a_resonance_by_its_index():
    # A count function's own bare ResonanceError at beta, the threshold of
    # I, is a resonance of beta, not of rho; at beta - rho/|Omega|, the
    # threshold of J, one of the shifted parameter.
    p = Parameters(beta=-5.0, rho=13.0)

    def resonant_at(threshold):
        def count(t):
            if t == threshold:
                raise ResonanceError("injected resonance")
            return DISK_COUNT(t)
        return count

    for threshold, which in ((p.beta, "beta"),
                             (p.beta - p.rho / math.pi, "shifted")):
        rep = topology.condition_report(p, math.pi, resonant_at(threshold), 0)
        assert rep.verdict == topology.VERDICT_DEGENERATE
        assert (rep.resonant_rho, rep.resonant_beta, rep.resonant_shifted) \
            == (False, which == "beta", which == "shifted")
