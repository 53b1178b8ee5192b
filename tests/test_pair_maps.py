"""Unit tests for the two-atom channel maps E(|ik><jl|)."""

import numpy as np
import pytest

from dtcm.dynamics import FieldSpec, pair_map, pair_map_explicit

BITS = ((0, 0), (0, 1), (1, 0), (1, 1))
INDEX_PAIRS = [(i, k, j, l) for i, k in BITS for j, l in BITS]


def popcount(idx):
    return bin(idx).count("1")


def test_identity_at_tau_zero():
    for field in (FieldSpec.vacuum(), FieldSpec.fock(2)):
        for i, k, j, l in INDEX_PAIRS:
            E = pair_map(i, k, j, l, field, 0.0)
            expected = np.zeros((4, 4))
            expected[2 * i + k, 2 * j + l] = 1.0
            np.testing.assert_allclose(E, expected, atol=1e-15)


def test_trace_preservation():
    taus = np.linspace(0.0, 9.0, 25)
    for field in (FieldSpec.vacuum(), FieldSpec.fock(1), FieldSpec.fock(3)):
        for i, k, j, l in INDEX_PAIRS:
            E = pair_map(i, k, j, l, field, taus)
            traces = np.einsum("trr->t", E)
            expected = 1.0 if (i, k) == (j, l) else 0.0
            np.testing.assert_allclose(traces, expected, atol=1e-12)


def test_thermal_trace_deficit():
    # truncated thermal weights are not renormalized, so diagonal maps
    # under-trace by exactly the dropped tail mass
    field = FieldSpec.thermal(1.0)
    deficit = field.weight_deficit()
    assert 0.0 < deficit < 1e-9
    E = pair_map(1, 1, 1, 1, field, 2.2)
    np.testing.assert_allclose(np.trace(E).real, 1.0 - deficit, atol=1e-12)


def smallest_level(q, eps):
    """The smallest N with q**(N+1) <= eps, counted up from 0."""
    n = 0
    while q ** (n + 1) > eps:
        n += 1
    return n


@pytest.mark.parametrize(
    ("nbar", "eps", "level"),
    [(0.1, float(np.nextafter(0.1 / 1.1, 0.0)), 1), (1.0, 2.0**-29, 28)],
    ids=["estimate-below", "estimate-above"],
)
def test_truncation_level_corrects_its_log_estimate(nbar, eps, level):
    # ceil(log(eps)/log(q) - 1) rounds to 0 in the first case and to 29 in the second
    q = nbar / (1.0 + nbar)
    assert FieldSpec.thermal(nbar, eps).truncation_level() == smallest_level(q, eps) == level


def test_truncation_level_at_a_power_of_q_and_its_float_neighbours():
    for nbar in (0.1, 0.3, 1.0, 4.0):
        q = nbar / (1.0 + nbar)
        for k in (1, 2, 5, 17, 29):
            power = q**k
            for eps in (np.nextafter(power, 0.0), power, np.nextafter(power, 1.0)):
                assert FieldSpec.thermal(nbar, eps).truncation_level() == smallest_level(q, eps), (nbar, k, eps)


def test_max_photon_is_the_highest_weighted_level():
    assert FieldSpec.vacuum().max_photon() == 0
    assert FieldSpec.fock(0).max_photon() == 0
    assert FieldSpec.fock(3).max_photon() == 3
    thermal = FieldSpec.thermal(1.0)
    assert thermal.max_photon() == thermal.truncation_level() == thermal.weights()[0].max()


def test_hermiticity_pairing():
    taus = np.linspace(0.0, 7.0, 13)
    for field in (FieldSpec.vacuum(), FieldSpec.thermal(0.5)):
        for i, k, j, l in INDEX_PAIRS:
            E = pair_map(i, k, j, l, field, taus)
            F = pair_map(j, l, i, k, field, taus)
            np.testing.assert_allclose(E, np.conj(np.swapaxes(F, -1, -2)), atol=1e-14)


def test_excitation_sector_structure():
    # photon bookkeeping forces the change in atomic excitation on the ket
    # side to match the change on the bra side
    field = FieldSpec.thermal(1.0)
    for i, k, j, l in INDEX_PAIRS:
        E = pair_map(i, k, j, l, field, 1.37)
        for r in range(4):
            for c in range(4):
                if popcount(r) - popcount(2 * i + k) != popcount(c) - popcount(2 * j + l):
                    assert abs(E[r, c]) == 0.0


def test_explicit_matches_generic():
    taus = np.linspace(0.0, 11.0, 17)
    for field in (FieldSpec.vacuum(), FieldSpec.fock(2), FieldSpec.thermal(0.5)):
        for i, k, j, l in INDEX_PAIRS:
            generic = pair_map(i, k, j, l, field, taus)
            explicit = pair_map_explicit(i, k, j, l, field, taus)
            np.testing.assert_allclose(generic, explicit, atol=1e-12)


def test_frozen_vacuum_double_excitation():
    # at tau = pi/sqrt(6) the doubly excited pair over vacuum has fully
    # redistributed: 8/9 dropped to the ground pair, 1/9 left in place
    E = pair_map(1, 1, 1, 1, FieldSpec.vacuum(), np.pi / np.sqrt(6.0))
    np.testing.assert_allclose(E, np.diag([8.0 / 9.0, 0.0, 0.0, 1.0 / 9.0]), atol=1e-14)


def test_frozen_thermal_value():
    # pinned regression matrix
    E = pair_map(1, 0, 0, 1, FieldSpec.thermal(1.0), 0.8)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 0.2940268450466754
    expected[1, 1] = -0.17132529733877044
    expected[1, 2] = 0.37589325016853875
    expected[2, 1] = 0.2814561550957127
    expected[2, 2] = -0.17132529733877044
    expected[3, 3] = 0.04862374963086554
    np.testing.assert_allclose(E, expected, atol=1e-12)


def test_grid_matches_scalar():
    taus = np.array([0.0, 0.9, 2.4, 6.6])
    field = FieldSpec.fock(1)
    grid = pair_map(0, 1, 1, 0, field, taus)
    assert grid.shape == (4, 4, 4)
    for t, tau in enumerate(taus):
        np.testing.assert_allclose(grid[t], pair_map(0, 1, 1, 0, field, float(tau)), atol=0.0)


def test_input_validation():
    with pytest.raises(ValueError):
        pair_map(2, 0, 0, 0, FieldSpec.vacuum(), 1.0)
    with pytest.raises(ValueError):
        pair_map(0, 0, 0, 0, FieldSpec.vacuum(), -1.0)
    with pytest.raises(ValueError, match="^tau must be a scalar or a 1-d grid$"):
        pair_map(0, 0, 0, 0, FieldSpec.vacuum(), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="^unknown field kind 'laser'$"):
        FieldSpec("laser")
    with pytest.raises(ValueError):
        FieldSpec.thermal(-0.3)
    with pytest.raises(ValueError):
        FieldSpec.fock(-1)
    with pytest.raises(ValueError):
        FieldSpec.thermal(1.0, tail_mass_epsilon=1.5)
    with pytest.raises(ValueError, match=r"^thermal nbar 1e\+16 is too large: nbar/\(1\+nbar\) rounds to 1$"):
        FieldSpec.thermal(1e16)  # no truncation level would exist
