"""Unit tests for the two-atom transition amplitudes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtcm import dynamics
from dtcm.dynamics import XCoefficientKey, x_coeff

BITS = ((0, 0), (0, 1), (1, 0), (1, 1))


def block_norm(i, k, m, tau):
    """Total outgoing probability from initial pair state (i, k)."""
    return sum(abs(x_coeff(XCoefficientKey(i, k, p, q, m, tau))) ** 2 for p, q in BITS)


def test_tau_zero_is_identity():
    for i, k in BITS:
        for m in (0, 1, 4):
            for p, q in BITS:
                expected = 1.0 if (p, q) == (0, 0) else 0.0
                value = x_coeff(XCoefficientKey(i, k, p, q, m, 0.0))
                np.testing.assert_allclose(value, expected, atol=1e-15)


def test_double_flip_half_period_checkpoint():
    # both atoms excited over vacuum: at tau = pi/sqrt(6) the no-flip
    # amplitude collapses to 1/3 and the double flip reaches -2 sqrt(2)/3
    tau = np.pi / np.sqrt(6.0)
    stay = x_coeff(XCoefficientKey(1, 1, 0, 0, 0, tau))
    both = x_coeff(XCoefficientKey(1, 1, 1, 1, 0, tau))
    single = x_coeff(XCoefficientKey(1, 1, 0, 1, 0, tau))
    np.testing.assert_allclose(stay, 1.0 / 3.0, atol=1e-15)
    np.testing.assert_allclose(both, -2.0 * np.sqrt(2.0) / 3.0, atol=1e-15)
    np.testing.assert_allclose(single, 0.0, atol=1e-15)


def test_frozen_values():
    # regression anchors, evaluated once and pinned
    cases = [
        ((1, 1, 0, 0, 2, 1.3), 0.636221583580242 + 0.0j),
        ((0, 1, 0, 1, 0, 0.9), -0.6759406316242673j),
        ((0, 1, 1, 0, 3, 2.1), -0.462907216382261j),
        ((1, 0, 0, 1, 1, 0.4), -0.3390027109650445j),
        ((0, 0, 1, 1, 4, 1.7), -0.0014904891228852885 + 0.0j),
        ((0, 0, 0, 0, 0, 5.0), 1.0 + 0.0j),
    ]
    for key, expected in cases:
        np.testing.assert_allclose(x_coeff(XCoefficientKey(*key)), expected, atol=1e-12)


def test_normalization_small_grid():
    taus = np.linspace(0.0, 18.0, 11)
    for i, k in BITS:
        for m in (0, 1, 2, 7):
            for tau in taus:
                np.testing.assert_allclose(block_norm(i, k, m, float(tau)), 1.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(min_value=0, max_value=80), tau=st.floats(min_value=0.0, max_value=40.0))
def test_normalization_property(m, tau):
    X = dynamics._x_block_table(np.array([m]), np.array([tau]))
    norms = np.sum(np.abs(X) ** 2, axis=1)[:, 0, 0]
    np.testing.assert_allclose(norms, np.ones(4), atol=1e-12)


def test_ground_pair_needs_photons():
    # an empty cavity leaves two ground atoms alone; with one photon the
    # double-absorption branch is still closed
    for tau in (0.3, 1.1, 2.9):
        assert x_coeff(XCoefficientKey(0, 0, 0, 0, 0, tau)) == 1.0
        for p, q in BITS[1:]:
            assert x_coeff(XCoefficientKey(0, 0, p, q, 0, tau)) == 0.0
        assert x_coeff(XCoefficientKey(0, 0, 1, 1, 1, tau)) == 0.0
        assert abs(x_coeff(XCoefficientKey(0, 0, 0, 1, 1, tau))) > 0.0


def test_mirror_symmetry():
    # the two single-excitation states are images of each other under
    # swapping which atom is excited, so their amplitudes swap flips
    for m in (0, 2, 5):
        for tau in (0.4, 1.7, 3.3):
            for p, q in BITS:
                a = x_coeff(XCoefficientKey(0, 1, p, q, m, tau))
                b = x_coeff(XCoefficientKey(1, 0, q, p, m, tau))
                np.testing.assert_allclose(a, b, atol=1e-15)


def test_emission_dominates_absorption():
    # emission couples to m+1 photons, absorption to m
    for m in (0, 1, 3, 10):
        for tau in (0.5, 1.9):
            emit = abs(x_coeff(XCoefficientKey(0, 1, 0, 1, m, tau)))
            take = abs(x_coeff(XCoefficientKey(0, 1, 1, 0, m, tau)))
            assert emit >= take


def test_key_validation():
    with pytest.raises(ValueError):
        XCoefficientKey(2, 0, 0, 0, 0, 1.0)
    with pytest.raises(ValueError):
        XCoefficientKey(0, 0, 0, -1, 0, 1.0)
    with pytest.raises(ValueError):
        XCoefficientKey(0, 0, 0, 0, -1, 1.0)
    with pytest.raises(ValueError):
        XCoefficientKey(0, 0, 0, 0, 0, -0.5)
    with pytest.raises(ValueError):
        XCoefficientKey(0, 0, 0, 0, 0, np.nan)


def test_a_high_fock_level_leaves_the_table_small():
    pair, field = dynamics.BellPairSpec(dynamics.BellType.PSI, 0.6), dynamics.FieldSpec.fock(10**9)
    rho = dynamics.assemble_atomic_state(pair, pair, field, dynamics.FieldSpec.vacuum(), 1.3)
    assert np.isfinite(rho.matrix).all()
    n, rung = dynamics._ladder(np.array([10**9]), dynamics._EXCITED)
    assert n.tolist() == [10.0**9, 10.0**9 + 1, 10.0**9 + 2] and rung.tolist() == [[0], [1], [1], [2]]


def test_coefficient_table_cannot_be_changed_through_a_result():
    ms, taus = np.array([0, 1, 4]), np.array([0.7, 2.3])
    table = dynamics._x_block_table(ms, taus)
    before = table.copy()
    table[...] = 7.0
    assert dynamics._x_block_table(ms, taus).tobytes() == before.tobytes()


@pytest.mark.parametrize(
    "table", (dynamics._x_block_table, dynamics._y_block_table), ids=("x_block_table", "y_block_table")
)
@pytest.mark.parametrize("ms", ([-1], [0, 2, -3], [1.5], [0.0, 1.0]), ids=str)
def test_photon_numbers_must_be_nonnegative_integers(table, ms):
    with pytest.raises(ValueError, match="nonnegative integers"):
        table(np.array(ms), np.array([0.5]))


@pytest.mark.parametrize("empty", ([], np.array([], dtype=int)), ids=("list", "int-array"))
def test_no_photon_numbers_give_an_empty_table(empty):
    assert dynamics._x_block_table(empty, np.array([0.5, 1.0])).shape == (4, 4, 0, 2)
    assert dynamics._y_block_table(empty, np.array([0.5, 1.0])).shape == (2, 2, 0, 2)


# ---------------------------------------------------------------------------
# The table as three photon-number families computed it, before the weights
# and frequencies were written in the excitation number N = m + e: family f
# (0 for a ground pair, 1 for one excitation, 2 for two) at level m is N = m + f.
# ---------------------------------------------------------------------------

FAMILY = np.array([0, 1, 1, 2])


def family_rows(m):
    rows = np.zeros((51, m.size))
    freq = rows[:3]
    base, cos_w, sin_w = rows[3:].reshape(3, 4, 4, m.size)
    freq[2] = np.sqrt(2.0 * (2.0 * m + 3.0))
    base[3, 0] = 1.0
    cos_w[3, 0] = (m + 1.0) / (2.0 * m + 3.0)
    sin_w[3, 1] = sin_w[3, 2] = -np.sqrt((m + 1.0) / (2.0 * (2.0 * m + 3.0)))
    cos_w[3, 3] = np.sqrt((m + 1.0) * (m + 2.0)) / (2.0 * m + 3.0)
    freq[1] = np.sqrt(2.0 * (2.0 * m + 1.0))
    emit = -np.sqrt((m + 1.0) / (2.0 * (2.0 * m + 1.0)))
    absorb = -np.sqrt(m / (2.0 * (2.0 * m + 1.0)))
    for pair_in, own, other in ((1, 1, 2), (2, 2, 1)):
        base[pair_in, 0] = 1.0
        cos_w[pair_in, 0] = cos_w[pair_in, 3] = 0.5
        sin_w[pair_in, own] = emit
        sin_w[pair_in, other] = absorb
    base[0, 0] = 1.0
    live = m >= 1.0
    n = m[live]
    freq[0, live] = np.sqrt(2.0 * (2.0 * n - 1.0))
    cos_w[0, 0, live] = n / (2.0 * n - 1.0)
    sin_w[0, 1, live] = sin_w[0, 2, live] = -np.sqrt(n / (2.0 * (2.0 * n - 1.0)))
    cos_w[0, 3, live] = np.sqrt(n * (n - 1.0)) / (2.0 * n - 1.0)
    return rows


def family_table(m, tau):
    rows = family_rows(np.asarray(m, dtype=float))
    freq, (base, cos_w, sin_w) = rows[:3], rows[3:].reshape(3, 4, 4, -1)
    angles = freq[:, :, None] * tau
    X = np.empty(base.shape + tau.shape)
    even, odd = X[:, ::3], X[:, 1:3]
    np.multiply(cos_w[:, ::3, :, None], (np.cos(angles) - 1.0)[FAMILY][:, None], out=even)
    even += base[:, ::3, :, None]
    np.multiply(sin_w[:, 1:3, :, None], np.sin(angles)[FAMILY][:, None], out=odd)
    return X


LEVELS = {
    "vacuum": dynamics.FieldSpec.vacuum().weights()[0],
    "fock0": np.array([0]),
    "fock1": np.array([1]),
    "fock2": np.array([2]),
    "fock5": np.array([5]),
    "0..34": np.arange(35),
    "3..8": np.arange(3, 9),
    "[0,2,7]": np.array([0, 2, 7]),
    "[7,0,3]": np.array([7, 0, 3]),
    "0..299": np.arange(300),
    "1e6": np.array([10**6]),
    "empty": np.array([], dtype=int),
    "thermal16": dynamics.FieldSpec.thermal(16.0).weights()[0],
}


@pytest.mark.parametrize("n_tau", (0, 1, 7, 120))
@pytest.mark.parametrize("levels", LEVELS, ids=str)
def test_excitation_number_table_has_the_family_tables_bits(levels, n_tau):
    m, tau = LEVELS[levels], np.linspace(0.37, 40.0, n_tau)
    table, reference = dynamics._x_block_table(m, tau), family_table(m, tau)
    assert table.shape == reference.shape and table.tobytes() == reference.tobytes()


def one_atom_table(m, tau):
    # the one-atom route before the shared ladder: cos and -sin per N = m + i
    low = int(m.min())
    angles = np.sqrt(np.arange(low, int(m.max()) + 2, dtype=float))[:, None] * tau
    c, s = np.cos(angles), np.sin(angles)
    Y = np.empty((2, 2, m.size, tau.size))
    for i in (0, 1):
        level = m - low + i
        Y[i, 0] = c[level]
        Y[i, 1] = -s[level]
    return Y


@pytest.mark.parametrize("n_tau", (0, 1, 7, 120))
@pytest.mark.parametrize("levels", [name for name in LEVELS if LEVELS[name].size], ids=str)
def test_one_atom_table_has_the_per_state_routes_bits(levels, n_tau):
    m, tau = LEVELS[levels], np.linspace(0.37, 40.0, n_tau)
    table, reference = dynamics._y_block_table(m, tau), one_atom_table(m, tau)
    assert table.shape == reference.shape and table.tobytes() == reference.tobytes()
