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


def empty_table(monkeypatch):
    empty = np.zeros((51, 0))
    empty.setflags(write=False)
    monkeypatch.setattr(dynamics, "_COEFFICIENT_TABLE", empty)


def test_coefficient_table_rows_match_a_direct_build(monkeypatch):
    # start from an empty table, then grow it out of order, past a hot thermal
    # field's levels, and read a level that is already there
    empty_table(monkeypatch)
    hot, _ = dynamics.FieldSpec.thermal(16.0).weights()
    for ms in (np.array([5, 0, 2, 1]), hot, np.array([3])):
        direct = dynamics._coefficient_rows(np.arange(ms.max() + 1, dtype=float))[:, ms]
        freq, base, cos_w, sin_w = dynamics._coefficients(ms)
        read = np.concatenate([freq, base.reshape(16, -1), cos_w.reshape(16, -1), sin_w.reshape(16, -1)])
        assert read.tobytes() == direct.tobytes()
    assert dynamics._COEFFICIENT_TABLE.shape == (51, hot.max() + 1)


def test_a_high_fock_level_leaves_the_table_small(monkeypatch):
    empty_table(monkeypatch)
    pair, field = dynamics.BellPairSpec(dynamics.BellType.PSI, 0.6), dynamics.FieldSpec.fock(10**9)
    rho = dynamics.assemble_atomic_state(pair, pair, field, dynamics.FieldSpec.vacuum(), 1.3)
    assert np.isfinite(rho.matrix).all()
    assert dynamics._COEFFICIENT_TABLE.shape == (51, 1)  # the vacuum's level only


def test_rows_built_apart_match_the_tables(monkeypatch):
    # a level far past the table is built on its own, then read from the grown table
    empty_table(monkeypatch)
    high = np.array([1000])
    apart = dynamics._coefficients(high)
    assert dynamics._COEFFICIENT_TABLE.shape == (51, 0)
    dynamics._coefficients(np.arange(1001))
    assert dynamics._COEFFICIENT_TABLE.shape == (51, 1001)
    for a, b in zip(apart, dynamics._coefficients(high)):
        assert a.tobytes() == b.tobytes()


def test_a_narrower_build_never_replaces_a_wider_table(monkeypatch):
    # another thread publishes a wider table while this call builds its own
    empty_table(monkeypatch)
    wide = dynamics._coefficient_rows(np.arange(40.0))
    wide.setflags(write=False)
    build = dynamics._coefficient_rows

    def racing(m):
        dynamics._COEFFICIENT_TABLE = wide
        return build(m)

    monkeypatch.setattr(dynamics, "_coefficient_rows", racing)
    freq, _, _, sin_w = dynamics._coefficients(np.array([3, 9]))
    assert dynamics._COEFFICIENT_TABLE is wide
    assert freq.tobytes() == wide[:3, [3, 9]].tobytes()
    assert sin_w.reshape(16, 2).tobytes() == wide[35:, [3, 9]].tobytes()


def test_coefficient_table_cannot_be_changed_through_a_result():
    ms, taus = np.array([0, 1, 4]), np.array([0.7, 2.3])
    before = [a.copy() for a in dynamics._coefficients(ms)]
    table = dynamics._x_block_table(ms, taus).copy()
    for a in dynamics._coefficients(ms):
        try:
            a[...] = 7.0
        except ValueError:  # a read-only result is fine too
            pass
    assert not dynamics._COEFFICIENT_TABLE.flags.writeable
    for a, b in zip(dynamics._coefficients(ms), before):
        assert a.tobytes() == b.tobytes()
    assert dynamics._x_block_table(ms, taus).tobytes() == table.tobytes()


@pytest.mark.parametrize(
    "read", (dynamics._coefficients, lambda m: dynamics._x_block_table(m, np.array([0.5]))), ids=("coefficients", "x_block_table")
)
@pytest.mark.parametrize("ms", ([-1], [0, 2, -3], [1.5], [0.0, 1.0]), ids=str)
def test_photon_numbers_must_be_nonnegative_integers(read, ms):
    with pytest.raises(ValueError, match="nonnegative integers"):
        read(np.array(ms))


@pytest.mark.parametrize("empty", ([], np.array([], dtype=int)), ids=("list", "int-array"))
def test_no_photon_numbers_give_an_empty_table(empty):
    freq, base, _, _ = dynamics._coefficients(empty)
    assert freq.shape == (3, 0) and base.shape == (4, 4, 0)
    assert dynamics._x_block_table(empty, np.array([0.5, 1.0])).shape == (4, 4, 0, 2)
