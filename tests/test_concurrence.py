"""Unit tests for the two-qubit concurrence routines."""

import numpy as np
import pytest

from dtcm.concurrence import (
    XFormMatrix,
    concurrence_general,
    concurrence_x,
    is_x_form,
    x_pattern_deviation,
)
from dtcm.errors import NumericalError


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_x_state(rng):
    pops = rng.dirichlet(np.ones(4))
    inner = rng.uniform(0.0, 1.0) * np.sqrt(pops[1] * pops[2]) * np.exp(2j * np.pi * rng.uniform())
    outer = rng.uniform(0.0, 1.0) * np.sqrt(pops[0] * pops[3]) * np.exp(2j * np.pi * rng.uniform())
    return XFormMatrix(tuple(pops), outer=outer, inner=inner)


def as_matrix(x):
    rho = np.diag(np.array(x.populations, dtype=complex))
    rho[0, 3], rho[3, 0] = x.outer, np.conj(x.outer)
    rho[1, 2], rho[2, 1] = x.inner, np.conj(x.inner)
    return rho


def test_bell_states_are_maximal():
    half = (0.0, 0.5, 0.5, 0.0)
    for sign in (0.5, -0.5):
        assert concurrence_x(XFormMatrix(half, outer=0.0, inner=sign)) == pytest.approx(1.0)
    full = (0.5, 0.0, 0.0, 0.5)
    for sign in (0.5, -0.5):
        assert concurrence_x(XFormMatrix(full, outer=sign, inner=0.0)) == pytest.approx(1.0)


def test_product_state_is_zero():
    assert concurrence_x(XFormMatrix((1.0, 0.0, 0.0, 0.0), outer=0.0, inner=0.0)) == 0.0
    assert concurrence_x(XFormMatrix((0.25, 0.25, 0.25, 0.25), outer=0.0, inner=0.0)) == 0.0


def test_werner_family():
    # singlet fraction p: entangled only above p = 1/3
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        pops = ((1 - p) / 4.0, (1 + p) / 4.0, (1 + p) / 4.0, (1 - p) / 4.0)
        c = concurrence_x(XFormMatrix(pops, outer=0.0, inner=-p / 2.0))
        np.testing.assert_allclose(c, max(0.0, (3.0 * p - 1.0) / 2.0), atol=1e-15)


def test_xform_validation():
    with pytest.raises(ValueError):
        XFormMatrix((0.5, 0.5, 0.0, 0.0), outer=0.0, inner=0.3)  # coherence too large
    with pytest.raises(ValueError):
        XFormMatrix((0.7, 0.5, 0.0, 0.0), outer=0.0, inner=0.0)  # trace off
    with pytest.raises(ValueError):
        XFormMatrix((-0.1, 0.6, 0.25, 0.25), outer=0.0, inner=0.0)  # negative population
    with pytest.raises(ValueError, match="^populations must hold four entries$"):
        XFormMatrix((0.5, 0.25, 0.25), outer=0.0, inner=0.0)
    with pytest.raises(ValueError, match="^outer coherence exceeds its population bound$"):
        XFormMatrix((0.25, 0.25, 0.25, 0.25), outer=0.3, inner=0.0)


@pytest.mark.parametrize(
    ("populations", "outer", "inner"),
    [
        ((np.nan, 0.0, 0.0, 0.0), 0.0, 0.0),
        ((1.0, 0.0, 0.0, np.inf), 0.0, 0.0),
        ((0.5, 0.0, 0.0, 0.5), complex(np.nan, 0.0), 0.0),
        ((0.5, 0.0, 0.0, 0.5), 0.0, complex(0.0, np.inf)),
    ],
    ids=["nan-population", "inf-population", "nan-outer", "inf-inner"],
)
def test_xform_rejects_non_finite_entries(populations, outer, inner):
    with pytest.raises(ValueError, match="^populations and coherences must be finite$"):
        XFormMatrix(populations, outer=outer, inner=inner)


def test_from_matrix_rejects_a_nan_matrix():
    with pytest.raises(ValueError, match="^matrix is not X-shaped: off-pattern magnitude nan$"):
        XFormMatrix.from_matrix(np.full((4, 4), np.nan))


def test_from_matrix_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = random_x_state(rng)
        back = XFormMatrix.from_matrix(as_matrix(x))
        np.testing.assert_allclose(back.populations, x.populations, atol=1e-14)
        np.testing.assert_allclose(back.inner, x.inner, atol=1e-14)
        np.testing.assert_allclose(back.outer, x.outer, atol=1e-14)


@pytest.mark.parametrize("shape", [(3, 3), (5, 2, 2), (16,)])
def test_x_checks_reject_matrices_that_are_not_4x4(shape):
    for check in (x_pattern_deviation, is_x_form):
        with pytest.raises(ValueError, match="expected 4x4 matrices"):
            check(np.zeros(shape))


def test_x_pattern_detection():
    rng = np.random.default_rng(4)
    x = as_matrix(random_x_state(rng))
    assert is_x_form(x)
    assert x_pattern_deviation(x) == 0.0
    spoiled = x.copy()
    spoiled[0, 1] = 1e-3
    assert not is_x_form(spoiled)
    np.testing.assert_allclose(x_pattern_deviation(spoiled), 1e-3, atol=1e-18)
    assert is_x_form(spoiled, tol=1e-2)
    with pytest.raises(ValueError):
        XFormMatrix.from_matrix(spoiled)


def test_general_matches_x_route():
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = random_x_state(rng)
        np.testing.assert_allclose(
            concurrence_general(as_matrix(x)), concurrence_x(x), atol=1e-12
        )


def test_general_matches_direct_spectrum():
    # independent reference: eigenvalues of rho (yy) rho* (yy), textbook form
    yy = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]])).real
    rng = np.random.default_rng(6)
    for _ in range(200):
        rho = random_density(rng, 4)
        lam = np.linalg.eigvals(rho @ yy @ rho.conj() @ yy)
        roots = np.sort(np.sqrt(np.clip(lam.real, 0.0, None)))
        expected = max(0.0, roots[3] - roots[2] - roots[1] - roots[0])
        np.testing.assert_allclose(concurrence_general(rho), expected, atol=1e-10)


def test_pure_state_formula():
    rng = np.random.default_rng(7)
    for _ in range(100):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        expected = 2.0 * abs(v[0] * v[3] - v[1] * v[2])
        np.testing.assert_allclose(
            concurrence_general(np.outer(v, v.conj())), expected, atol=1e-12
        )


def random_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_local_unitary_invariance():
    rng = np.random.default_rng(8)
    for _ in range(50):
        rho = random_density(rng, 4)
        u = np.kron(random_unitary(rng), random_unitary(rng))
        rotated = u @ rho @ u.conj().T
        np.testing.assert_allclose(
            concurrence_general(rotated), concurrence_general(rho), atol=1e-10
        )


def test_bit_flip_symmetry():
    # sigma_x on both qubits reverses the diagonal and conjugates the
    # coherences; the concurrence cannot change
    rng = np.random.default_rng(9)
    for _ in range(50):
        x = random_x_state(rng)
        flipped = XFormMatrix(
            tuple(reversed(x.populations)), outer=np.conj(x.outer), inner=np.conj(x.inner)
        )
        np.testing.assert_allclose(concurrence_x(flipped), concurrence_x(x), atol=1e-15)


def test_rejects_unphysical_input():
    with pytest.raises(ValueError):
        concurrence_general(np.eye(3))
    skew = np.eye(4) / 4.0 + np.array([[0, 1e-3, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(NumericalError):
        concurrence_general(skew)
    with pytest.raises(NumericalError):
        concurrence_general(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))


# the maximally mixed state, real, and with an imaginary coherence that keeps it on the complex route
_MIXED = np.eye(4) / 4.0
_MIXED_WITH_PHASE = _MIXED + np.array([[0, 0.1j, 0, 0], [-0.1j, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])


@pytest.mark.parametrize(
    ("base", "entry", "bad"),
    [
        pytest.param(_MIXED.astype(complex), (1, 1), np.nan, id="diagonal"),
        pytest.param(_MIXED.astype(complex), (0, 3), np.nan, id="off-diagonal"),
        pytest.param(_MIXED_WITH_PHASE, (1, 1), np.nan, id="complex-diagonal"),
        pytest.param(_MIXED, (1, 1), np.nan, id="real-diagonal"),
        pytest.param(_MIXED, (0, 3), np.nan, id="real-off-diagonal"),
        pytest.param(_MIXED_WITH_PHASE, (1, 1), np.inf, id="complex-inf-diagonal"),
        pytest.param(_MIXED.astype(complex), (1, 1), np.inf, id="complex-typed-inf-diagonal"),
        pytest.param(_MIXED, (1, 1), np.inf, id="real-inf-diagonal"),
    ],
)
def test_a_nan_entry_fails_the_bars_before_the_eigensolve(base, entry, bad):
    # inf - inf on the diagonal is a NaN deviation too, not a RuntimeWarning
    rho = base.copy()
    rho[entry] = bad
    with pytest.raises(NumericalError, match="not Hermitian: deviation nan"):
        concurrence_general(rho)


def test_result_is_clipped():
    # tiny negative populations within tolerance must not leak through roots
    rho = np.diag([1.0 + 5e-9, -5e-9, 0.0, 0.0]).astype(complex)
    c = concurrence_general(rho)
    assert 0.0 <= c <= 1.0


def random_real_density(rng, rank):
    a = rng.normal(size=(4, rank))
    rho = a @ a.T
    return rho / np.trace(rho)


def test_real_werner_family():
    phi_plus = np.zeros((4, 4))
    phi_plus[np.ix_([0, 3], [0, 3])] = 0.5
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        rho = p * phi_plus + (1.0 - p) * np.eye(4) / 4.0
        np.testing.assert_allclose(concurrence_general(rho), max(0.0, (3.0 * p - 1.0) / 2.0), atol=1e-12)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_real_route_matches_the_complex_route(rank):
    # a complex local unitary keeps the concurrence and moves the state off the real route
    rng = np.random.default_rng(20 + rank)
    for _ in range(50):
        rho = random_real_density(rng, rank)
        u = np.kron(random_unitary(rng), random_unitary(rng))
        rotated = u @ rho @ u.conj().T
        assert np.abs(rotated.imag).max() > 1e-3
        np.testing.assert_allclose(concurrence_general(rho), concurrence_general(rotated), atol=1e-10)


def test_complex_typed_real_state_takes_the_real_route():
    rng = np.random.default_rng(30)
    for rank in (1, 2, 3, 4):
        rho = random_real_density(rng, rank)
        assert concurrence_general(rho.astype(complex)) == concurrence_general(rho)


def test_integer_and_list_input():
    assert concurrence_general(np.diag([1, 0, 0, 0])) == 0.0
    bell = [[0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.5]]
    assert concurrence_general(bell) == pytest.approx(1.0, abs=1e-12)


def test_real_non_symmetric_input_is_not_hermitian():
    skew = np.eye(4) / 4.0
    skew[0, 1] = 1e-3
    with pytest.raises(NumericalError, match="not Hermitian"):
        concurrence_general(skew)
