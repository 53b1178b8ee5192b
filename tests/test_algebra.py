"""Unit tests for the density-matrix tensor utilities."""

import numpy as np
import pytest

from dtcm.algebra import DensityMatrix, _require_valid, _validate_batch, partial_trace, validate_density
from dtcm.errors import NumericalError


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_density_matrix_validation():
    good = np.eye(4) / 4.0
    dm = DensityMatrix(good, ("A", "B"))
    assert dm.n_qubits == 2 and dm.dim == 4
    with pytest.raises(ValueError):
        DensityMatrix(good, ("A", "A"))
    with pytest.raises(ValueError):
        DensityMatrix(good, ("A", "E"))
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(3), ("A", "B"))
    with pytest.raises(ValueError):
        DensityMatrix(good, ("A",))
    # stored matrix is read-only
    with pytest.raises(ValueError):
        dm.matrix[0, 0] = 2.0


def test_partial_trace_product_state():
    rng = np.random.default_rng(8)
    rho_ab = random_density(rng, 4)
    rho_cd = random_density(rng, 4)
    joint = DensityMatrix(np.kron(rho_ab, rho_cd), ("A", "B", "C", "D"))
    np.testing.assert_allclose(partial_trace(joint, ("A", "B")).matrix, rho_ab, atol=1e-14)
    np.testing.assert_allclose(partial_trace(joint, ("C", "D")).matrix, rho_cd, atol=1e-14)


def test_partial_trace_brute_force():
    rng = np.random.default_rng(9)
    rho = DensityMatrix(random_density(rng, 16), ("A", "B", "C", "D"))
    reduced = partial_trace(rho, ("B", "D"))
    assert reduced.labels == ("B", "D")

    expected = np.zeros((4, 4), dtype=complex)
    for b_r in range(2):
        for d_r in range(2):
            for b_c in range(2):
                for d_c in range(2):
                    total = 0.0
                    for a in range(2):
                        for c in range(2):
                            row = (a << 3) | (b_r << 2) | (c << 1) | d_r
                            col = (a << 3) | (b_c << 2) | (c << 1) | d_c
                            total += rho.matrix[row, col]
                    expected[(b_r << 1) | d_r, (b_c << 1) | d_c] = total
    np.testing.assert_allclose(reduced.matrix, expected, atol=1e-15)


def test_partial_trace_canonical_order():
    rng = np.random.default_rng(10)
    rho = DensityMatrix(random_density(rng, 16), ("A", "B", "C", "D"))
    reduced = partial_trace(rho, ("D", "A"))
    assert reduced.labels == ("A", "D")
    np.testing.assert_allclose(np.trace(reduced.matrix), 1.0, atol=1e-14)


def test_partial_trace_errors():
    rng = np.random.default_rng(12)
    rho = DensityMatrix(random_density(rng, 4), ("A", "B"))
    with pytest.raises(ValueError):
        partial_trace(rho, ())
    with pytest.raises(ValueError):
        partial_trace(rho, ("C",))


def test_validate_density_reports():
    report = validate_density(np.eye(4) / 4.0)
    assert report.ok and report.hermitian_ok and report.trace_ok and report.psd_ok

    off_trace = validate_density(np.eye(4) / 3.9)
    assert not off_trace.trace_ok and off_trace.hermitian_ok

    skew = np.eye(2) / 2.0 + np.array([[0.0, 1e-6], [-1e-6, 0.0]])
    assert not validate_density(skew).hermitian_ok

    indefinite = validate_density(np.diag([1.5, -0.5, 0.0, 0.0]))
    assert not indefinite.psd_ok
    np.testing.assert_allclose(indefinite.min_eigenvalue, -0.5, atol=1e-12)

    # slack tolerances are honored
    loose = validate_density(np.diag([1.5, -0.5, 0.0, 0.0]), psd_slack=0.6, tol_trace=0.1)
    assert loose.ok


@pytest.mark.parametrize(
    ("bad", "cell", "dtype"),
    [
        pytest.param(np.nan, (2, 3), complex, id="nan"),
        pytest.param(np.inf, (2, 3), complex, id="inf"),
        pytest.param(complex(np.inf, np.nan), (2, 3), complex, id="inf-nan"),
        pytest.param(np.inf, (2, 2), complex, id="inf-diagonal-complex"),
        pytest.param(np.inf, (2, 2), float, id="inf-diagonal-real"),
    ],
)
def test_validation_of_a_non_finite_batch_fails_without_lapack(bad, cell, dtype):
    # one non-finite cell in the second matrix: no eigensolve, a NaN minimum
    # eigenvalue, and a NumericalError that names the case; inf - inf on the
    # diagonal is a NaN deviation, not a RuntimeWarning
    mats = np.repeat(np.eye(4, dtype=dtype)[None] / 4.0, 3, axis=0)
    mats[(1, *cell)] = bad
    report = _validate_batch(mats)
    assert not np.isfinite(report.hermiticity_deviation)
    assert np.isnan(report.min_eigenvalue) and not report.psd_ok and not report.ok
    with pytest.raises(NumericalError, match=r"^probe state failed validation: hermiticity (nan|inf), .* min eigenvalue nan$"):
        _require_valid(mats, 0.0, "probe state")
