"""Wootters concurrence for two-qubit states.

The general route diagonalizes rho (sigma_y x sigma_y) rho* (sigma_y x
sigma_y); for X-shaped density matrices (all entries outside the diagonal and
anti-diagonal vanish) the concurrence reduces to a two-term comparison of the
coherences against geometric means of populations, which is the fast path the
sweeps use.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

# sigma_y tensor sigma_y in the |00>,|01>,|10>,|11> basis
_YY = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)

# entries an X-shaped matrix may populate
_X_PATTERN = np.zeros((4, 4), dtype=bool)
for _i in range(4):
    _X_PATTERN[_i, _i] = True
    _X_PATTERN[_i, 3 - _i] = True

_SPECTRUM_TOL = 1e-8  # negative/complex eigenvalue slack before declaring failure

_X_SHAPE_TOL = 1e-10  # largest off-pattern magnitude an X-shaped state may carry


def _single_matrix(rho: np.ndarray) -> np.ndarray:
    """``rho`` as one 4x4 array; stacks are for the batch routes."""
    mat = np.asarray(rho)
    if mat.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    return mat


@dataclass(frozen=True)
class XFormMatrix:
    """The six independent entries of an X-shaped two-qubit density matrix.

    ``populations`` are the diagonal entries in the standard basis order
    |00>, |01>, |10>, |11>; ``outer`` is the <00|rho|11> coherence and
    ``inner`` the <01|rho|10> coherence.
    """

    populations: tuple[float, float, float, float]
    outer: complex
    inner: complex

    def __post_init__(self) -> None:
        pops = tuple(float(p) for p in self.populations)
        if len(pops) != 4:
            raise ValueError("populations must hold four entries")
        coherences = (complex(self.outer), complex(self.inner))
        if not np.all(np.isfinite(pops + coherences)):
            raise ValueError("populations and coherences must be finite")
        slack = 1e-9
        if min(pops) < -slack:
            raise ValueError(f"negative population {min(pops)}")
        if abs(sum(pops) - 1.0) > slack:
            raise ValueError(f"populations sum to {sum(pops)}, not 1")
        # positivity of the two 2x2 minors, with rounding slack
        if abs(self.outer) ** 2 > pops[0] * pops[3] + slack:
            raise ValueError("outer coherence exceeds its population bound")
        if abs(self.inner) ** 2 > pops[1] * pops[2] + slack:
            raise ValueError("inner coherence exceeds its population bound")
        object.__setattr__(self, "populations", pops)
        object.__setattr__(self, "outer", coherences[0])
        object.__setattr__(self, "inner", coherences[1])

    @classmethod
    def from_matrix(cls, rho: np.ndarray, tol: float = _X_SHAPE_TOL) -> "XFormMatrix":
        """Extract the X entries, rejecting matrices that are not X-shaped."""
        mat = _single_matrix(rho)
        deviation = x_pattern_deviation(mat)
        if not deviation <= tol:  # a NaN deviation is not X-shaped either
            raise ValueError(f"matrix is not X-shaped: off-pattern magnitude {deviation:.3e}")
        return cls(
            populations=tuple(mat[i, i].real for i in range(4)),
            outer=complex(mat[0, 3]),
            inner=complex(mat[1, 2]),
        )


def x_pattern_deviation(rho: np.ndarray) -> float:
    """Largest magnitude found outside the diagonal/anti-diagonal pattern."""
    mat = np.asarray(rho)
    off = np.abs(mat[..., ~_X_PATTERN])
    return float(off.max()) if off.size else 0.0


def is_x_form(rho: np.ndarray, tol: float = _X_SHAPE_TOL) -> bool:
    """True when every entry outside the X pattern is below ``tol`` in magnitude."""
    mat = np.asarray(rho)
    if mat.shape[-2:] != (4, 4):
        raise ValueError("expected 4x4 matrices")
    return x_pattern_deviation(mat) <= tol


def concurrence_x(x: XFormMatrix) -> float:
    """Concurrence of an X-shaped state from its six independent entries."""
    return float(_x_concurrence(np.array(x.populations), x.outer, x.inner))


def _x_concurrence(populations: np.ndarray, outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """X-form concurrence 2 max(0, |rho_12| - sqrt(p0 p3), |rho_03| - sqrt(p1 p2)), vectorized.

    ``populations`` holds the real diagonal on its last axis (|00>, |01>,
    |10>, |11>); ``outer`` is <00|rho|11> and ``inner`` <01|rho|10>.
    """
    p = np.clip(populations, 0.0, None)
    inner_term = np.abs(inner) - np.sqrt(p[..., 0] * p[..., 3])
    outer_term = np.abs(outer) - np.sqrt(p[..., 1] * p[..., 2])
    return np.clip(2.0 * np.maximum(0.0, np.maximum(inner_term, outer_term)), 0.0, 1.0)


def _concurrence_x_batch(mats: np.ndarray) -> np.ndarray:
    """Vectorized X-form concurrence over matrices stacked on leading axes."""
    return _x_concurrence(np.diagonal(mats, axis1=-2, axis2=-1).real, mats[..., 0, 3], mats[..., 1, 2])


def concurrence_general(rho: np.ndarray) -> float:
    """Concurrence of an arbitrary two-qubit density matrix.

    The defining quantity is the decreasingly ordered spectrum of
    rho (sigma_y x sigma_y) rho* (sigma_y x sigma_y); its square roots are
    computed here as the singular values of sqrt(rho) YY sqrt(rho)*, an
    exactly equivalent Hermitian factorization that stays accurate when the
    spectrum degenerates (a direct non-Hermitian eigensolve loses half the
    digits there).  Raises on inputs that are non-Hermitian or carry negative
    population beyond tolerance.
    """
    return float(_concurrence_general_batch(_single_matrix(rho)[None])[0])


def _concurrence_general_batch(mats: np.ndarray) -> np.ndarray:
    """Vectorized general concurrence over matrices stacked on leading axes."""
    mats = np.asarray(mats, dtype=complex)
    adj = mats.conj().swapaxes(-1, -2)
    herm_dev = float(np.abs(mats - adj).max())
    if herm_dev > _SPECTRUM_TOL:
        raise NumericalError(f"input is not Hermitian: deviation {herm_dev:.3e}")
    herm = (mats + adj) / 2.0
    w, V = np.linalg.eigh(herm)
    if float(w.min()) < -_SPECTRUM_TOL:
        raise NumericalError(f"negative population beyond tolerance: {w.min():.3e}")
    root = (V * np.sqrt(np.maximum(w, 0.0))[..., None, :]) @ V.conj().swapaxes(-1, -2)
    K = root @ _YY @ root.conj()
    sigma = np.linalg.svd(K, compute_uv=False)  # descending
    c = sigma[..., 0] - sigma[..., 1] - sigma[..., 2] - sigma[..., 3]
    return np.clip(c, 0.0, 1.0)
