"""Dense helpers for few-qubit density matrices.

Labeled density matrices, partial traces and validity checks.  All
operations are pure functions; matrices are treated as immutable values and
stored read-only.  Backed by numpy throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import NumericalError

CANONICAL_LABELS = ("A", "B", "C", "D")

_TOL_HERM = 1e-12
_TOL_TRACE = 1e-12
_PSD_SLACK = 1e-9


def _label_key(label: str) -> int:
    return CANONICAL_LABELS.index(label)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A density matrix together with the labels of its qubit tensor factors.

    ``labels`` names the qubits in tensor order; the first label is the most
    significant bit of the basis index, so for labels ``(A, B)`` the basis is
    ordered ``|00>, |01>, |10>, |11>`` with A the left slot.
    """

    matrix: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        labels = tuple(self.labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate qubit labels: {labels}")
        unknown = [lab for lab in labels if lab not in CANONICAL_LABELS]
        if unknown:
            raise ValueError(f"unknown qubit labels: {unknown}")
        dim = 2 ** len(labels)
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not fit {len(labels)} qubits")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "labels", labels)

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _trace_subscripts(labels: str, keep: str) -> tuple[str, str]:
    """einsum subscripts of a state over qubits ``labels`` and of its reduction to ``keep``.

    Each axis is named after its qubit: a ket index by the qubit's letter, a
    bra index by the same letter where the qubit is traced and by its lower
    case where it is kept.  The reduced state holds the kept qubits in the
    order ``keep`` gives them.
    """
    state = labels + "".join(lab.lower() if lab in keep else lab for lab in labels)
    return state, keep + keep.lower()


def _partial_trace_array(mats: np.ndarray, n_qubits: int, keep_positions: Sequence[int]) -> np.ndarray:
    """Partial trace on a (batch of) 2^n x 2^n matrices, kept slots in given order."""
    batch = mats.shape[:-2]
    tensor = mats.reshape(batch + (2,) * (2 * n_qubits))
    labels = "".join(CANONICAL_LABELS[:n_qubits])
    state, reduced = _trace_subscripts(labels, "".join(labels[p] for p in keep_positions))
    d = 2 ** len(keep_positions)
    return np.einsum(f"...{state}->...{reduced}", tensor).reshape(batch + (d, d))


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Trace out every qubit not in ``keep``; result labels follow A<B<C<D order."""
    kept = tuple(sorted(set(keep), key=_label_key))
    if not kept:
        raise ValueError("keep must name at least one qubit")
    missing = [lab for lab in kept if lab not in rho.labels]
    if missing:
        raise ValueError(f"labels {missing} not present in state {rho.labels}")
    positions = [rho.labels.index(lab) for lab in kept]
    reduced = _partial_trace_array(rho.matrix, rho.n_qubits, positions)
    return DensityMatrix(reduced, kept)


@dataclass(frozen=True)
class ValidationReport:
    """Deviations of a candidate density matrix from Hermiticity, unit trace and positivity."""

    hermiticity_deviation: float
    trace_deviation: float
    min_eigenvalue: float
    tol_herm: float
    tol_trace: float
    psd_slack: float

    @property
    def hermitian_ok(self) -> bool:
        return self.hermiticity_deviation <= self.tol_herm

    @property
    def trace_ok(self) -> bool:
        return self.trace_deviation <= self.tol_trace

    @property
    def psd_ok(self) -> bool:
        return self.min_eigenvalue >= -self.psd_slack

    @property
    def ok(self) -> bool:
        return self.hermitian_ok and self.trace_ok and self.psd_ok


def validate_density(
    rho: Union[DensityMatrix, np.ndarray],
    tol_herm: float = _TOL_HERM,
    tol_trace: float = _TOL_TRACE,
    psd_slack: float = _PSD_SLACK,
) -> ValidationReport:
    """Check Hermiticity, unit trace and positive semidefiniteness.

    Reports deviations rather than raising; callers decide what is fatal.
    The spectrum is taken of the Hermitian part so a tiny non-Hermitian
    residue cannot produce complex eigenvalues.
    """
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    return _validate_batch(mat[None], tol_herm, tol_trace, psd_slack)


def _validate_batch(
    mats: np.ndarray,
    tol_herm: float = _TOL_HERM,
    tol_trace: float = _TOL_TRACE,
    psd_slack: float = _PSD_SLACK,
) -> ValidationReport:
    """Worst-case validation over a batch of matrices stacked on leading axes.

    A NaN or infinite entry anywhere makes the Hermiticity deviation
    non-finite; such a batch is not handed to LAPACK, and its minimum
    eigenvalue is reported as NaN, so the report fails instead of raising.
    """
    adj, herm_dev, trace_dev = _deviations(mats)
    min_eig = float("nan")
    if math.isfinite(herm_dev):  # a float test, not another pass over the batch
        min_eig = float(np.linalg.eigvalsh((mats + adj) / 2.0).min().real)
    return ValidationReport(herm_dev, trace_dev, min_eig, tol_herm, tol_trace, psd_slack)


def _deviations(mats: np.ndarray) -> tuple[np.ndarray, float, float]:
    """The batch's adjoint, and its worst Hermiticity and trace deviations: the validation that needs no spectrum."""
    adj = mats.conj().swapaxes(-1, -2)
    with np.errstate(invalid="ignore"):  # inf - inf on the diagonal is a NaN that fails the bar
        herm_dev = float(np.abs(mats - adj).max())
    traces = np.einsum("...ii->...", mats)
    return adj, herm_dev, float(np.abs(traces - 1.0).max())


def _require_ok(report: ValidationReport, what: str) -> None:
    """Raise ``NumericalError`` naming ``what`` and its three margins unless ``report`` passes."""
    if not report.ok:
        raise NumericalError(
            f"{what} failed validation: "
            f"hermiticity {report.hermiticity_deviation:.3e}, trace {report.trace_deviation:.3e}, "
            f"min eigenvalue {report.min_eigenvalue:.3e}"
        )


def _require_valid(mats: np.ndarray, trace_slack: float, what: str) -> None:
    """Raise ``NumericalError`` naming ``what`` unless the batch passes validation, the trace
    bar widened by ``trace_slack`` (the mass a thermal truncation drops)."""
    _require_ok(_validate_batch(mats, tol_trace=_TOL_TRACE + trace_slack), what)
