"""Brute-force reference dynamics on a truncated Fock space.

Builds the resonant interaction Hamiltonian for one or two atoms sharing a
cavity mode, exponentiates it exactly through its eigendecomposition and
reduces the evolved state by plain numerical traces.  Deliberately literal:
no closed-form amplitudes and no selection rules enter anywhere, so this is
an independent check of the analytic pipeline.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import _PAIR_POSITIONS, Scenario
from .algebra import _partial_trace_array
from .concurrence import _concurrence_general_batch
from .dynamics import (
    BellPairSpec,
    BellType,
    FieldSpec,
    Model,
    _as_tau_grid,
    _assemble_djcm_grid,
    _assemble_dtcm_grid,
    _pair_weights,
)
from .errors import CutoffLeakageError

_LEAK_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class TruncatedHamiltonian:
    """Interaction Hamiltonian on atoms x Fock(0..n_max), with its basis labels.

    Basis order is (atom bits, photon number) with the photon index fastest;
    the first atom occupies the most significant bit.
    """

    matrix: np.ndarray
    n_max: int
    n_atoms: int
    coupling: float
    basis: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def build_tc_hamiltonian(n_max: int, n_atoms: int = 2, coupling: float = 1.0) -> TruncatedHamiltonian:
    """Resonant interaction Hamiltonian g * sum_i (a sigma_i^+ + a^dag sigma_i^-)."""
    if not isinstance(n_max, (int, np.integer)) or n_max < 1:
        raise ValueError("n_max must be an integer >= 1")
    if n_atoms not in (1, 2):
        raise ValueError("n_atoms must be 1 or 2")
    n_ph = n_max + 1
    dim = 2**n_atoms * n_ph
    H = np.zeros((dim, dim))

    def idx(bits: int, m: int) -> int:
        return bits * n_ph + m

    for bits in range(2**n_atoms):
        for m in range(n_ph):
            for atom in range(n_atoms):
                mask = 1 << (n_atoms - 1 - atom)
                if bits & mask:
                    if m + 1 <= n_max:  # a^dag sigma^-: the atom emits into the mode
                        H[idx(bits ^ mask, m + 1), idx(bits, m)] += coupling * np.sqrt(m + 1.0)
                else:
                    if m >= 1:  # a sigma^+: the atom absorbs from the mode
                        H[idx(bits ^ mask, m - 1), idx(bits, m)] += coupling * np.sqrt(float(m))
    basis = tuple(
        (tuple((bits >> (n_atoms - 1 - atom)) & 1 for atom in range(n_atoms)), m)
        for bits in range(2**n_atoms)
        for m in range(n_ph)
    )
    return TruncatedHamiltonian(H, int(n_max), int(n_atoms), float(coupling), basis)


def _evolution_grid(H: TruncatedHamiltonian, taus: np.ndarray) -> np.ndarray:
    """exp(-i H tau) for every grid point, via the Hermitian eigendecomposition."""
    w, V = np.linalg.eigh(H.matrix)
    phases = np.exp(-1j * np.outer(taus, w))
    return (V * phases[:, None, :]) @ V.conj().T


def evolution_operator(H: TruncatedHamiltonian, tau: float) -> np.ndarray:
    """Single-cavity evolution operator at one scaled time."""
    taus, _ = _as_tau_grid(float(tau))
    return _evolution_grid(H, taus)[0]


def _photon_numbers(H: TruncatedHamiltonian) -> np.ndarray:
    return np.array([m for _, m in H.basis])


def _top_level_population(rho: np.ndarray, H: TruncatedHamiltonian) -> float:
    """Population within one photon of the cutoff, summed over registers."""
    photons = _photon_numbers(H)
    near_top = photons >= H.n_max - 1
    diag = np.diag(rho).real
    if rho.shape[0] == H.dim:
        return float(diag[near_top].sum())
    # two registers: flag a basis state when either cavity index is near the top
    flags = near_top[:, None] | near_top[None, :]
    return float(diag[flags.reshape(-1)].sum())


def oracle_evolve(initial: np.ndarray, H: TruncatedHamiltonian, tau: float) -> np.ndarray:
    """Evolve a full-system density matrix by literal conjugation.

    ``initial`` may live on one cavity register (dim matching ``H``) or on
    two independent copies (squared dim, evolved under U x U).  Population
    within one photon of the cutoff raises: results there are not trustable.
    Size the truncation so the top two levels stay empty.
    """
    mat = np.asarray(initial, dtype=complex)
    U = evolution_operator(H, tau)
    if mat.shape == (H.dim, H.dim):
        evolved = U @ mat @ U.conj().T
    elif mat.shape == (H.dim**2, H.dim**2):
        U2 = np.kron(U, U)
        evolved = U2 @ mat @ U2.conj().T
    else:
        raise ValueError(f"state dim {mat.shape} fits neither one register ({H.dim}) nor two ({H.dim ** 2})")
    leak = _top_level_population(evolved, H)
    if leak > _LEAK_TOL:
        raise CutoffLeakageError(f"population {leak:.3e} within one photon of n_max={H.n_max}")
    return evolved


def _cavity_channel(U5: np.ndarray, field: FieldSpec, n_max: int) -> np.ndarray:
    """Numerically traced per-cavity map G[t, ket_out, bra_out, ket_in, bra_in].

    Contracts the evolution operator against itself over the emitted photon
    index and the input photon levels, each level weighted by the field
    distribution: per time, G = X X^dagger with X the (atoms out, atoms in)
    by (photon out, photon in) block of U, its columns scaled by the square
    roots of the photon probabilities.
    """
    ms, ps = field.weights()
    if int(ms.max()) > n_max:
        raise ValueError("field occupies levels beyond the cutoff")
    n_t, dim, n_ph = U5.shape[:3]
    G = np.empty((n_t, dim, dim, dim, dim), dtype=complex)  # [t, a, b, s, z]
    for t in range(n_t):
        X = (U5[t][:, :, :, ms] * np.sqrt(ps)).transpose(0, 2, 1, 3).reshape(dim * dim, n_ph * ms.size)
        G[t] = (X @ X.conj().T).reshape(dim, dim, dim, dim).transpose(0, 2, 1, 3)
    return G


def _channel_leak(U5: np.ndarray, field: FieldSpec, atom_probs: np.ndarray, n_max: int) -> float:
    """Worst-case population of the top two photon levels over the time grid."""
    ms, ps = field.weights()
    top = [n_max] if n_max < 1 else [n_max - 1, n_max]
    U_top = U5[:, :, top][:, :, :, :, ms]
    leak_t = np.einsum("tapsm,tapsm,m,s->t", U_top, U_top.conj(), ps, atom_probs).real
    return float(leak_t.max())


def oracle_atomic_grid(
    pair_ab: BellPairSpec,
    pair_cd: BellPairSpec,
    field_a: FieldSpec,
    field_b: FieldSpec,
    taus: np.ndarray,
    n_max: int,
    model: Model = Model.DTCM,
) -> np.ndarray:
    """Reduced atomic state over a time grid, computed without closed forms.

    Evolves each cavity register numerically, traces the photons and combines
    the two cavities through the initial superposition weights.  Output
    matches :func:`dtcm.dynamics.assemble_atomic_state` conventions: (T,16,16)
    over (A,B,C,D) for the two-pair layout, (T,4,4) over (A,B) otherwise.
    """
    n_atoms = 2 if model is Model.DTCM else 1
    H = build_tc_hamiltonian(n_max, n_atoms)
    U = _evolution_grid(H, taus)
    n_ph = n_max + 1
    dim_a = 2**n_atoms
    U5 = U.reshape(taus.size, dim_a, n_ph, dim_a, n_ph)

    if model is Model.DTCM:
        if pair_ab.bell_type is not pair_cd.bell_type:
            raise ValueError("both pairs must share the same Bell type")
        amp = _pair_weights(pair_ab, pair_cd)
        prime = np.array([3, 2, 1, 0]) if pair_ab.bell_type is BellType.PSI else np.arange(4)
    else:
        if pair_cd != pair_ab:
            raise ValueError("the single-pair layout has no (C,D) pair; pass pair_cd equal to pair_ab")
        a0, a1 = pair_ab.amplitudes()
        amp = np.array([a0, a1])
        prime = np.array([1, 0]) if pair_ab.bell_type is BellType.PSI else np.arange(2)

    # tracing the partner cavity leaves each register's atoms in a diagonal
    # mixture of the superposition branches
    probs_a = amp**2
    probs_b = probs_a[np.argsort(prime)]
    for fld, probs in ((field_a, probs_a), (field_b, probs_b)):
        leak = _channel_leak(U5, fld, probs, n_max)
        if leak > _LEAK_TOL:
            raise CutoffLeakageError(f"population {leak:.3e} within one photon of n_max={n_max}")

    Ga = _cavity_channel(U5, field_a, n_max)
    Gb = _cavity_channel(U5, field_b, n_max)
    Gbp = Gb[:, :, :, prime][:, :, :, :, prime]
    W = np.outer(amp, amp)
    rho = np.einsum("sz,trcsz,tuwsz->trucw", W, Ga, Gbp)
    if model is Model.DJCM:
        return rho.reshape(taus.size, 4, 4)
    rho = rho.reshape(taus.size, 2, 2, 2, 2, 2, 2, 2, 2)
    rho = rho.transpose(0, 1, 3, 2, 4, 5, 7, 6, 8)  # (A,C,B,D) -> (A,B,C,D)
    return rho.reshape(taus.size, 16, 16)


@dataclass(frozen=True)
class PipelineComparison:
    """Entrywise and concurrence-level agreement between the two pipelines."""

    max_state_deviation: float
    max_concurrence_deviation: float
    n_max: int
    n_tau: int

    def within(self, tol: float) -> bool:
        return self.max_state_deviation <= tol and self.max_concurrence_deviation <= tol


def _required_cutoff(field: FieldSpec) -> int:
    return field.max_photon() + 3


def compare_pipelines(
    scenario: Scenario,
    alpha: float,
    tau_grid: np.ndarray,
    n_max: int = 6,
) -> PipelineComparison:
    """Run the analytic assembly and the brute-force oracle on the same grid.

    Reports the largest entrywise difference of the reduced states and the
    largest difference of pairwise concurrences (computed by the general
    route on both sides, so no X-shape assumption enters the comparison).
    """
    required = max(_required_cutoff(scenario.field_a), _required_cutoff(scenario.field_b))
    if n_max < required:
        raise ValueError(f"n_max={n_max} too small for these fields; need at least {required}")
    taus, _ = _as_tau_grid(tau_grid)
    spec = BellPairSpec(scenario.bell_type, alpha)
    if scenario.model is Model.DTCM:
        analytic = _assemble_dtcm_grid(spec, spec, scenario.field_a, scenario.field_b, taus)
        pairs = ("AB", "CD", "AC", "BD")
    else:
        analytic = _assemble_djcm_grid(spec, scenario.field_a, scenario.field_b, taus)
        pairs = ("AB",)
    reference = oracle_atomic_grid(spec, spec, scenario.field_a, scenario.field_b, taus, n_max, scenario.model)
    state_dev = float(np.abs(analytic - reference).max())

    conc_dev = 0.0
    for pair in pairs:
        if scenario.model is Model.DTCM:
            red_a = _partial_trace_array(analytic, 4, _PAIR_POSITIONS[pair])
            red_o = _partial_trace_array(reference, 4, _PAIR_POSITIONS[pair])
        else:
            red_a, red_o = analytic, reference
        c_a = _concurrence_general_batch(red_a)
        c_o = _concurrence_general_batch(red_o)
        conc_dev = max(conc_dev, float(np.abs(c_a - c_o).max()))
    return PipelineComparison(state_dev, conc_dev, int(n_max), int(taus.size))
