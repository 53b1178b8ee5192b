"""Brute-force reference dynamics on a truncated Fock space.

Builds the resonant interaction Hamiltonian for one or two atoms sharing a
cavity mode as its operator sum, exponentiates it exactly through its
eigendecomposition and reduces the evolved state by plain numerical traces.
Deliberately literal: the start state is written out from explicit Bell
vectors, and no closed-form amplitudes, selection rules or preparation
weights enter anywhere, so this is an independent check of the analytic
pipeline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .analysis import _PAIR_POSITIONS, Scenario, _check_grid, _model_pairs, sweep_pairs
from .algebra import _partial_trace_array
from .concurrence import _concurrence_general_batch
from .dynamics import (
    BellPairSpec,
    BellType,
    FieldSpec,
    Model,
    _as_tau_grid,
    _assemble_grid,
    _channels,
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
    basis: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _check_n_max(n_max: int) -> None:
    """A photon cutoff is an integer (not a bool) of at least 1."""
    if not isinstance(n_max, (int, np.integer)) or isinstance(n_max, bool) or n_max < 1:
        raise ValueError("n_max must be an integer >= 1")


def build_tc_hamiltonian(n_max: int, n_atoms: int = 2) -> TruncatedHamiltonian:
    """Resonant interaction Hamiltonian sum_i (a sigma_i^+ + a^dag sigma_i^-).

    The coupling is 1: every time in the package is the scaled time tau = g t.
    """
    _check_n_max(n_max)
    if n_atoms not in (1, 2):
        raise ValueError("n_atoms must be 1 or 2")
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])  # sigma^-: |1> -> |0>
    create = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), -1)  # a^dag: |m> -> sqrt(m+1) |m+1>
    dim = 2**n_atoms * (n_max + 1)
    H = np.zeros((dim, dim))
    for atom in range(n_atoms):
        sigma = np.kron(np.kron(np.eye(2**atom), lower), np.eye(2 ** (n_atoms - 1 - atom)))
        term = np.kron(sigma, create)  # a^dag sigma_i^-: the atom emits into the mode
        H += term + term.T  # its adjoint a sigma_i^+: the atom absorbs from the mode
    basis = tuple((bits, m) for bits in product((0, 1), repeat=n_atoms) for m in range(n_max + 1))
    return TruncatedHamiltonian(H, int(n_max), int(n_atoms), basis)


# A map build evolves the grid in chunks of taus holding at most this many
# complex cells of exp(-i H tau), or one tau where one operator alone holds more.
_CHUNK_CELLS = 2**16


def _spectrum(H: TruncatedHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """The Hermitian eigendecomposition ``(w, V)`` of ``H``, from which every evolution is taken."""
    return np.linalg.eigh(H.matrix)


def _evolution_grid(spectrum: tuple[np.ndarray, np.ndarray], taus: np.ndarray) -> np.ndarray:
    """exp(-i H tau) = V diag(exp(-i w tau)) V^dagger for every tau of a grid, from :func:`_spectrum`.

    Each tau's operator is its own product, so a chunk of a grid gives the
    bits the whole grid would.
    """
    w, V = spectrum
    phases = np.exp(-1j * np.outer(taus, w))
    return (V * phases[:, None, :]) @ V.conj().T


def evolution_operator(H: TruncatedHamiltonian, tau: float) -> np.ndarray:
    """Single-cavity evolution operator at one scaled time."""
    taus, _ = _as_tau_grid(float(tau))
    return _evolution_grid(_spectrum(H), taus)[0]


def _check_leak(leak: float, n_max: int) -> None:
    if leak > _LEAK_TOL:
        raise CutoffLeakageError(f"population {leak:.3e} within one photon of n_max={n_max}")


def oracle_evolve(initial: np.ndarray, H: TruncatedHamiltonian, tau: float) -> np.ndarray:
    """Evolve a one-cavity density matrix (dim matching ``H``) by literal conjugation.

    Population within one photon of the cutoff raises: results there are not
    trustable.  Size the truncation so the top two levels stay empty.
    """
    mat = np.asarray(initial, dtype=complex)
    if mat.shape != (H.dim, H.dim):
        raise ValueError(f"state shape {mat.shape} does not fit the register's dim {H.dim}")
    U = evolution_operator(H, tau)
    evolved = U @ mat @ U.conj().T
    populations = np.diag(evolved).real.reshape(2**H.n_atoms, H.n_max + 1)  # [atoms, photon]
    _check_leak(float(populations[:, H.n_max - 1 :].sum()), H.n_max)
    return evolved


def _field_levels(field: FieldSpec, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The field's photon numbers and probabilities, once they fit in Fock(0..n_max)."""
    ms, ps = field.weights()
    if int(ms.max()) > n_max:
        raise ValueError("field occupies levels beyond the cutoff")
    return ms, ps


def _cavity_channel(U5: np.ndarray, field: FieldSpec, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Numerically traced per-cavity map G[t, ket_out, bra_out, ket_in, bra_in], and its leak table.

    Contracts the evolution operator against itself over the emitted photon
    index and the input photon levels, each level weighted by the field
    distribution: per time, G = X X^dagger with X the (atoms out, atoms in)
    by (photon out, photon in) block of U, its columns scaled by the square
    roots of the photon probabilities.  One batched Gram product serves
    every time of ``U5[t, atoms out, photon out, atoms in, photon in]``.
    The leak table ``leak[t, atoms in]`` is the field-weighted population
    that block carries into the top two photon levels; a preparation's leak
    is this table times its atom populations.
    """
    ms, ps = _field_levels(field, n_max)
    n_t, dim, n_ph = U5.shape[:3]
    X = U5[..., ms] * np.sqrt(ps)  # [t, atoms out, photon out, atoms in, photon in]
    leak = (np.abs(X[:, :, n_max - 1 :]) ** 2).sum(axis=(1, 2, 4))
    X = X.transpose(0, 1, 3, 2, 4).reshape(n_t, dim * dim, n_ph * ms.size)
    G = X @ X.conj().transpose(0, 2, 1)  # [t, (a, s), (b, z)]
    return G.reshape(n_t, dim, dim, dim, dim).transpose(0, 1, 3, 2, 4), leak


def _bell_vector(spec: BellPairSpec) -> np.ndarray:
    """The pair's start state over |00>, |01>, |10>, |11>, written from its definition."""
    c, s = math.cos(spec.alpha), math.sin(spec.alpha)
    if spec.bell_type is BellType.PSI:
        return np.array([0.0, s, c, 0.0])  # cos(a)|10> + sin(a)|01>
    return np.array([s, 0.0, 0.0, c])  # sin(a)|00> + cos(a)|11>


def _atoms_per_cavity(model: Model) -> int:
    """How many atoms share each cavity in ``model``'s layout."""
    if not isinstance(model, Model):
        raise ValueError(f"unknown model {model!r}")
    return 2 if model is Model.DTCM else 1


def _start_vector(model: Model, pair_ab: BellPairSpec, pair_cd: BellPairSpec) -> np.ndarray:
    """The atoms' start vector as ``psi[register a, register b]``, written from explicit Bell vectors."""
    if _atoms_per_cavity(model) == 1:
        if pair_cd != pair_ab:
            raise ValueError("the single-pair layout has no (C,D) pair; pass pair_cd equal to pair_ab")
        return _bell_vector(pair_ab).reshape(2, 2)
    if pair_ab.bell_type is not pair_cd.bell_type:
        raise ValueError("both pairs must share the same Bell type")
    # (A,B,C,D) -> (A,C) of cavity a, (B,D) of cavity b
    psi = np.kron(_bell_vector(pair_ab), _bell_vector(pair_cd)).reshape(2, 2, 2, 2)
    return psi.transpose(0, 2, 1, 3).reshape(4, 4)


def _oracle_maps(
    model: Model, field_a: FieldSpec, field_b: FieldSpec, taus: np.ndarray, n_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Both cavity maps of one layout, field pair, time grid and cutoff, and their leak tables.

    Diagonalizes the register's Hamiltonian once (:func:`_spectrum`), then
    walks the grid in chunks of at most ``_CHUNK_CELLS`` cells of
    exp(-i H tau), one tau where a single operator holds more.  Each chunk
    is evolved (:func:`_evolution_grid`), and each distinct field's
    :func:`_cavity_channel` fills that chunk's rows of its map and leak
    table, so no evolution of the whole grid is ever held: beyond one chunk,
    memory is the maps' dim^4 and the tables' dim cells per tau.  Returns
    ``(Ga, Gb, leak_a, leak_b)``; equal fields share one map and one table
    (``Gb is Ga``).  A field beyond the cutoff raises before the eigensolve.
    None of it depends on how the atoms are prepared.
    """
    n_atoms = _atoms_per_cavity(model)
    H = build_tc_hamiltonian(n_max, n_atoms)
    fields = [field_a] if field_b == field_a else [field_a, field_b]
    for fld in fields:
        _field_levels(fld, n_max)  # raises before the eigensolve
    spectrum = _spectrum(H)
    dim, n_ph = 2**n_atoms, n_max + 1
    maps = [(np.empty((taus.size,) + (dim,) * 4, dtype=complex), np.empty((taus.size, dim))) for _ in fields]
    chunk = max(1, _CHUNK_CELLS // H.dim**2)
    for start in range(0, taus.size, chunk):
        span = slice(start, start + chunk)
        U5 = _evolution_grid(spectrum, taus[span]).reshape(-1, dim, n_ph, dim, n_ph)
        for fld, (G, leak) in zip(fields, maps):
            G[span], leak[span] = _cavity_channel(U5, fld, n_max)
    (Ga, leak_a), (Gb, leak_b) = maps[0], maps[-1]
    return Ga, Gb, leak_a, leak_b


def _prepared_state(
    model: Model, psi: np.ndarray, maps: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], n_max: int
) -> np.ndarray:
    """The reduced atomic state of the :func:`_start_vector` ``psi`` under the :func:`_oracle_maps` ``maps``."""
    Ga, Gb, leak_a, leak_b = maps
    # each register's atom populations, the partner register traced out; an
    # empty grid leaks nothing
    populations = np.abs(psi) ** 2
    for leak, probs in ((leak_a, populations.sum(axis=1)), (leak_b, populations.sum(axis=0))):
        _check_leak(float(np.max(leak @ probs, initial=0.0)), n_max)

    rho0 = np.multiply.outer(psi, psi.conj())  # psi (x) psi*, [ket_a, ket_b, bra_a, bra_b]
    rho = np.einsum("trcsz,tuwyv,syzv->trucw", Ga, Gb, rho0, optimize=True)
    n_t = Ga.shape[0]
    if model is Model.DJCM:
        return rho.reshape(n_t, 4, 4)
    rho = rho.reshape(n_t, 2, 2, 2, 2, 2, 2, 2, 2)
    rho = rho.transpose(0, 1, 3, 2, 4, 5, 7, 6, 8)  # (A,C,B,D) -> (A,B,C,D)
    return rho.reshape(n_t, 16, 16)


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

    Writes the atoms' start vector out from explicit Bell vectors, splits its
    qubits into cavity a's register and cavity b's, and applies to the
    resulting density matrix the two cavity maps obtained by evolving each
    register numerically and tracing its photons (one map when the fields
    are equal).  The maps are built a chunk of taus at a time
    (:func:`_oracle_maps`), so the evolution operators of a long grid are
    never held at once.  A bad preparation, cutoff or field raises before
    the Hamiltonian is diagonalized.  Output matches
    :func:`dtcm.dynamics.assemble_atomic_state` conventions: (T,16,16) over
    (A,B,C,D) for the two-pair layout, (T,4,4) over (A,B) otherwise, with
    T = 0 for an empty grid.
    """
    taus, _ = _as_tau_grid(taus)
    psi = _start_vector(model, pair_ab, pair_cd)
    maps = _oracle_maps(model, field_a, field_b, taus, n_max)
    return _prepared_state(model, psi, maps, n_max)


@dataclass(frozen=True)
class PipelineComparison:
    """Entrywise and concurrence-level agreement between the two pipelines."""

    max_state_deviation: float
    max_concurrence_deviation: float
    n_max: int
    n_tau: int


def _required_cutoff(field: FieldSpec, n_atoms: int) -> int:
    """Smallest n_max at which ``n_atoms`` atoms sharing the field's cavity run leak-free.

    Every level the field holds must be able to take all ``n_atoms`` quanta,
    and at most ``_LEAK_TOL`` of the field may reach the top two levels,
    which the leak checks watch: the field's mass at or above level
    n_max - 1 - n_atoms must be negligible.
    """
    ms, ps = field.weights()
    above = np.cumsum(ps[::-1])[::-1]  # mass at or above each level
    # the levels are contiguous, so the negligible ones are the top ones
    settled = int(ms.max()) + 1 - int(np.count_nonzero(above <= _LEAK_TOL))
    return max(int(ms.max()) + n_atoms, settled + n_atoms + 1)


def compare_pipelines(
    scenario: Scenario,
    alpha: float,
    tau_grid: np.ndarray,
    n_max: int = 6,
) -> PipelineComparison:
    """Run the analytic assembly and the brute-force oracle on the same grid.

    Reports the largest entrywise difference of the joint atomic states and
    the largest difference of pairwise concurrences.  The analytic
    concurrences are the curves :func:`dtcm.analysis.sweep_pairs` returns for
    every pair the layout offers, so the comparison covers the sweep's
    combine step and X route; the oracle side uses the general route.  The
    sweep's grid rule applies: ``tau_grid`` must be strictly increasing, and
    a bad cutoff or grid fails before any eigensolve.  This is
    :func:`_compare_group` with one preparation.
    """
    model, field_a, field_b = scenario.model, scenario.field_a, scenario.field_b
    return _compare_group(model, field_a, field_b, tau_grid, n_max, [(scenario.bell_type, alpha)])[0]


def _compare_group(
    model: Model,
    field_a: FieldSpec,
    field_b: FieldSpec,
    tau_grid: np.ndarray,
    n_max: int,
    preparations: list[tuple[BellType, float]],
) -> list[PipelineComparison]:
    """:func:`compare_pipelines` for each ``(bell_type, alpha)`` of one layout, field pair, grid and cutoff.

    Each cavity is an independent environment, so the maps on both sides
    depend on neither the Bell type nor the angle: the oracle's cavity
    maps and leak tables (:func:`_oracle_maps`) and the analytic channels are
    built once for the group, and :func:`dtcm.analysis.sweep_pairs` runs
    once per Bell type over that type's angles.  Each preparation keeps its
    own start vector, leak checks, assembled state and general
    concurrences.  Returns one comparison per preparation, in order.
    """
    n_atoms = _atoms_per_cavity(model)
    _check_n_max(n_max)
    required = max(_required_cutoff(field_a, n_atoms), _required_cutoff(field_b, n_atoms))
    if n_max < required:
        raise ValueError(f"n_max={n_max} too small for these fields; need at least {required}")
    specs = [BellPairSpec(bell, alpha) for bell, alpha in preparations]
    taus, _ = _as_tau_grid(_check_grid("tau", tau_grid))
    pairs = _model_pairs(model)
    alphas, curves = {}, {}
    for bell in dict.fromkeys(spec.bell_type for spec in specs):
        # the type's angles as the increasing grid the sweep takes; not np.unique,
        # which imports numpy.ma (about 1 MB resident) on its first call
        alphas[bell] = sorted({spec.alpha for spec in specs if spec.bell_type is bell})
        curves[bell] = sweep_pairs(Scenario(model, bell, field_a, field_b), pairs, alphas[bell], taus)
    channels = _channels(model, field_a, field_b, taus)
    maps = _oracle_maps(model, field_a, field_b, taus, n_max)

    reports = []
    for spec in specs:
        analytic = _assemble_grid(model, spec, spec, field_a, field_b, taus, channels)
        reference = _prepared_state(model, _start_vector(model, spec, spec), maps, n_max)
        state_dev = float(np.abs(analytic - reference).max())
        # the oracle orders the layout's qubits A<B<C<D, and every layout starts
        # at A, B, so a pair's canonical positions index its state
        n_qubits = reference.shape[-1].bit_length() - 1
        index = alphas[spec.bell_type].index(spec.alpha)
        conc_devs = []
        for pair in pairs:
            c_o = _concurrence_general_batch(_partial_trace_array(reference, n_qubits, _PAIR_POSITIONS[pair]))
            conc_devs.append(np.abs(curves[spec.bell_type][pair][index].values - c_o).max())
        # np.max carries a NaN from any pair, where the builtin max keeps only a leading one
        reports.append(PipelineComparison(state_dev, float(np.max(conc_devs)), int(n_max), int(taus.size)))
    return reports
