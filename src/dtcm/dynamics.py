"""Exact resonant dynamics of Bell-paired atoms distributed over two cavities.

Two atom pairs (A,B) and (C,D) are prepared in identical Bell-like
superpositions; atoms A,C couple to cavity a and atoms B,D to cavity b.  On
resonance the interaction-picture evolution depends only on the scaled time
``tau = g t``.  Everything here works at the level of the atomic reduced
state: per-cavity evolution maps are built from closed-form transition
amplitudes, summed over the cavity photon statistics, then combined into the
joint atomic density matrix.

The single-cavity variant (one atom per cavity, the double Jaynes-Cummings
configuration) is included for comparison; it uses the plain one-atom ladder
amplitudes instead.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import product
from typing import Union

import numpy as np

from .algebra import DensityMatrix, _partial_trace_array, validate_density
from .errors import NumericalError

_TauLike = Union[float, np.ndarray]


class BellType(enum.Enum):
    """Which Bell-like superposition each pair starts in."""

    PSI = "psi"  # cos(a)|10> + sin(a)|01>, one shared excitation
    PHI = "phi"  # cos(a)|11> + sin(a)|00>, double excitation vs none


class Model(enum.Enum):
    """Atom-cavity layout: two atoms per cavity, or one atom per cavity."""

    DTCM = "DTCM"
    DJCM = "DJCM"


@dataclass(frozen=True)
class BellPairSpec:
    """One two-atom pair prepared with mixing angle ``alpha``.

    The physically distinct range is alpha in [0, pi/2]; values up to pi are
    accepted so relabeling identities (which shift alpha by pi/2) can be
    exercised directly.
    """

    bell_type: BellType
    alpha: float

    def __post_init__(self) -> None:
        if not isinstance(self.bell_type, BellType):
            raise ValueError("bell_type must be a BellType")
        alpha = float(self.alpha)
        if not math.isfinite(alpha) or not 0.0 <= alpha <= math.pi:
            raise ValueError(f"alpha must lie in [0, pi], got {self.alpha}")
        object.__setattr__(self, "alpha", alpha)

    def amplitudes(self) -> tuple[float, float]:
        """Branch amplitudes (a0, a1) for the first atom's bit being 0 or 1."""
        return (math.sin(self.alpha), math.cos(self.alpha))


@dataclass(frozen=True)
class FieldSpec:
    """Initial cavity field: vacuum, a Fock number state, or a thermal mixture.

    A thermal field with mean photon number ``nbar`` is truncated at the
    smallest level N whose geometric tail mass (nbar/(1+nbar))^(N+1) drops to
    ``tail_mass_epsilon``.  The retained weights are kept as-is, not
    renormalized (renormalizing would bias every retained component), so any
    state built on a truncated thermal field under-traces by at most the tail
    mass.
    """

    kind: str
    n: int = 0
    nbar: float = 0.0
    tail_mass_epsilon: float = 1e-10

    def __post_init__(self) -> None:
        if self.kind not in ("vacuum", "fock", "thermal"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "fock":
            if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool) or self.n < 0:
                raise ValueError("Fock photon number must be a nonnegative integer")
        if self.kind == "thermal":
            if not (math.isfinite(self.nbar) and self.nbar > 0.0):
                raise ValueError("thermal nbar must be positive")
            if not 0.0 < self.tail_mass_epsilon < 1.0:
                raise ValueError("tail_mass_epsilon must lie in (0, 1)")

    @classmethod
    def vacuum(cls) -> "FieldSpec":
        return cls("vacuum")

    @classmethod
    def fock(cls, n: int) -> "FieldSpec":
        return cls("fock", n=n)

    @classmethod
    def thermal(cls, nbar: float, tail_mass_epsilon: float = 1e-10) -> "FieldSpec":
        return cls("thermal", nbar=float(nbar), tail_mass_epsilon=float(tail_mass_epsilon))

    def is_vacuum(self) -> bool:
        """Vacuum and Fock(0) are the same preparation."""
        return self.kind == "vacuum" or (self.kind == "fock" and self.n == 0)

    def truncation_level(self) -> int:
        """Smallest N with (nbar/(1+nbar))^(N+1) <= tail_mass_epsilon."""
        if self.kind != "thermal":
            return self.n if self.kind == "fock" else 0
        q = self.nbar / (1.0 + self.nbar)
        n = max(0, math.ceil(math.log(self.tail_mass_epsilon) / math.log(q) - 1.0))
        while q ** (n + 1) > self.tail_mass_epsilon:
            n += 1
        while n > 0 and q ** n <= self.tail_mass_epsilon:
            n -= 1
        return n

    def weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Photon numbers and probabilities of the (finitely resolved) field."""
        if self.kind == "vacuum":
            return np.array([0]), np.array([1.0])
        if self.kind == "fock":
            return np.array([self.n]), np.array([1.0])
        ms = np.arange(self.truncation_level() + 1)
        # q^m / (1 + nbar) stays finite where nbar^m / (1 + nbar)^(m+1) overflows
        q = self.nbar / (1.0 + self.nbar)
        return ms, q**ms / (1.0 + self.nbar)

    def weight_deficit(self) -> float:
        """Probability mass dropped by truncation (zero for vacuum and Fock)."""
        if self.kind != "thermal":
            return 0.0
        q = self.nbar / (1.0 + self.nbar)
        return q ** (self.truncation_level() + 1)

    def max_photon(self) -> int:
        """Highest photon number carrying weight."""
        return self.truncation_level() if self.kind == "thermal" else (self.n if self.kind == "fock" else 0)


# ---------------------------------------------------------------------------
# Two-atom transition amplitudes for a shared resonant cavity mode.
#
# For an initial product |ik, m> (pair bits i,k; photon number m) the evolved
# state is a superposition over bit flips (p,q) with photon numbers fixed by
# excitation conservation: flipping an excited atom deposits a photon,
# flipping a ground atom absorbs one.  The amplitudes close over three ladder
# families selected by the initial excitation content of the pair.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XCoefficientKey:
    """Index of one transition amplitude.

    ``(i, k)`` are the initial pair bits, ``(p, q)`` the applied bit flips,
    ``m`` the initial photon number and ``tau`` the scaled time.
    """

    i: int
    k: int
    p: int
    q: int
    m: int
    tau: float

    def __post_init__(self) -> None:
        for name in ("i", "k", "p", "q"):
            if getattr(self, name) not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1")
        if not isinstance(self.m, (int, np.integer)) or isinstance(self.m, bool) or self.m < 0:
            raise ValueError("m must be a nonnegative integer")
        tau = float(self.tau)
        if not math.isfinite(tau) or tau < 0.0:
            raise ValueError("tau must be finite and nonnegative")
        object.__setattr__(self, "tau", tau)


# Each two-atom amplitude is base + cos_w (cos(om tau) - 1) + 1j sin_w sin(om tau),
# with om the frequency of the ladder family its initial pair selects: both
# atoms excited (om^2 = 2(2m+3)), one excited (2(2m+1)) or none (2(2m-1)).
# Frequencies and weights depend on the photon number m alone.
_FAMILY = np.array([0, 1, 1, 2])  # frequency column of each initial pair state


def _coefficient_rows(m: np.ndarray) -> np.ndarray:
    """Per photon number: the three family frequencies, then the base, cos and
    sin weights of the 16 amplitudes ``[pair_in, flips]``."""
    m = np.asarray(m, dtype=float)
    table = np.zeros((m.size, 3 + 3 * 16))
    freq = table[:, :3]
    base, cos_w, sin_w = (table[:, 3 + 16 * j : 3 + 16 * (j + 1)].reshape(m.size, 4, 4) for j in range(3))

    # both atoms excited: chain |11,m> <-> one flip, m+1 <-> |00,m+2>
    freq[:, 2] = np.sqrt(2.0 * (2.0 * m + 3.0))
    base[:, 3, 0] = 1.0
    cos_w[:, 3, 0] = (m + 1.0) / (2.0 * m + 3.0)
    sin_w[:, 3, 1] = sin_w[:, 3, 2] = -np.sqrt((m + 1.0) / (2.0 * (2.0 * m + 3.0)))
    cos_w[:, 3, 3] = np.sqrt((m + 1.0) * (m + 2.0)) / (2.0 * m + 3.0)

    # one excitation in the pair: the excited atom gives up its photon, the
    # ground atom takes one from the field
    freq[:, 1] = np.sqrt(2.0 * (2.0 * m + 1.0))
    emit = -np.sqrt((m + 1.0) / (2.0 * (2.0 * m + 1.0)))
    absorb = -np.sqrt(m / (2.0 * (2.0 * m + 1.0)))
    for pair_in, own, other in ((1, 1, 2), (2, 2, 1)):
        base[:, pair_in, 0] = 1.0
        cos_w[:, pair_in, 0] = cos_w[:, pair_in, 3] = 0.5
        sin_w[:, pair_in, own] = emit
        sin_w[:, pair_in, other] = absorb

    # both atoms in the ground state; an empty cavity leaves them stationary
    # (frequency 0 and base 1), and sqrt(m(m-1)) kills the double-absorption
    # branch below m = 2
    base[:, 0, 0] = 1.0
    live = m >= 1.0
    n = m[live]
    freq[live, 0] = np.sqrt(2.0 * (2.0 * n - 1.0))
    cos_w[live, 0, 0] = n / (2.0 * n - 1.0)
    sin_w[live, 0, 1] = sin_w[live, 0, 2] = -np.sqrt(n / (2.0 * (2.0 * n - 1.0)))
    cos_w[live, 0, 3] = np.sqrt(n * (n - 1.0)) / (2.0 * n - 1.0)
    return table


def _x_block_table(m: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """All two-atom transition amplitudes on a (photon, time) grid.

    Returns a complex array indexed ``[pair_in, flips, photon, time]`` where
    ``pair_in = 2i + k`` and ``flips = 2p + q``.
    """
    tau = np.asarray(tau, dtype=float)
    rows = _coefficient_rows(m).T  # (3 + 48, photon)
    n_m = rows.shape[1]
    angles = rows[:3, :, None] * tau
    cos_m1 = (np.cos(angles) - 1.0)[_FAMILY][:, None]
    sin = np.sin(angles)[_FAMILY][:, None]
    base, cos_w, sin_w = rows[3:].reshape(3, 4, 4, n_m, 1)
    X = np.empty((4, 4, n_m, tau.size), dtype=complex)
    real = X.real
    np.multiply(cos_w, cos_m1, out=real)
    real += base
    np.multiply(sin_w, sin, out=X.imag)
    return X


def _y_block_table(m: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """All one-atom transition amplitudes on a (photon, time) grid.

    Returns a complex array indexed ``[atom_in, flip, photon, time]``.  An
    excited atom exchanges its quantum with level m+1, a ground atom with
    level m, so a ground atom in an empty cavity stays put by itself.  Both
    rows read one cos/sin evaluation per level in ``min(m) .. max(m) + 1``.
    """
    m = np.asarray(m).astype(np.intp)
    tau = np.asarray(tau, dtype=float)
    low = int(m.min())
    angles = np.sqrt(np.arange(low, int(m.max()) + 2, dtype=float))[:, None] * tau
    c, s = np.cos(angles), np.sin(angles)
    Y = np.zeros((2, 2, m.size, tau.size), dtype=complex)
    for i in (0, 1):
        level = m - low + i  # the level atom state i exchanges its quantum with
        Y.real[i, 0] = c[level]
        Y.imag[i, 1] = -s[level]
    return Y


def x_coeff(key: XCoefficientKey) -> complex:
    """Closed-form transition amplitude for one (pair, flips, photon, time) index."""
    X = _x_block_table(np.array([key.m]), np.array([key.tau]))
    return complex(X[2 * key.i + key.k, 2 * key.p + key.q, 0, 0])


def _check_bits(**bits: int) -> None:
    for name, b in bits.items():
        if b not in (0, 1):
            raise ValueError(f"{name} must be 0 or 1, got {b!r}")


def _as_tau_grid(tau: _TauLike) -> tuple[np.ndarray, bool]:
    arr = np.asarray(tau, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if arr.ndim != 1:
        raise ValueError("tau must be a scalar or a 1-d grid")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("tau values must be finite and nonnegative")
    return arr, scalar


def _build_delta_terms(n_atoms: int) -> tuple[tuple[int, int, int, int, int, int], ...]:
    """Flip combinations allowed for each evolved operator |ket><bra| of ``n_atoms`` atoms.

    Each flip moves one photon (an excited atom emits, a ground atom
    absorbs); the bra flips must change the photon number by the same amount
    as the ket flips, otherwise the field trace kills the term.  Entries are
    (ket_in, bra_in, ket_flips, bra_flips, row, col), each a bit string read
    as a binary number with the first atom most significant.
    """

    def index(bits) -> int:
        return sum(b << (n_atoms - 1 - pos) for pos, b in enumerate(bits))

    def shift(bits, flips) -> int:
        return sum((1 - 2 * b) * f for b, f in zip(bits, flips))

    states = list(product((0, 1), repeat=n_atoms))
    terms = []
    for ket, bra, ket_flips, bra_flips in product(states, repeat=4):
        if shift(ket, ket_flips) == shift(bra, bra_flips):
            row = index([b ^ f for b, f in zip(ket, ket_flips)])
            col = index([b ^ f for b, f in zip(bra, bra_flips)])
            terms.append((index(ket), index(bra), index(ket_flips), index(bra_flips), row, col))
    return tuple(terms)


_DELTA_TERMS = {n_atoms: _build_delta_terms(n_atoms) for n_atoms in (1, 2)}


def _gather_indices(n_atoms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The selection-rule terms as index arrays for one gathered product.

    Returns the ket amplitude row ``ket_in * dim + ket_flips`` and the bra
    row ``bra_in * dim + bra_flips`` of a ``(dim * dim, photon, time)`` view
    of the amplitude table, and each term's flat position in the
    ``(row, col, ket_in, bra_in)`` block of the channel tensor.  The flips
    follow from (ket_in, row) and (bra_in, col), so no two terms share a
    position.
    """
    dim = 2**n_atoms
    ket_in, bra_in, ket_flips, bra_flips, row, col = np.array(_DELTA_TERMS[n_atoms]).T
    dst = np.ravel_multi_index((row, col, ket_in, bra_in), (dim,) * 4)
    return ket_in * dim + ket_flips, bra_in * dim + bra_flips, dst


_GATHER = {n_atoms: _gather_indices(n_atoms) for n_atoms in (1, 2)}

# complex cells per gathered product (terms x photons x taus in one chunk);
# bounds a channel build's working memory whatever the grid length
_CHUNK_CELLS = 2**16

# The ten transcribed closed forms for the evolved pair operators; the other
# six index combinations follow by conjugate transposition.  Each entry is
# (ket_flips, bra_flips, row, col) exactly as the closed forms spell the
# terms out, including the repeated shared coefficients.
_EXPLICIT_FORMS: dict[tuple[int, int, int, int], tuple[tuple[int, int, int, int], ...]] = {
    (0, 0, 0, 0): ((3, 3, 3, 3), (2, 2, 2, 2), (2, 1, 2, 1), (1, 2, 1, 2), (1, 1, 1, 1), (0, 0, 0, 0)),
    (0, 1, 0, 0): ((2, 1, 3, 1), (2, 1, 3, 2), (3, 0, 2, 0), (0, 0, 1, 0)),
    (1, 0, 0, 0): ((1, 2, 3, 2), (1, 1, 3, 1), (0, 0, 2, 0), (3, 0, 1, 0)),
    (1, 1, 0, 0): ((0, 0, 3, 0),),
    (0, 1, 0, 1): ((2, 2, 3, 3), (3, 0, 2, 1), (3, 3, 2, 2), (0, 3, 1, 2), (0, 0, 1, 1), (1, 1, 0, 0)),
    (1, 0, 0, 1): ((1, 2, 3, 3), (0, 3, 2, 2), (0, 0, 2, 1), (3, 3, 1, 2), (3, 0, 1, 1), (2, 1, 0, 0)),
    (1, 1, 0, 1): ((0, 3, 3, 2), (0, 0, 3, 1), (1, 1, 2, 0), (2, 1, 1, 0)),
    (1, 0, 1, 0): ((1, 1, 3, 3), (0, 0, 2, 2), (0, 3, 2, 1), (3, 0, 1, 2), (3, 3, 1, 1), (2, 2, 0, 0)),
    (1, 1, 1, 0): ((0, 0, 3, 2), (0, 3, 3, 1), (1, 2, 2, 0), (2, 2, 1, 0)),
    (1, 1, 1, 1): ((0, 0, 3, 3), (1, 1, 2, 2), (1, 1, 2, 1), (1, 1, 1, 2), (1, 1, 1, 1), (3, 3, 0, 0)),
}


def _accumulate_terms(
    terms: tuple[tuple[int, int, int, int], ...],
    ket_family: int,
    bra_family: int,
    field: FieldSpec,
    taus: np.ndarray,
) -> np.ndarray:
    ms, ps = field.weights()
    X = _x_block_table(ms, taus)
    out = np.zeros((taus.size, 4, 4), dtype=complex)
    for ket_flips, bra_flips, row, col in terms:
        weighted = np.einsum("m,mt->t", ps, X[ket_family, ket_flips] * np.conj(X[bra_family, bra_flips]))
        out[:, row, col] += weighted
    return out


def _channel_tensor(field: FieldSpec, taus: np.ndarray, n_atoms: int) -> np.ndarray:
    """Every evolved operator |ket><bra| of one cavity's atoms, as E[t, row, col, ket_in, bra_in].

    ``n_atoms`` is 1 (one atom per cavity) or 2 (two atoms sharing the mode).
    Every allowed flip term is gathered from the amplitude table and summed
    over the field's photon distribution in one product per chunk of taus;
    a chunk holds at most ``_CHUNK_CELLS`` cells of that product, or a
    single tau where one tau alone needs more.
    """
    ms, ps = field.weights()
    table = _x_block_table if n_atoms == 2 else _y_block_table
    ket, bra, dst = _GATHER[n_atoms]
    dim = 2**n_atoms
    E = np.zeros((taus.size, dim**4), dtype=complex)
    chunk = max(1, _CHUNK_CELLS // (dst.size * ms.size))
    for start in range(0, taus.size, chunk):
        span = slice(start, start + chunk)
        amps = table(ms, taus[span]).reshape(dim * dim, ms.size, -1)
        terms = amps[ket]
        terms *= np.conj(amps)[bra]
        E[span, dst] = (ps @ terms).T
    return E.reshape(taus.size, dim, dim, dim, dim)


def pair_map(i: int, k: int, j: int, l: int, field: FieldSpec, tau: _TauLike) -> np.ndarray:
    """Evolved pair operator: |ik><jl| after interacting with one cavity field.

    One slice of the two-atom channel tensor.  Scalar ``tau`` gives a (4, 4)
    matrix, a grid gives (T, 4, 4).
    """
    _check_bits(i=i, k=k, j=j, l=l)
    taus, scalar = _as_tau_grid(tau)
    out = _channel_tensor(field, taus, 2)[:, :, :, 2 * i + k, 2 * j + l].copy()
    return out[0] if scalar else out


def pair_map_explicit(i: int, k: int, j: int, l: int, field: FieldSpec, tau: _TauLike) -> np.ndarray:
    """Same operator as :func:`pair_map`, from the transcribed closed forms.

    Kept as an independent implementation route so the generic construction
    can be cross-checked term by term.
    """
    _check_bits(i=i, k=k, j=j, l=l)
    taus, scalar = _as_tau_grid(tau)
    key = (i, k, j, l)
    if key in _EXPLICIT_FORMS:
        out = _accumulate_terms(_EXPLICIT_FORMS[key], 2 * i + k, 2 * j + l, field, taus)
    else:
        swapped = _accumulate_terms(_EXPLICIT_FORMS[(j, l, i, k)], 2 * j + l, 2 * i + k, field, taus)
        out = np.conj(swapped).swapaxes(-1, -2)
    return out[0] if scalar else out


def jc_amplitudes(i: int, n: int, tau: float) -> list[tuple[int, int, complex]]:
    """Single-atom transition amplitudes: |i, n> maps onto the returned branches.

    Each branch is (atom bit, photon number, amplitude).  A ground atom in an
    empty cavity has only its stationary branch.
    """
    _check_bits(i=i)
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    taus, _ = _as_tau_grid(float(tau))
    stay, flip = _y_block_table(np.array([n]), taus)[i, :, 0, 0]
    branches = [(i, n, complex(stay))]
    if i == 1 or n > 0:
        branches.append((1 - i, n + 1 if i == 1 else n - 1, complex(flip)))
    return branches


# ---------------------------------------------------------------------------
# Combining the two cavities into the atomic state.
# ---------------------------------------------------------------------------

# the qubits each cavity holds, in the cavity's own tensor order
_CAVITY_LABELS = {Model.DTCM: ("AC", "BD"), Model.DJCM: ("A", "B")}


def _pair_weights(pair_ab: BellPairSpec, pair_cd: BellPairSpec) -> np.ndarray:
    a_ab = pair_ab.amplitudes()
    a_cd = pair_cd.amplitudes()
    return np.array([a_ab[i] * a_cd[k] for i in (0, 1) for k in (0, 1)])


def _branch_weights(model: Model, pair_ab: BellPairSpec, pair_cd: BellPairSpec) -> np.ndarray:
    """W = outer(amp, amp) over cavity a's preparation branches, flattened to match a kernel."""
    if pair_ab.bell_type is not pair_cd.bell_type:
        raise ValueError("both pairs must share the same Bell type")
    amp = _pair_weights(pair_ab, pair_cd) if model is Model.DTCM else np.array(pair_ab.amplitudes())
    return np.outer(amp, amp).ravel()


def _channels(model: Model, field_a: FieldSpec, field_b: FieldSpec, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both cavities' channel tensors on ``taus``; equal fields share one build (``Eb is Ea``)."""
    n_atoms = len(_CAVITY_LABELS[model][0])
    Ea = _channel_tensor(field_a, taus, n_atoms)
    Eb = Ea if field_b == field_a else _channel_tensor(field_b, taus, n_atoms)
    return Ea, Eb


def _combine(model: Model, bell_type: BellType, Ea: np.ndarray, Eb: np.ndarray, keep: str) -> np.ndarray:
    """Alpha-free kernel K[t, row, col, branch] of the atomic state reduced to ``keep``.

    Each cavity acts on its own atoms as an independent channel (``Ea``,
    ``Eb`` from :func:`_channels`), so the state is
    sum_sz W[s, z] Ea[t, :, :, s, z] (x) Eb[t, :, :, s', z'], with W the
    preparation weights and s' the branch bits of cavity b's atoms (flipped
    for psi, repeated for phi).  Each channel is traced down to the kept
    qubits first (a cavity with none kept reduces to its trace), then the two
    are multiplied.  ``_apply_weights(K, _branch_weights(...))`` is the
    reduced state, its qubits in A<B<C<D order.
    """
    labels_a, labels_b = _CAVITY_LABELS[model]
    n_atoms = len(labels_a)
    n_branch = 2**n_atoms
    # cavity b's branch bits run reversed for psi (flipped bits), as-is for phi
    partner = slice(None, None, -1) if bell_type is BellType.PSI else slice(None)
    reduced, order = [], ""
    for E, labels, rows in ((Ea, labels_a, slice(None)), (Eb, labels_b, partner)):
        kept = [pos for pos, lab in enumerate(labels) if lab in keep]
        R = _partial_trace_array(np.moveaxis(E, (1, 2), (3, 4)), n_atoms, kept)  # [t, s, z, row, col]
        reduced.append(np.moveaxis(R[:, rows, rows], (1, 2), (3, 4)))  # [t, row, col, s, z]
        order += "".join(labels[pos] for pos in kept)
    Ra, Rb = reduced
    # [t, row_a, row_b, col_a, col_b, s, z]
    K = np.multiply(Ra[:, :, None, :, None], Rb[:, None, :, None, :], order="C")
    n_t, n_kept = Ea.shape[0], len(order)
    perm = [order.index(lab) for lab in sorted(order)]
    K = K.reshape((n_t,) + (2,) * (2 * n_kept) + (n_branch**2,))
    K = K.transpose([0] + [1 + p for p in perm] + [1 + n_kept + p for p in perm] + [1 + 2 * n_kept])
    return K.reshape(n_t, 2**n_kept, 2**n_kept, n_branch**2)


def _apply_weights(K: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The reduced states ``K @ w``, as one flat (T*d*d, branch) matrix-vector product."""
    return (K.reshape(-1, w.size) @ w).reshape(K.shape[:-1])


def _assemble_dtcm_grid(
    pair_ab: BellPairSpec,
    pair_cd: BellPairSpec,
    field_a: FieldSpec,
    field_b: FieldSpec,
    taus: np.ndarray,
) -> np.ndarray:
    """Joint four-atom state on a time grid, basis ordered A,B,C,D."""
    w = _branch_weights(Model.DTCM, pair_ab, pair_cd)
    channels = _channels(Model.DTCM, field_a, field_b, taus)
    return _apply_weights(_combine(Model.DTCM, pair_ab.bell_type, *channels, "ABCD"), w)


def _assemble_djcm_grid(
    pair_ab: BellPairSpec,
    field_a: FieldSpec,
    field_b: FieldSpec,
    taus: np.ndarray,
) -> np.ndarray:
    """Two-atom state on a time grid for the one-atom-per-cavity layout."""
    w = _branch_weights(Model.DJCM, pair_ab, pair_ab)
    channels = _channels(Model.DJCM, field_a, field_b, taus)
    return _apply_weights(_combine(Model.DJCM, pair_ab.bell_type, *channels, "AB"), w)


def assemble_atomic_state(
    pair_ab: BellPairSpec,
    pair_cd: BellPairSpec,
    field_a: FieldSpec,
    field_b: FieldSpec,
    tau: float,
    model: Model = Model.DTCM,
) -> DensityMatrix:
    """Reduced atomic density matrix at one time, cavity fields traced out.

    For ``Model.DTCM`` the result is 16x16 with labels (A,B,C,D); for
    ``Model.DJCM`` only the (A,B) pair exists and ``pair_cd`` must equal
    ``pair_ab``.  The output is validated (Hermiticity, trace, positivity);
    the trace tolerance allows for the mass dropped by thermal truncation.
    """
    taus, _ = _as_tau_grid(float(tau))
    if model is Model.DTCM:
        grid = _assemble_dtcm_grid(pair_ab, pair_cd, field_a, field_b, taus)
        labels = ("A", "B", "C", "D")
    elif model is Model.DJCM:
        if pair_cd != pair_ab:
            raise ValueError("the single-pair layout has no (C,D) pair; pass pair_cd equal to pair_ab")
        grid = _assemble_djcm_grid(pair_ab, field_a, field_b, taus)
        labels = ("A", "B")
    else:
        raise ValueError(f"unknown model {model!r}")
    mat = grid[0]
    tol_trace = 1e-12 + field_a.weight_deficit() + field_b.weight_deficit()
    report = validate_density(mat, tol_herm=1e-12, tol_trace=tol_trace, psd_slack=1e-9)
    if not report.ok:
        raise NumericalError(
            "assembled state failed validation: "
            f"hermiticity {report.hermiticity_deviation:.3e}, trace {report.trace_deviation:.3e}, "
            f"min eigenvalue {report.min_eigenvalue:.3e}"
        )
    return DensityMatrix(mat, labels)
