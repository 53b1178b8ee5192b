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
from typing import Union

import numpy as np

from .algebra import DensityMatrix, _require_valid, _trace_subscripts

_TauLike = Union[float, np.ndarray]


class BellType(enum.Enum):
    """Which Bell-like superposition each pair starts in."""

    PSI = "psi"  # cos(a)|10> + sin(a)|01>, one shared excitation
    PHI = "phi"  # cos(a)|11> + sin(a)|00>, double excitation vs none


class Model(enum.Enum):
    """Atom-cavity layout: two atoms per cavity, or one atom per cavity."""

    DTCM = "DTCM"
    DJCM = "DJCM"


def _check_bits(**bits: int) -> None:
    for name, b in bits.items():
        if b not in (0, 1):
            raise ValueError(f"{name} must be 0 or 1, got {b!r}")


def _check_count(name: str, n: int) -> None:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise ValueError(f"{name} must be a nonnegative integer")


def _as_tau_grid(tau: _TauLike) -> tuple[np.ndarray, bool]:
    """Times as a 1-d grid, and whether a scalar was given; every time is finite and nonnegative."""
    arr = np.asarray(tau, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if arr.ndim != 1:
        raise ValueError("tau must be a scalar or a 1-d grid")
    if not np.all(np.isfinite(arr)):
        raise ValueError("tau: values must be finite")
    if np.any(arr < 0.0):
        raise ValueError("tau: values must be nonnegative")
    return arr, scalar


def _check_alpha(alpha: float) -> float:
    """A mixing angle: finite, then in [0, pi]."""
    if not math.isfinite(alpha):
        raise ValueError("alpha: values must be finite")
    if not 0.0 <= alpha <= math.pi:
        raise ValueError("alpha: values must lie in [0, pi]")
    return alpha


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
        object.__setattr__(self, "alpha", _check_alpha(float(self.alpha)))

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
            _check_count("Fock photon number", self.n)
        if self.kind == "thermal":
            if not (math.isfinite(self.nbar) and self.nbar > 0.0):
                raise ValueError("thermal nbar must be positive")
            if self.nbar / (1.0 + self.nbar) == 1.0:  # no finite truncation level exists
                raise ValueError(f"thermal nbar {self.nbar:g} is too large: nbar/(1+nbar) rounds to 1")
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
        return self.truncation_level()


# ---------------------------------------------------------------------------
# Two-atom transition amplitudes for a shared resonant cavity mode.
#
# For an initial product |ik, m> (pair bits i,k; photon number m) the evolved
# state is a superposition over bit flips (p,q) with photon numbers fixed by
# excitation conservation: flipping an excited atom deposits a photon,
# flipping a ground atom absorbs one.  The start state's excitation number
# N = m + i + k (photons plus excited atoms) is conserved, so it evolves in
# the three-level block |11,N-2> <-> |psi+,N-1> <-> |00,N> with Rabi
# frequency sqrt(2(2N-1)) (Tavis & Cummings 1968), and every amplitude is one
# of seven closed functions of N and tau, evaluated once per N.
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
        _check_bits(i=self.i, k=self.k, p=self.p, q=self.q)
        _check_count("m", self.m)
        object.__setattr__(self, "tau", float(self.tau))
        _as_tau_grid(self.tau)


# The phase of an amplitude by its flips: an even number of flips (a stay or
# a double flip) gives a real amplitude, an odd number a purely imaginary
# one.  The amplitude tables hold the amplitude over this phase; the one-atom
# flips 0 and 1 read its first two entries.
_FLIP_PHASE = np.array([1.0, 1j, 1j, 1.0])

_EXCITED = np.array([0, 1, 1, 2])  # e, the excited atoms of each initial pair state

# Over its phase, each two-atom amplitude is one of seven functions of the
# start state's N = m + e and tau.  With c = cos(om tau) - 1, s = sin(om tau)
# and om = sqrt(max(4N - 2, 0)) they are, for a stay or a double flip,
#   0: 1 + N/(2N-1) c   1: 1 + (N-1)/(2N-1) c   2: 1 + c/2   3: c/2
#   4: sqrt(N(N-1))/(2N-1) c
# and for a single flip 5: -sqrt(N/(2(2N-1))) s and 6: -sqrt((N-1)/(2(2N-1))) s.
# _AMPLITUDE[pair_in, flips] names each amplitude's function.  At N = 0,
# om = 0 leaves the stay 1 and every other amplitude 0; sqrt(N(N-1)) closes
# the double absorption at N = 1.
_AMPLITUDE = np.array([[0, 5, 5, 4], [2, 5, 6, 3], [2, 6, 5, 3], [1, 6, 6, 4]])
_STAY_FLIP = np.array([[0, 1], [0, 1]])  # the one-atom functions: cos for a stay, -sin for a flip
_BASE = np.array([1.0, 1.0, 1.0, 0.0, 0.0])[:, None, None]  # the constant of functions 0-4
_BELOW = np.array([[0.0], [1.0]])  # N - _BELOW holds N and N - 1 as rows


def _ladder(m: np.ndarray, excited: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The excitation numbers N = min(m) .. max(m) + max(excited), as floats,
    and each start state's rung ``[state, photon]``: its N = m + excited[state],
    less min(m).  Photon numbers ``m`` must be a 1-d array of nonnegative
    integers (an empty one may be float)."""
    m = np.asarray(m)
    levels = m.tolist() if m.ndim == 1 else None
    if levels is None or (levels and (m.dtype.kind not in "iu" or min(levels) < 0)):
        raise ValueError("photon numbers must be a 1-d array of nonnegative integers")
    low = min(levels, default=0)
    n = np.arange(low, max(levels, default=0) + excited[-1] + 1, dtype=float)
    return n, m.astype(np.intp, copy=False) - low + excited[:, None]


def _x_function_table(m: np.ndarray, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The seven two-atom functions on the excitation-number ladder, as real
    ``[function, rung, time]``, and each pair state's rung ``[pair_in, photon]``.

    The weights, cos and sin are evaluated once per excitation number N in
    ``min(m) .. max(m) + 2``.
    """
    n, rung = _ladder(m, _EXCITED)
    both, d = n - _BELOW, 2.0 * n - 1.0  # [N and N - 1, rung], 2N - 1
    squared = 2.0 * d  # om^2 = 4N - 2, exact
    angles = np.sqrt(np.maximum(squared, 0.0))[:, None] * np.asarray(tau, dtype=float)
    c, s = np.cos(angles) - 1.0, np.sin(angles)
    amps = np.empty((7,) + angles.shape)
    np.multiply((both / d)[:, :, None], c, out=amps[:2])
    np.multiply(0.5, c, out=amps[2:4])
    np.multiply((np.sqrt(n * both[1]) / d)[:, None], c, out=amps[4])
    amps[:5] += _BASE  # + 0.0 too, which turns a -0.0 product into 0.0
    np.multiply(-np.sqrt(both / squared)[:, :, None], s, out=amps[5:])
    return amps, rung


def _y_function_table(m: np.ndarray, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and -sin of the one-atom Rabi angle on the excitation-number ladder,
    as real ``[function, rung, time]``, and each atom state's rung ``[atom_in, photon]``.

    An atom in state i over m photons has excitation number N = m + i and
    Rabi frequency sqrt(N); each N in ``min(m) .. max(m) + 1`` takes one
    cos/sin evaluation.
    """
    n, rung = _ladder(m, _EXCITED[:2])  # an atom in state i has i excitations, as pair 0i has
    angles = np.sqrt(n)[:, None] * np.asarray(tau, dtype=float)
    return np.stack((np.cos(angles), -np.sin(angles))), rung


def _block_table(amps: np.ndarray, rung: np.ndarray, functions: np.ndarray) -> np.ndarray:
    """Every entry ``[state_in, flips, photon, time]`` of a function table: function
    ``functions[state_in, flips]`` at the start state's rung."""
    return amps[functions[:, :, None], rung[:, None]]


def _x_block_table(m: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """All two-atom transition amplitudes on a (photon, time) grid, as real numbers.

    Returns a float array indexed ``[pair_in, flips, photon, time]`` where
    ``pair_in = 2i + k`` and ``flips = 2p + q``; the amplitude is the entry
    times ``_FLIP_PHASE[flips]``.  It is a gather of
    :func:`_x_function_table`: every entry reads its function at its start
    state's N.  The channel build reads that function table directly.
    """
    return _block_table(*_x_function_table(m, tau), _AMPLITUDE)


def _y_block_table(m: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """All one-atom transition amplitudes on a (photon, time) grid, as real numbers.

    Returns a float array indexed ``[atom_in, flip, photon, time]``; the
    amplitude is the entry times ``_FLIP_PHASE[flip]``, so the stay row holds
    cos and the flip row -sin of the Rabi angle, a gather of
    :func:`_y_function_table`.  A ground atom in an empty cavity stays put
    by itself.
    """
    return _block_table(*_y_function_table(m, tau), _STAY_FLIP)


def x_coeff(key: XCoefficientKey) -> complex:
    """Closed-form transition amplitude for one (pair, flips, photon, time) index."""
    X = _x_block_table(np.array([key.m]), np.array([key.tau]))
    flips = 2 * key.p + key.q
    return complex(X[2 * key.i + key.k, flips, 0, 0] * _FLIP_PHASE[flips])


def _selection_rule(n_atoms: int) -> np.ndarray:
    """The mask ``same[(row, ket_in), (col, bra_in)]`` of the terms the field trace keeps.

    |ket_in> -> |row> applies the flips ``row ^ ket_in``.  Each flip moves
    one photon (an excited atom emits, a ground atom absorbs), so the
    transition takes exc(row) - exc(ket_in) photons from the field.  ``same``
    is true where both transitions take the same number; the field trace
    kills every other term.  That number has the parity of the flips, so the
    rule only pairs transitions of the same flip parity.  Bit strings are
    read as binary numbers, the first atom most significant.
    """
    exc = _EXCITED[: 2**n_atoms]  # the bit count of each state
    taken = (exc[:, None] - exc[None, :]).ravel()
    return taken[:, None] == taken[None, :]


def _channel_plan(n_atoms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct amplitude rows of one cavity's channel, and where each of its cells reads them.

    The transition |ket_in> -> |row> has amplitude function
    ``functions[ket_in, row ^ ket_in]`` at rung offset exc(ket_in) of the
    photon level, so many (row, ket_in) share a row of amplitudes: 10 of 16
    for two atoms, 4 of 4 for one.  Returns each distinct row's function
    and rung offset, and ``scatter``: for every channel cell
    ``(row, col, ket_in, bra_in)`` in order, the cell ``a * rows + b`` of the
    rows' Gram product that it equals, or ``rows**2``, a zero cell, where the
    selection rule kills the term.
    """
    dim = 2**n_atoms
    functions = _AMPLITUDE if n_atoms == 2 else _STAY_FLIP
    states, exc = np.arange(dim), _EXCITED[:dim]
    codes = (functions[states, states[:, None] ^ states] * 3 + exc).ravel().tolist()  # [row, ket_in], exc <= 2
    distinct = sorted(set(codes))  # in Python: np.unique would page in about 0.7 MB of code at import
    rows = len(distinct)
    row_of = np.array([distinct.index(code) for code in codes])
    cells = np.where(_selection_rule(n_atoms), row_of[:, None] * rows + row_of, rows * rows)
    scatter = cells.reshape((dim,) * 4).transpose(0, 2, 1, 3).ravel()
    function, offset = np.divmod(distinct, 3)
    return function, offset, scatter


_CHANNEL_PLANS = {n_atoms: _channel_plan(n_atoms) for n_atoms in (1, 2)}

# float cells per chunk of taus, in the gathered amplitude rows and in their
# product alike; bounds a channel build's working memory whatever the grid length
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
    ket_in: int,
    bra_in: int,
    field: FieldSpec,
    taus: np.ndarray,
) -> np.ndarray:
    ms, ps = field.weights()
    X = _x_block_table(ms, taus) * _FLIP_PHASE[:, None, None]
    out = np.zeros((taus.size, 4, 4), dtype=complex)
    for ket_flips, bra_flips, row, col in terms:
        weighted = np.einsum("m,mt->t", ps, X[ket_in, ket_flips] * np.conj(X[bra_in, bra_flips]))
        out[:, row, col] += weighted
    return out


def _channel_tensor(field: FieldSpec, taus: np.ndarray, n_atoms: int) -> np.ndarray:
    """Every evolved operator |ket><bra| of one cavity's atoms, as real E[t, row, col, ket_in, bra_in].

    ``n_atoms`` is 1 (one atom per cavity) or 2 (two atoms sharing the mode).
    Tracing the field gives, per tau, the photon-weighted Gram product
    H = (L p) L^T of the distinct real amplitude rows L[row, photon] (10
    for two atoms, 4 for one), gathered in one ``take`` from the function
    table; one more ``take`` through the plan's ``scatter`` reads every
    cell of E from H, and every term the selection rule kills from H's
    appended zero cell.  It equals the complex (K p) K^dagger of the
    amplitudes K, masked by the rule: an amplitude is its entry times i for
    an odd number of flips, and the rule only pairs transitions of the same
    flip parity, so the two phases cancel.  A chunk of taus holds at most
    ``_CHUNK_CELLS`` cells of L and of H each, or a single tau where one
    tau alone needs more.
    """
    ms, ps = field.weights()
    table = _x_function_table if n_atoms == 2 else _y_function_table
    function, offset, scatter = _CHANNEL_PLANS[n_atoms]
    rows, dim = function.size, 2**n_atoms
    E = np.empty((taus.size, scatter.size))
    chunk = max(1, _CHUNK_CELLS // max(rows * ms.size, rows * rows + 1))
    H = np.zeros((min(chunk, taus.size), rows * rows + 1))  # the last cell stays 0.0
    gram = H[:, :-1].reshape(-1, rows, rows)  # a view: the product is written into H
    for start in range(0, taus.size, chunk):
        span = slice(start, start + chunk)
        amps, rung = table(ms, taus[span])  # [function, rung, t]
        t = amps.shape[2]
        # rung[0] is each photon level's own rung, the ground state's
        cells = ((function * amps.shape[1] + offset)[:, None] + rung[0]).ravel()
        L = amps.reshape(-1, t).T.take(cells, axis=1).reshape(t, rows, ms.size)
        np.matmul(L * ps, L.transpose(0, 2, 1), out=gram[:t])
        H[:t].take(scatter, axis=1, out=E[span], mode="clip")  # "clip": an unbuffered out
    return E.reshape((taus.size,) + (dim,) * 4)


def pair_map(i: int, k: int, j: int, l: int, field: FieldSpec, tau: _TauLike) -> np.ndarray:
    """Evolved pair operator: |ik><jl| after interacting with one cavity field.

    One slice of the two-atom channel tensor.  Scalar ``tau`` gives a (4, 4)
    matrix, a grid gives (T, 4, 4).
    """
    _check_bits(i=i, k=k, j=j, l=l)
    taus, scalar = _as_tau_grid(tau)
    out = _channel_tensor(field, taus, 2)[:, :, :, 2 * i + k, 2 * j + l].astype(complex)
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
    _check_count("n", n)
    taus, _ = _as_tau_grid(float(tau))
    stay, flip = _y_block_table(np.array([n]), taus)[i, :, 0, 0] * _FLIP_PHASE[:2]
    branches = [(i, n, complex(stay))]
    if i == 1 or n > 0:
        branches.append((1 - i, n + 1 if i == 1 else n - 1, complex(flip)))
    return branches


# ---------------------------------------------------------------------------
# Combining the two cavities into the atomic state.
# ---------------------------------------------------------------------------

_CAVITY_LABELS = {Model.DTCM: ("AC", "BD"), Model.DJCM: ("A", "B")}


def _cavity_labels(model: Model) -> tuple[str, str]:
    """The layout of ``model``: the qubits each cavity holds, in the cavity's own tensor order."""
    if not isinstance(model, Model):
        raise ValueError(f"unknown model {model!r}")
    return _CAVITY_LABELS[model]


def _branch_weights(model: Model, pair_ab: BellPairSpec, pair_cd: BellPairSpec) -> np.ndarray:
    """W = outer(amp, amp) over cavity a's preparation branches, flattened to match a kernel."""
    if pair_ab.bell_type is not pair_cd.bell_type:
        raise ValueError("both pairs must share the same Bell type")
    amp = np.array(pair_ab.amplitudes())
    if model is Model.DTCM:
        amp = np.outer(amp, pair_cd.amplitudes()).ravel()  # branches (A,C) of cavity a
    return np.outer(amp, amp).ravel()


def _channels(model: Model, field_a: FieldSpec, field_b: FieldSpec, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both cavities' channel tensors on ``taus``; equal fields share one build (``Eb is Ea``)."""
    n_atoms = len(_cavity_labels(model)[0])
    Ea = _channel_tensor(field_a, taus, n_atoms)
    Eb = Ea if field_b == field_a else _channel_tensor(field_b, taus, n_atoms)
    return Ea, Eb


def _combine(model: Model, bell_type: BellType, Ea: np.ndarray, Eb: np.ndarray, keep: str) -> np.ndarray:
    """Alpha-free kernel K[t, row, col, branch] of the atomic state reduced to ``keep``.

    Each cavity acts on its own atoms as an independent channel (``Ea``,
    ``Eb`` from :func:`_channels`), so the state is
    sum_sz W[s, z] Ea[t, :, :, s, z] (x) Eb[t, :, :, s', z'], with W the
    preparation weights and s' the branch bits of cavity b's atoms (flipped
    for psi, repeated for phi).  Every axis is named after its qubit, as
    :func:`dtcm.algebra._trace_subscripts` names them.  Each channel is
    traced down to its kept qubits, then the two are multiplied elementwise,
    broadcast over each other's qubits, into A<B<C<D order.
    ``_apply_weights(K, _branch_weights(...))`` is the reduced state.
    """
    if bell_type is BellType.PSI:
        Eb = Eb[..., ::-1, ::-1]  # cavity b's branch bits are cavity a's, flipped
    traced, order = [], ""
    for E, labels in zip((Ea, Eb), _cavity_labels(model)):
        kept = "".join(lab for lab in labels if lab in keep)
        state, reduced = _trace_subscripts(labels, kept)
        qubits = E.reshape(E.shape[:1] + (2,) * (2 * len(labels)) + E.shape[-2:])
        traced.append((reduced, np.einsum(f"t{state}sz->t{reduced}sz", qubits)))
        order += kept
    order = "".join(sorted(order))
    # each cavity's axes already run in the joint order, so unit axes line the two factors up
    a, b = (
        x.reshape(x.shape[:1] + tuple(2 if q in reduced else 1 for q in order + order.lower()) + x.shape[-2:])
        for reduced, x in traced
    )
    K = np.multiply(a, b, order="C")
    d = 2 ** len(order)
    return K.reshape(Ea.shape[0], d, d, Ea.shape[-1] ** 2)


def _apply_weights(K: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The reduced states ``K @ W``, one flat (T*d*d, branch) product; a [branch, alpha] ``W`` puts alpha last."""
    return (K.reshape(-1, W.shape[0]) @ W).reshape(K.shape[:-1] + W.shape[1:])


def _assemble_grid(
    model: Model,
    pair_ab: BellPairSpec,
    pair_cd: BellPairSpec,
    field_a: FieldSpec,
    field_b: FieldSpec,
    taus: np.ndarray,
    channels: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Joint state of every atom the layout holds on a time grid, qubits in A<B<C<D order.

    ``channels``, when given, is :func:`_channels` of the same layout, fields
    and grid, built once for several preparations.
    """
    qubits = "".join(_cavity_labels(model))
    if "C" not in qubits and pair_cd != pair_ab:
        raise ValueError("the single-pair layout has no (C,D) pair; pass pair_cd equal to pair_ab")
    w = _branch_weights(model, pair_ab, pair_cd)
    if channels is None:
        channels = _channels(model, field_a, field_b, taus)
    return _apply_weights(_combine(model, pair_ab.bell_type, *channels, qubits), w)


def _assemble_dtcm_grid(
    pair_ab: BellPairSpec, pair_cd: BellPairSpec, field_a: FieldSpec, field_b: FieldSpec, taus: np.ndarray
) -> np.ndarray:
    """Joint four-atom state on a time grid, basis ordered A,B,C,D."""
    return _assemble_grid(Model.DTCM, pair_ab, pair_cd, field_a, field_b, taus)


def _assemble_djcm_grid(pair_ab: BellPairSpec, field_a: FieldSpec, field_b: FieldSpec, taus: np.ndarray) -> np.ndarray:
    """Two-atom state on a time grid for the one-atom-per-cavity layout."""
    return _assemble_grid(Model.DJCM, pair_ab, pair_ab, field_a, field_b, taus)


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
    grid = _assemble_grid(model, pair_ab, pair_cd, field_a, field_b, taus)
    _require_valid(grid, field_a.weight_deficit() + field_b.weight_deficit(), "assembled state")
    return DensityMatrix(grid[0], tuple(sorted("".join(_cavity_labels(model)))))
