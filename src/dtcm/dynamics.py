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
        _check_bits(i=self.i, k=self.k, p=self.p, q=self.q)
        _check_count("m", self.m)
        object.__setattr__(self, "tau", float(self.tau))
        _as_tau_grid(self.tau)


# Each two-atom amplitude is base + cos_w (cos(om tau) - 1) + 1j sin_w sin(om tau),
# with om the frequency of the ladder family its initial pair selects: both
# atoms excited (om^2 = 2(2m+3)), one excited (2(2m+1)) or none (2(2m-1)).
# Frequencies and weights depend on the photon number m alone.
_FAMILY = np.array([0, 1, 1, 2])  # frequency row of each initial pair state

# The phase of an amplitude by its flips: an even number of flips (a stay or
# a double flip) gives a real amplitude, its cos term, an odd number a purely
# imaginary one, its sin term.  The amplitude tables hold the amplitude over
# this phase; the one-atom flips 0 and 1 read its first two entries.
_FLIP_PHASE = np.array([1.0, 1j, 1j, 1.0])


def _coefficient_rows(m: np.ndarray) -> np.ndarray:
    """The coefficients of photon numbers ``m`` (floats), as rows ``[51, photon]``:
    the three family frequencies, then the base, cos and sin weights of the 16
    amplitudes, each flattened from ``[pair_in, flips]``.  Every expression is
    elementwise in m, so a level's column does not depend on its neighbours."""
    rows = np.zeros((51, m.size))
    freq = rows[:3]
    base, cos_w, sin_w = rows[3:].reshape(3, 4, 4, m.size)

    # both atoms excited: chain |11,m> <-> one flip, m+1 <-> |00,m+2>
    freq[2] = np.sqrt(2.0 * (2.0 * m + 3.0))
    base[3, 0] = 1.0
    cos_w[3, 0] = (m + 1.0) / (2.0 * m + 3.0)
    sin_w[3, 1] = sin_w[3, 2] = -np.sqrt((m + 1.0) / (2.0 * (2.0 * m + 3.0)))
    cos_w[3, 3] = np.sqrt((m + 1.0) * (m + 2.0)) / (2.0 * m + 3.0)

    # one excitation in the pair: the excited atom gives up its photon, the
    # ground atom takes one from the field
    freq[1] = np.sqrt(2.0 * (2.0 * m + 1.0))
    emit = -np.sqrt((m + 1.0) / (2.0 * (2.0 * m + 1.0)))
    absorb = -np.sqrt(m / (2.0 * (2.0 * m + 1.0)))
    for pair_in, own, other in ((1, 1, 2), (2, 2, 1)):
        base[pair_in, 0] = 1.0
        cos_w[pair_in, 0] = cos_w[pair_in, 3] = 0.5
        sin_w[pair_in, own] = emit
        sin_w[pair_in, other] = absorb

    # both atoms in the ground state; an empty cavity leaves them stationary
    # (frequency 0 and base 1), and sqrt(m(m-1)) kills the double-absorption
    # branch below m = 2
    base[0, 0] = 1.0
    live = m >= 1.0
    n = m[live]
    freq[0, live] = np.sqrt(2.0 * (2.0 * n - 1.0))
    cos_w[0, 0, live] = n / (2.0 * n - 1.0)
    sin_w[0, 1, live] = sin_w[0, 2, live] = -np.sqrt(n / (2.0 * (2.0 * n - 1.0)))
    cos_w[0, 3, live] = np.sqrt(n * (n - 1.0)) / (2.0 * n - 1.0)
    return rows


# The rows of photon levels 0 .. top-1, shared by every call in the process.
# Built on first use and grown to exactly the highest level asked for (51
# floats a level); read-only, so no caller can change what later calls read.
# A request that would grow it by more than its own levels plus
# _GROWTH_SLACK (a high Fock level, say) builds just its own rows instead,
# so the table's size follows the levels asked for, not their height.  A
# build's cost is mostly fixed, so a growth by that slack costs little more
# than a build of the requested levels alone.
_COEFFICIENT_TABLE = np.zeros((51, 0))
_COEFFICIENT_TABLE.setflags(write=False)
_GROWTH_SLACK = 256


def _coefficients(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The three family frequencies ``[family, photon]``, then the base, cos and
    sin weights of the 16 amplitudes, each ``[pair_in, flips, photon]``; read
    from the process-wide table, or built apart for levels far past it, and
    never writable views of it."""
    global _COEFFICIENT_TABLE
    m = np.asarray(m)
    if m.ndim != 1 or (m.size and (m.dtype.kind not in "iu" or m.min() < 0)):
        raise ValueError("photon numbers must be a 1-d array of nonnegative integers")
    table = _COEFFICIENT_TABLE  # read once: another thread may replace it meanwhile
    top = int(m.max()) + 1 if m.size else 0
    missing = top - table.shape[1]
    if missing > m.size + _GROWTH_SLACK:
        rows = _coefficient_rows(m.astype(float))  # the same expressions, so the same bits
    else:
        if missing > 0:
            table = _coefficient_rows(np.arange(top, dtype=float))
            table.setflags(write=False)
            # never replace a wider table; a race lost here only leaves a
            # narrower one for a later call to grow, as this call reads its own
            if top > _COEFFICIENT_TABLE.shape[1]:
                _COEFFICIENT_TABLE = table
        rows = table[:, m.astype(np.intp, copy=False)]  # an empty m may be float
    weights = rows[3:].reshape(3, 4, 4, m.size)
    return rows[:3], weights[0], weights[1], weights[2]


def _x_block_table(m: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """All two-atom transition amplitudes on a (photon, time) grid, as real numbers.

    Returns a float array indexed ``[pair_in, flips, photon, time]`` where
    ``pair_in = 2i + k`` and ``flips = 2p + q``; the amplitude is the entry
    times ``_FLIP_PHASE[flips]``: a stay or a double flip holds the real
    base + cos_w (cos(om tau) - 1), a single flip the coefficient of i,
    sin_w sin(om tau).
    """
    tau = np.asarray(tau, dtype=float)
    freq, base, cos_w, sin_w = _coefficients(m)
    angles = freq[:, :, None] * tau
    X = np.empty(base.shape + tau.shape)
    even, odd = X[:, ::3], X[:, 1:3]  # flips 0 and 3, flips 1 and 2
    np.multiply(cos_w[:, ::3, :, None], (np.cos(angles) - 1.0)[_FAMILY][:, None], out=even)
    even += base[:, ::3, :, None]
    np.multiply(sin_w[:, 1:3, :, None], np.sin(angles)[_FAMILY][:, None], out=odd)
    return X


def _y_block_table(m: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """All one-atom transition amplitudes on a (photon, time) grid, as real numbers.

    Returns a float array indexed ``[atom_in, flip, photon, time]``; the
    amplitude is the entry times ``_FLIP_PHASE[flip]``, so the stay row holds
    cos and the flip row -sin of the Rabi angle.  An excited atom exchanges
    its quantum with level m+1, a ground atom with level m, so a ground atom
    in an empty cavity stays put by itself.  Both rows read one cos/sin
    evaluation per level in ``min(m) .. max(m) + 1``.
    """
    m = np.asarray(m).astype(np.intp)
    tau = np.asarray(tau, dtype=float)
    low = int(m.min())
    angles = np.sqrt(np.arange(low, int(m.max()) + 2, dtype=float))[:, None] * tau
    c, s = np.cos(angles), np.sin(angles)
    Y = np.empty((2, 2, m.size, tau.size))
    for i in (0, 1):
        level = m - low + i  # the level atom state i exchanges its quantum with
        Y[i, 0] = c[level]
        Y[i, 1] = -s[level]
    return Y


def x_coeff(key: XCoefficientKey) -> complex:
    """Closed-form transition amplitude for one (pair, flips, photon, time) index."""
    X = _x_block_table(np.array([key.m]), np.array([key.tau]))
    flips = 2 * key.p + key.q
    return complex(X[2 * key.i + key.k, flips, 0, 0] * _FLIP_PHASE[flips])


def _selection_rule(n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """The table cell of each (row, ket_in), and the mask of terms the field trace keeps.

    |ket_in> -> |row> applies the flips ``row ^ ket_in``; ``cells`` holds,
    for each (row, ket_in) in order, the index of (ket_in, flips) in an
    amplitude table's two leading axes flattened.  Each flip moves one
    photon (an excited atom emits, a ground atom absorbs), so the transition
    takes exc(row) - exc(ket_in) photons from the field.
    ``same[(row, ket_in), (col, bra_in)]`` is true where both transitions
    take the same number; the field trace kills every other term.  That
    number has the parity of the flips, so the rule only pairs transitions
    of the same flip parity.  Bit strings are read as binary numbers, the
    first atom most significant.
    """
    states = np.arange(2**n_atoms)
    exc = np.array([bin(s).count("1") for s in states])
    taken = (exc[:, None] - exc[None, :]).ravel()
    cells = states * states.size + (states[:, None] ^ states)
    return cells.ravel(), taken[:, None] == taken[None, :]


_SELECTION = {n_atoms: _selection_rule(n_atoms) for n_atoms in (1, 2)}

# float cells per chunk of taus, in the gathered amplitudes and in their
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
    ket_family: int,
    bra_family: int,
    field: FieldSpec,
    taus: np.ndarray,
) -> np.ndarray:
    ms, ps = field.weights()
    X = _x_block_table(ms, taus) * _FLIP_PHASE[:, None, None]
    out = np.zeros((taus.size, 4, 4), dtype=complex)
    for ket_flips, bra_flips, row, col in terms:
        weighted = np.einsum("m,mt->t", ps, X[ket_family, ket_flips] * np.conj(X[bra_family, bra_flips]))
        out[:, row, col] += weighted
    return out


def _channel_tensor(field: FieldSpec, taus: np.ndarray, n_atoms: int) -> np.ndarray:
    """Every evolved operator |ket><bra| of one cavity's atoms, as real E[t, row, col, ket_in, bra_in].

    ``n_atoms`` is 1 (one atom per cavity) or 2 (two atoms sharing the mode).
    Tracing the field gives, per tau, the photon-weighted Gram product
    G = (L p) L^T of the real table entries L[(row, ket_in), photon], kept
    where the selection rule holds.  It equals the complex (K p) K^dagger of
    the amplitudes K: an amplitude is its entry times i for an odd number of
    flips, and the rule only pairs transitions of the same flip parity, so
    the two phases cancel.  A chunk of taus holds at most ``_CHUNK_CELLS``
    cells of L and of G each, or a single tau where one tau alone needs more.
    """
    ms, ps = field.weights()
    table = _x_block_table if n_atoms == 2 else _y_block_table
    cells, same = _SELECTION[n_atoms]
    dim = 2**n_atoms
    E = np.empty((taus.size, dim, dim, dim, dim))
    chunk = max(1, _CHUNK_CELLS // (dim * dim * max(ms.size, dim * dim)))
    for start in range(0, taus.size, chunk):
        span = slice(start, start + chunk)
        amps = table(ms, taus[span]).transpose(3, 0, 1, 2).reshape(-1, dim * dim, ms.size)  # [t, (ket_in, flips), photon]
        L = amps.take(cells, axis=1)  # [t, (row, ket_in), photon], C-contiguous
        G = (L * ps) @ L.transpose(0, 2, 1)
        G *= same
        E[span] = G.reshape(-1, dim, dim, dim, dim).transpose(0, 1, 3, 2, 4)
    return E


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
    model: Model, pair_ab: BellPairSpec, pair_cd: BellPairSpec, field_a: FieldSpec, field_b: FieldSpec, taus: np.ndarray
) -> np.ndarray:
    """Joint state of every atom the layout holds on a time grid, qubits in A<B<C<D order."""
    qubits = "".join(_cavity_labels(model))
    if "C" not in qubits and pair_cd != pair_ab:
        raise ValueError("the single-pair layout has no (C,D) pair; pass pair_cd equal to pair_ab")
    w = _branch_weights(model, pair_ab, pair_cd)
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
