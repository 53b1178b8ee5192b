"""Entanglement phenomenology on top of the exact dynamics.

Sweeps concurrence over (alpha, tau) grids, locates sudden-death and
sudden-birth events on sampled curves, and classifies scenarios by the
interaction-strength argument: counting how likely the initially excited
atoms are to saturate the cavities.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .algebra import _PSD_SLACK, _TOL_HERM, _TOL_TRACE, CANONICAL_LABELS, ValidationReport, _require_ok
from .concurrence import _X_PATTERN, _X_SHAPE_TOL, _x_concurrence
from .dynamics import (
    BellPairSpec,
    BellType,
    FieldSpec,
    Model,
    _apply_weights,
    _as_tau_grid,
    _branch_weights,
    _cavity_labels,
    _check_alpha,
    _channels,
    _combine,
)
from .errors import NumericalError

PAIR_CHOICES = ("AB", "CD", "AC", "BD")

_ZERO_TOL = 1e-9  # concurrence below this counts as zero for event detection

_PAIR_POSITIONS = {pair: tuple(CANONICAL_LABELS.index(q) for q in pair) for pair in PAIR_CHOICES}

# The X slice of a flattened 4x4 pair state, in this order: the four
# populations, the outer and inner coherences <00|rho|11> and <01|rho|10>,
# then their mirrors <11|rho|00> and <10|rho|01>.
_X_ENTRIES = np.array([0, 5, 10, 15, 3, 6, 12, 9])

# the off-pattern entries of a flattened 4x4 state, as (row i < column j, mirror) pairs
_OFF_MIRRORS = tuple((4 * i + j, 4 * j + i) for i in range(4) for j in range(i + 1, 4) if not _X_PATTERN[i, j])


@dataclass(frozen=True)
class Scenario:
    """A model layout plus preparation: Bell type and the two cavity fields."""

    model: Model
    bell_type: BellType
    field_a: FieldSpec
    field_b: FieldSpec


class Regime(enum.Enum):
    STRONG = "strong"
    WEAK = "weak"


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of the interaction-strength counting argument.

    ``p_at_least`` is the probability that at least as many atoms start
    excited as there are cavities (here always two); ``p_below`` its
    complement.  The strong regime (strict majority) predicts sudden death.
    """

    verdict: Regime
    p_at_least: float
    p_below: float
    predicted_esd: bool
    n_cavities: int = 2


def classify_regime(
    bell_type: BellType,
    alpha: float,
    model: Model,
    field_a: FieldSpec,
    field_b: FieldSpec,
) -> RegimeReport:
    """Classify a preparation as strong or weak interaction.

    With photons already present every atom interacts from the start, so any
    non-vacuum field forces the strong regime.  For vacuum fields the count
    reduces to the excited-atom statistics of the initial superposition.
    """
    BellPairSpec(bell_type, alpha)  # validates the angle
    _cavity_labels(model)  # validates the model
    if not (field_a.is_vacuum() and field_b.is_vacuum()):
        return RegimeReport(Regime.STRONG, 1.0, 0.0, True)
    s2 = np.sin(alpha) ** 2
    c2 = np.cos(alpha) ** 2
    if model is Model.DTCM:
        if bell_type is BellType.PSI:
            # each pair carries exactly one excitation: always two excited atoms
            p_at_least = 1.0
        else:
            # fewer than two excited atoms only when both pairs sit on |00>
            p_at_least = 1.0 - s2 * s2
    else:
        if bell_type is BellType.PSI:
            # a single shared excitation can never cover two cavities
            p_at_least = 0.0
        else:
            p_at_least = c2
    p_below = 1.0 - p_at_least
    strong = p_at_least > p_below
    return RegimeReport(Regime.STRONG if strong else Regime.WEAK, p_at_least, p_below, strong)


def _read_only(values: np.ndarray) -> np.ndarray:
    """``values`` as a read-only float array; a writeable input is copied, never frozen in place."""
    arr = np.asarray(values, dtype=float)
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ConcurrenceCurve:
    """Sampled concurrence of one atom pair at fixed alpha, held read-only."""

    pair: str
    alpha: float
    tau: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        tau = _read_only(self.tau)
        values = _read_only(self.values)
        if tau.ndim != 1 or tau.shape != values.shape:
            raise ValueError("tau and values must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(tau)) and np.all(np.isfinite(values))):
            raise ValueError("tau and values must be finite")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class EsdEvents:
    """Detected zero-crossing events on one concurrence curve.

    ``death_time``/``revival_time`` bracket the first sustained zero window;
    ``birth_time`` marks the onset of entanglement for curves born at zero;
    ``touch_times`` lists isolated grid touches of zero too short to count as
    death windows.
    """

    death_time: float | None = None
    revival_time: float | None = None
    birth_time: float | None = None
    zero_interval_length: float = 0.0
    touch_times: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if (self.death_time is None) != (self.revival_time is None):
            raise ValueError("death and revival times come in pairs")
        if self.death_time is not None and not self.death_time < self.revival_time:
            raise ValueError("death must precede revival")

    @property
    def esd_found(self) -> bool:
        return self.death_time is not None


def _check_grid(name: str, values: np.ndarray) -> np.ndarray:
    """``values`` as a nonempty 1-d grid, finite, then strictly increasing (range is the caller's)."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name}: expected a nonempty 1-d grid")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: values must be finite")
    if np.any(np.diff(arr) <= 0.0):
        raise ValueError(f"{name}: values must be strictly increasing")
    return arr


def _check_alphas(values: np.ndarray) -> np.ndarray:
    """An alpha grid: :func:`_check_grid`, then the angle rule of :class:`BellPairSpec` on both ends."""
    alphas = _check_grid("alpha", values)
    for end in (alphas[0], alphas[-1]):  # the grid increases, so its ends bound every angle
        _check_alpha(float(end))
    return alphas


def _model_pairs(model: Model) -> tuple[str, ...]:
    """The pairs of :data:`PAIR_CHOICES` whose two atoms both sit in the model's cavities."""
    qubits = "".join(_cavity_labels(model))
    return tuple(pair for pair in PAIR_CHOICES if set(pair) <= set(qubits))


def _check_pairs(model: Model, pairs: tuple[str, ...]) -> tuple[str, ...]:
    """``pairs`` as a tuple: at least one, each known, none repeated, all offered by the layout."""
    pairs = tuple(pairs)
    if not pairs:
        raise ValueError("pairs: expected at least one pair name")
    unknown = [p for p in pairs if p not in PAIR_CHOICES]
    if unknown:
        raise ValueError(f"pairs: unknown pair names {unknown}; choose from {PAIR_CHOICES}")
    if len(set(pairs)) != len(pairs):
        raise ValueError("pairs: duplicate pair names")
    offered = _model_pairs(model)
    if not set(pairs) <= set(offered):
        raise ValueError(f"pairs: the {model.value} layout only provides the {', '.join(offered)} pair")
    return pairs


def _pair_kernels(scenario: Scenario, pairs: tuple[str, ...], taus: np.ndarray):
    """Yield (pair, alpha-free kernel K[t, 4, 4, branch]) for every pair.

    The two cavity channels are built once and shared by every pair.
    """
    channels = _channels(scenario.model, scenario.field_a, scenario.field_b, taus)
    for pair in pairs:
        yield pair, _combine(scenario.model, scenario.bell_type, *channels, pair)


def _scenario_weights(scenario: Scenario, alphas: list[float]) -> np.ndarray:
    """The branch weights of ``scenario`` as a [branch, alpha] matrix, both pairs prepared at each alpha."""
    specs = [BellPairSpec(scenario.bell_type, alpha) for alpha in alphas]
    return np.stack([_branch_weights(scenario.model, spec, spec) for spec in specs], axis=1)


def _x_kernel(kernel: np.ndarray) -> tuple[np.ndarray, float, float]:
    """A pair kernel cut to its X entries, with bounds on what the cut drops.

    Returns ``KX[t, 8, branch]`` (the entries of :data:`_X_ENTRIES`), the
    off-pattern bound max_t max_e sum_b |K[t, e, b]| and the off-pattern
    Hermiticity residue max_t max_(e, e') sum_b |K[t, e, b] - conj(K[t, e', b])|
    over mirrored entries.  The preparation weights are real with
    |w_b| <= 1, so these bound the off-pattern magnitude and residue of the
    state at every alpha.  Each off-pattern entry is read as one [t, branch]
    view, so the off-pattern part is never copied whole.
    """
    flat = kernel.reshape(kernel.shape[0], 16, kernel.shape[-1])
    bounds, residues = [], []
    for upper, lower in _OFF_MIRRORS:
        bounds += [np.abs(flat[:, entry]).sum(axis=-1).max() for entry in (upper, lower)]
        residues.append(np.abs(flat[:, upper] - flat[:, lower].conj()).sum(axis=-1).max())
    # np.max, unlike the builtin max, carries a NaN through to the result
    off_bound, off_residue = float(np.max(bounds)), float(np.max(residues))
    return flat.take(_X_ENTRIES, axis=1), off_bound, off_residue  # C-contiguous, so the weighting reshapes it for free


def _x_margin_terms(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The closed-form margin terms of X-sliced states ``X[..., t, 8]``, reduced over t.

    Returns, per leading index, the Hermiticity residue of the X entries,
    the trace deviation and the smaller eigenvalue of the Hermitian part's
    2x2 blocks {00, 11} and {01, 10}, (a+d)/2 - hypot((a-d)/2, |c|).  Each
    is a maximum or a minimum over t, so the terms of consecutive tau chunks
    combine exactly.
    """
    pops, coherences, mirrored = X[..., :4], X[..., 4:6], X[..., 6:].conj()
    # np.maximum, unlike the builtin max, carries a NaN from either term
    herm = np.maximum((2.0 * np.abs(pops.imag)).max(axis=(-2, -1)), np.abs(coherences - mirrored).max(axis=(-2, -1)))
    trace = np.abs(np.einsum("...ti->...t", pops) - 1.0).max(axis=-1)  # summed as the full trace's einsum sums it
    a, d = pops.real[..., :2], pops.real[..., 3:1:-1]  # columns (p00, p11) and (p01, p10)
    block_min = ((a + d) / 2.0 - np.hypot((a - d) / 2.0, np.abs((coherences + mirrored) / 2.0))).min(axis=(-2, -1))
    return herm, trace, block_min


def _x_report(terms: tuple, off_bound: float, off_residue: float, tol_trace: float) -> ValidationReport:
    """The validity margins of one state stack from its :func:`_x_margin_terms` and its kernel's bounds.

    The off-pattern residue joins the Hermiticity residue, and Weyl's bound
    sqrt(8) off_bound on the off-pattern part is subtracted from the block
    minimum, so the reported minimum never exceeds the true one.  The bars
    are those of :func:`dtcm.algebra._validate_batch`.
    """
    herm, trace_dev, block_min = terms
    herm_dev = float(np.maximum(herm, off_residue))  # np.maximum carries a NaN from either
    min_eig = float(block_min) - np.sqrt(8.0) * off_bound
    return ValidationReport(herm_dev, float(trace_dev), min_eig, _TOL_HERM, tol_trace, _PSD_SLACK)


def _x_margins(X: np.ndarray, off_bound: float, off_residue: float, tol_trace: float) -> ValidationReport:
    """The validity margins of X-sliced states ``X[t, 8]`` in closed form (:func:`_x_report`)."""
    return _x_report(_x_margin_terms(X), off_bound, off_residue, tol_trace)


def _x_slice_concurrence(X: np.ndarray) -> np.ndarray:
    """Concurrence of X-sliced states ``X[..., 8]``."""
    return _x_concurrence(X[..., :4].real, X[..., 4], X[..., 5])


# float cells in a sweep chunk's largest array: the channel tensors and the
# pair kernel (256 a tau) or the weighted X slices (8 an alpha a tau)
_SWEEP_CELLS = 2**18


def sweep_pairs(
    scenario: Scenario,
    pairs: tuple[str, ...],
    alpha_grid: np.ndarray,
    tau_grid: np.ndarray,
) -> dict[str, list[ConcurrenceCurve]]:
    """Concurrence of several atom pairs over one (alpha, tau) grid, one curve per pair and alpha.

    The taus are taken in chunks of at most ``_SWEEP_CELLS`` cells in the
    largest array, so the working memory does not grow with the grid.  In
    each chunk the cavity channels are built once for all pairs, and each
    pair's kernel is built once and cut to the 8 entries an X state
    populates (:func:`_x_kernel`); that slice is weighted for every alpha at
    once, as one product with the [branch, alpha] weight matrix
    (:func:`_apply_weights`), and the closed-form margins
    (:func:`_x_margin_terms`) and the X-form concurrence are taken over its
    [alpha, t, 8] view.  Margins and off-pattern bounds combine exactly
    across chunks, and after the last chunk each pair is checked in order:
    a kernel whose off-pattern bound is not within the X-shape bar (NaN
    included) raises, then the first invalid alpha does.  Each pair's
    curves share the rows of one read-only [alphas, taus] block.
    """
    pairs = _check_pairs(scenario.model, pairs)
    taus = _read_only(_as_tau_grid(_check_grid("tau", tau_grid))[0])  # one copy, shared by every curve
    alphas = _check_alphas(alpha_grid).tolist()
    tol_trace = _TOL_TRACE + scenario.field_a.weight_deficit() + scenario.field_b.weight_deficit()
    weights = _scenario_weights(scenario, alphas)
    n = len(alphas)
    step = max(1, _SWEEP_CELLS // max(256, 8 * n))
    values = {pair: np.empty((n, taus.size)) for pair in pairs}
    bounds = {pair: np.full(2, -np.inf) for pair in pairs}  # off-pattern bound and residue
    terms = {pair: (np.full(n, -np.inf), np.full(n, -np.inf), np.full(n, np.inf)) for pair in pairs}
    for start in range(0, taus.size, step):
        span = slice(start, start + step)
        # the last chunk's channels are freed only once these exist, so their
        # memory is reused: freed last, it would be handed back and faulted in again
        channels = _channels(scenario.model, scenario.field_a, scenario.field_b, taus[span])
        for pair in pairs:
            KX, off_bound, off_residue = _x_kernel(_combine(scenario.model, scenario.bell_type, *channels, pair))
            seen = bounds[pair]
            np.maximum(seen, (off_bound, off_residue), out=seen)  # np.maximum carries a NaN
            X = np.moveaxis(_apply_weights(KX, weights), -1, 0)  # [alpha, t, 8]
            del KX
            herm, trace, block_min = terms[pair]
            chunk_herm, chunk_trace, chunk_min = _x_margin_terms(X)
            np.maximum(herm, chunk_herm, out=herm)
            np.maximum(trace, chunk_trace, out=trace)
            np.minimum(block_min, chunk_min, out=block_min)
            values[pair][:, span] = _x_slice_concurrence(X)
            del X  # freed before the next pair's product is made
    curves: dict[str, list[ConcurrenceCurve]] = {}
    for pair in pairs:
        off_bound, off_residue = bounds[pair].tolist()
        if not off_bound <= _X_SHAPE_TOL:
            raise NumericalError(f"pair {pair}: reduced state left the X shape: off-pattern bound {off_bound:.3e}")
        block = values.pop(pair)
        block.setflags(write=False)  # every curve of the pair holds a row of it, not a copy
        curves[pair] = []
        for index, alpha in enumerate(alphas):
            report = _x_report([t[index] for t in terms[pair]], off_bound, off_residue, tol_trace)
            _require_ok(report, f"pair {pair}, alpha={alpha}: reduced state")
            curves[pair].append(ConcurrenceCurve(pair, alpha, taus, block[index]))
    return curves


def sweep_concurrence(
    scenario: Scenario,
    pair: str,
    alpha_grid: np.ndarray,
    tau_grid: np.ndarray,
) -> list[ConcurrenceCurve]:
    """Concurrence of one atom pair over an (alpha, tau) grid: :func:`sweep_pairs` for one pair."""
    return sweep_pairs(scenario, (pair,), alpha_grid, tau_grid)[pair]


def _zero_runs(below: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of True as (start, stop) index pairs, stop exclusive."""
    # padded with False on both sides, every run opens and closes on a change
    edges = np.flatnonzero(np.diff(np.concatenate(([False], np.asarray(below, dtype=bool), [False]))))
    return list(zip(edges[0::2].tolist(), edges[1::2].tolist()))


def _check_zero_tol(zero_tol: float) -> None:
    if not (np.isfinite(zero_tol) and zero_tol > 0.0):
        raise ValueError("zero_tol must be finite and positive")


def detect_esd(curve: ConcurrenceCurve, zero_tol: float = _ZERO_TOL, min_zero_points: int = 3) -> EsdEvents:
    """Locate entanglement sudden death on a sampled curve.

    Death requires at least ``min_zero_points`` consecutive samples below
    ``zero_tol`` with entanglement present on both sides; the first such
    window is reported.  Shorter dips bracketed by entanglement are isolated
    touches of zero, listed separately -- a smooth zero crossing is not
    sudden death.
    """
    if min_zero_points < 1:
        raise ValueError("min_zero_points must be at least 1")
    _check_zero_tol(zero_tol)
    values, taus = curve.values, curve.tau
    below = values < zero_tol
    death = revival = None
    touches: list[float] = []
    for start, stop in _zero_runs(below):
        # the run is maximal, so the samples on either side of it are above
        if not (start > 0 and stop < values.size):
            continue
        if stop - start >= min_zero_points:
            if death is None:
                death, revival = float(taus[start]), float(taus[stop])
        else:
            touches.append(float(taus[start]))
    length = (revival - death) if death is not None else 0.0
    return EsdEvents(
        death_time=death,
        revival_time=revival,
        zero_interval_length=length,
        touch_times=tuple(touches),
    )


def detect_esb(curve: ConcurrenceCurve, zero_tol: float = _ZERO_TOL) -> EsdEvents:
    """Locate entanglement sudden birth for a curve that starts at zero.

    The birth time is the onset sample: the last grid point of the initial
    dead stretch, so a curve entangled from the second sample onward is born
    at ``tau[0]``.  Returns an empty event set when the curve never rises.
    """
    _check_zero_tol(zero_tol)
    values, taus = curve.values, curve.tau
    alive = np.nonzero(values >= zero_tol)[0]
    if alive.size == 0:
        return EsdEvents()
    onset = int(alive[0])
    birth = float(taus[max(onset - 1, 0)])
    return EsdEvents(birth_time=birth, zero_interval_length=birth - float(taus[0]))
