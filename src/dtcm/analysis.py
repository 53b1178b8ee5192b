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

from .algebra import CANONICAL_LABELS, _require_valid
from .concurrence import _X_SHAPE_TOL, _concurrence_x_batch, x_pattern_deviation
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


def _pair_states(scenario: Scenario, pairs: tuple[str, ...], alphas: np.ndarray, taus: np.ndarray):
    """Yield (pair, alpha, reduced states on ``taus``) for every pair, then every alpha.

    The two cavity channels are built once and shared by every pair; each
    pair's kernel lives only while its alphas are produced.
    """
    channels = _channels(scenario.model, scenario.field_a, scenario.field_b, taus)
    for pair in pairs:
        kernel = _combine(scenario.model, scenario.bell_type, *channels, pair)
        for alpha in alphas:
            spec = BellPairSpec(scenario.bell_type, float(alpha))
            yield pair, float(alpha), _apply_weights(kernel, _branch_weights(scenario.model, spec, spec))
        del kernel  # free it before the next pair's kernel is built


def sweep_pairs(
    scenario: Scenario,
    pairs: tuple[str, ...],
    alpha_grid: np.ndarray,
    tau_grid: np.ndarray,
) -> dict[str, list[ConcurrenceCurve]]:
    """Concurrence of several atom pairs over one (alpha, tau) grid, one curve per pair and alpha.

    The cavity channels are built once for all pairs; each pair's kernel is
    built once, and each alpha is then one contraction with that alpha's
    preparation weights.  Every reduced state along the way is validated and
    checked against the X pattern before the fast-path concurrence is taken.
    """
    pairs = _check_pairs(scenario.model, pairs)
    taus = _read_only(_as_tau_grid(_check_grid("tau", tau_grid))[0])  # one copy, shared by every curve
    alphas = _check_alphas(alpha_grid)
    trace_slack = scenario.field_a.weight_deficit() + scenario.field_b.weight_deficit()
    curves: dict[str, list[ConcurrenceCurve]] = {pair: [] for pair in pairs}
    for pair, alpha, reduced in _pair_states(scenario, pairs, alphas, taus):
        _require_valid(reduced, trace_slack, f"pair {pair}, alpha={alpha}: reduced state")
        deviation = x_pattern_deviation(reduced)
        if deviation > _X_SHAPE_TOL:
            raise NumericalError(
                f"pair {pair}, alpha={alpha}: reduced state left the X shape: off-pattern magnitude {deviation:.3e}"
            )
        curves[pair].append(ConcurrenceCurve(pair, alpha, taus, _concurrence_x_batch(reduced)))
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
