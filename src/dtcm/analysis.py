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

from .algebra import _validate_batch
from .concurrence import _concurrence_x_batch, x_pattern_deviation
from .dynamics import (
    BellPairSpec,
    BellType,
    FieldSpec,
    Model,
    _apply_weights,
    _as_tau_grid,
    _branch_weights,
    _channels,
    _combine,
)
from .errors import NumericalError

PAIR_CHOICES = ("AB", "CD", "AC", "BD")

_PAIR_POSITIONS = {"AB": (0, 1), "CD": (2, 3), "AC": (0, 2), "BD": (1, 3)}

_X_SHAPE_TOL = 1e-10  # these scenarios provably preserve the X shape


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
    if model not in (Model.DTCM, Model.DJCM):
        raise ValueError(f"unknown model {model!r}")
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


@dataclass(frozen=True, eq=False)
class ConcurrenceCurve:
    """Sampled concurrence of one atom pair at fixed alpha."""

    pair: str
    alpha: float
    tau: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        tau = np.asarray(self.tau, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if tau.ndim != 1 or tau.shape != values.shape:
            raise ValueError("tau and values must be 1-d arrays of equal length")
        tau.setflags(write=False)
        values.setflags(write=False)
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


def _validate_grid(name: str, values: np.ndarray, minimum: float, maximum: float) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} grid must be a nonempty 1-d array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} grid contains non-finite values")
    if np.any(arr < minimum) or np.any(arr > maximum):
        raise ValueError(f"{name} grid must lie within [{minimum}, {maximum}]")
    if arr.size > 1 and np.any(np.diff(arr) <= 0.0):
        raise ValueError(f"{name} grid must be strictly increasing")
    return arr


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
    pairs = tuple(pairs)
    if not pairs:
        raise ValueError("pairs must name at least one pair")
    if any(pair not in PAIR_CHOICES for pair in pairs):
        raise ValueError(f"pair must be one of {PAIR_CHOICES}")
    if len(set(pairs)) != len(pairs):
        raise ValueError("pairs must not repeat")
    if scenario.model is Model.DJCM and any(pair != "AB" for pair in pairs):
        raise ValueError("the single-pair layout only provides the AB pair")
    taus, _ = _as_tau_grid(_validate_grid("tau", tau_grid, 0.0, np.inf))
    alphas = _validate_grid("alpha", alpha_grid, 0.0, np.pi)
    tol_trace = 1e-12 + scenario.field_a.weight_deficit() + scenario.field_b.weight_deficit()
    curves: dict[str, list[ConcurrenceCurve]] = {pair: [] for pair in pairs}
    for pair, alpha, reduced in _pair_states(scenario, pairs, alphas, taus):
        report = _validate_batch(reduced, tol_herm=1e-12, tol_trace=tol_trace, psd_slack=1e-9)
        if not report.ok:
            raise NumericalError(
                f"pair {pair}, alpha={alpha}: reduced state failed validation: "
                f"hermiticity {report.hermiticity_deviation:.3e}, trace {report.trace_deviation:.3e}, "
                f"min eigenvalue {report.min_eigenvalue:.3e}"
            )
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
    threads: int = 1,
) -> list[ConcurrenceCurve]:
    """Concurrence of one atom pair over an (alpha, tau) grid: :func:`sweep_pairs` for one pair.

    ``threads`` must be nonnegative and is otherwise ignored: the sweep runs
    serially.
    """
    if threads < 0:
        raise ValueError("threads must be nonnegative")
    return sweep_pairs(scenario, (pair,), alpha_grid, tau_grid)[pair]


def _zero_runs(below: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of True as (start, stop) index pairs, stop exclusive."""
    runs = []
    start = None
    for idx, flag in enumerate(below):
        if flag and start is None:
            start = idx
        elif not flag and start is not None:
            runs.append((start, idx))
            start = None
    if start is not None:
        runs.append((start, len(below)))
    return runs


def detect_esd(curve: ConcurrenceCurve, zero_tol: float = 1e-9, min_zero_points: int = 3) -> EsdEvents:
    """Locate entanglement sudden death on a sampled curve.

    Death requires at least ``min_zero_points`` consecutive samples below
    ``zero_tol`` with entanglement present on both sides; the first such
    window is reported.  Shorter dips bracketed by entanglement are isolated
    touches of zero, listed separately -- a smooth zero crossing is not
    sudden death.
    """
    if min_zero_points < 1:
        raise ValueError("min_zero_points must be at least 1")
    values, taus = curve.values, curve.tau
    below = values < zero_tol
    death = revival = None
    touches: list[float] = []
    for start, stop in _zero_runs(below):
        has_before = bool(np.any(values[:start] >= zero_tol))
        has_after = stop < values.size  # the run is maximal, so the next sample is above
        if not (has_before and has_after):
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


def detect_esb(curve: ConcurrenceCurve, zero_tol: float = 1e-9) -> EsdEvents:
    """Locate entanglement sudden birth for a curve that starts at zero.

    The birth time is the onset sample: the last grid point of the initial
    dead stretch, so a curve entangled from the second sample onward is born
    at ``tau[0]``.  Returns an empty event set when the curve never rises.
    """
    values, taus = curve.values, curve.tau
    alive = np.nonzero(values >= zero_tol)[0]
    if alive.size == 0:
        return EsdEvents()
    onset = int(alive[0])
    birth = float(taus[max(onset - 1, 0)])
    return EsdEvents(birth_time=birth, zero_interval_length=birth - float(taus[0]))
