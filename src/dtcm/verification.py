"""Self-check suites behind the ``verify`` command.

Each suite exercises one structural guarantee of the pipeline: amplitude
normalization, agreement of the channel tensors with independent routes
(transcribed closed forms, the oracle's traced one-atom channel), agreement
with the brute-force oracle, pair-exchange symmetries of the assembled
state, and wholesale validity of reduced states over representative sweeps.

Each suite lists its cases as ``(deviation, where)`` pairs, ``where`` in a
config's words (``DTCM psi fock:1/fock:1 AB alpha=0.3927``); :func:`_timed`
alone takes the worst, a NaN first, fails a NaN and names the case.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import dynamics
from .algebra import _PSD_SLACK, _TOL_HERM, _TOL_TRACE, ValidationReport, _deviations
from .analysis import (
    PAIR_CHOICES,
    Scenario,
    _scenario_weights,
    _x_kernel,
    _x_margin_terms,
    _x_report,
    _x_slice_concurrence,
    sweep_pairs,
)
from .concurrence import _X_SHAPE_TOL, _concurrence_x_batch, _general_spectrum, _wootters, x_pattern_deviation
from .dynamics import BellType, FieldSpec, Model
from .oracle import _compare_group, _oracle_maps, _required_cutoff

QUICK = "quick"
FULL = "full"


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one verification suite."""

    name: str
    max_deviation: float
    tolerance: float
    passed: bool
    seconds: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = (
            f"{self.name}: max deviation {self.max_deviation:.3e} (tolerance {self.tolerance:.0e}) "
            f"{status} in {self.seconds:.2f} s"
        )
        if self.detail:
            text += f" [{self.detail}]"
        return text


def _timed(name: str, tolerance: float, worker) -> SuiteResult:
    # a suite that blows up is a failed suite, not a crashed verifier
    start = time.perf_counter()
    try:
        cases, detail = worker()
        deviations, places = zip(*cases)
    except Exception as exc:
        elapsed = time.perf_counter() - start
        return SuiteResult(name, float("inf"), tolerance, False, elapsed, f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    # np.argmax picks the first NaN, which then fails the bar; the builtin max would drop it
    worst = int(np.argmax(deviations))
    deviation = float(deviations[worst])
    return SuiteResult(name, deviation, tolerance, deviation <= tolerance, elapsed, f"{detail}; worst: {places[worst]}")


def _field_words(field: FieldSpec) -> str:
    """The field as a config writes it: ``vacuum``, ``fock:<n>`` or ``thermal:<nbar>[,<eps>]``."""
    if field.kind != "thermal":
        return "vacuum" if field.kind == "vacuum" else f"fock:{field.n}"
    eps = "" if field.tail_mass_epsilon == FieldSpec.tail_mass_epsilon else f",{field.tail_mass_epsilon:g}"
    return f"thermal:{field.nbar:g}{eps}"


def _scenario_words(sc: Scenario) -> str:
    return f"{sc.model.value} {sc.bell_type.value} {_field_words(sc.field_a)}/{_field_words(sc.field_b)}"


def suite_x_normalization() -> SuiteResult:
    """Transition amplitudes must be normalized for every start state.

    Photon numbers 0..50 against 200 seeded-random times: the squared
    amplitudes of the four flip branches must sum to one.
    """

    def worker():
        rng = np.random.default_rng(20260819)
        taus = rng.uniform(0.0, 20.0, size=200)
        ms = np.arange(51)
        X = dynamics._x_block_table(ms, taus)
        sums = (np.abs(X) ** 2).sum(axis=1)
        per_level = np.abs(sums - 1.0).max(axis=(0, 2))
        cases = [(dev, f"m={m}") for dev, m in zip(per_level.tolist(), ms.tolist())]
        return cases, f"{ms.size} photon levels x {taus.size} times"

    return _timed("x-normalization", 1e-12, worker)


def suite_explicit_maps() -> SuiteResult:
    """The channel tensors the pipeline uses must match independent routes.

    Two atoms per cavity: the transcribed closed forms.  One atom per
    cavity: the oracle's channel, traced numerically from the evolution
    under the truncated one-atom Hamiltonian, so it reads no amplitude table.
    """

    def worker():
        fields = [
            FieldSpec.vacuum(),
            FieldSpec.fock(1),
            FieldSpec.fock(3),
            FieldSpec.thermal(1.0),
        ]
        taus = np.linspace(0.0, 25.0, 50)
        cases = []
        for fld in fields:
            words = _field_words(fld)
            E = dynamics._channel_tensor(fld, taus, 2)
            for i, k, j, l in product((0, 1), repeat=4):
                explicit = dynamics.pair_map_explicit(i, k, j, l, fld, taus)
                dev = float(np.abs(E[:, :, :, 2 * i + k, 2 * j + l] - explicit).max())
                cases.append((dev, f"{words} |{i}{k}><{j}{l}|"))
            E1 = dynamics._channel_tensor(fld, taus, 1)
            G1 = _oracle_maps(Model.DJCM, fld, fld, taus, _required_cutoff(fld, 1))[0]
            cases.append((float(np.abs(E1 - G1).max()), f"{words} one-atom"))
        return cases, (
            f"16 operators x {len(fields)} fields x {taus.size} times, "
            f"one-atom channel x {len(fields)} fields x {taus.size} times"
        )

    return _timed("explicit-maps", 1e-12, worker)


# One layout, field pair, grid and cutoff, and the (Bell type, alpha)
# preparations compared on it: the arguments of one _compare_group call.
_CaseGroup = tuple[Model, FieldSpec, FieldSpec, np.ndarray, int, list[tuple[BellType, float]]]


def _oracle_cases(level: str) -> list[_CaseGroup]:
    if level == QUICK:
        alphas = [np.pi / 8, 3 * np.pi / 8]
        taus = np.linspace(0.0, 10.0, 10)
    else:
        alphas = [0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8]
        taus = np.linspace(0.0, 10.0, 20)
    vacuum, fock1 = FieldSpec.vacuum(), FieldSpec.fock(1)
    every = [(bell, alpha) for bell in (BellType.PSI, BellType.PHI) for alpha in alphas]
    groups = [(Model.DTCM, fld, fld, taus, 6, every) for fld in (vacuum, fock1)]
    if level == FULL:
        one = [(BellType.PSI, np.pi / 8), (BellType.PHI, np.pi / 8)]
        groups += [(Model.DJCM, fld, fld, taus, 6, one) for fld in (vacuum, fock1)]
        # unequal fields: the two cavities' channels differ
        groups += [(Model.DTCM, vacuum, fock1, taus, 6, one), (Model.DJCM, fock1, vacuum, taus, 6, one)]
    return groups


def _thermal_cases() -> list[_CaseGroup]:
    taus = np.linspace(0.0, 10.0, 20)
    # not pi/4, where equal branch amplitudes hide an angle read as pi/2 - alpha
    one = [(BellType.PSI, np.pi / 8), (BellType.PHI, np.pi / 8)]
    fields = (FieldSpec.thermal(0.1), FieldSpec.thermal(1.0))
    return [(Model.DTCM, fld, fld, taus, _required_cutoff(fld, 2), one) for fld in fields]


def _oracle_suite(name: str, tolerance: float, groups: list[_CaseGroup], what: str) -> SuiteResult:
    """Worst state or concurrence deviation of one :func:`dtcm.oracle._compare_group` per group."""

    def worker():
        checked = []
        for model, field_a, field_b, taus, n_max, preparations in groups:
            reports = _compare_group(model, field_a, field_b, taus, n_max, preparations)
            for (bell, alpha), report in zip(preparations, reports):
                where = f"{_scenario_words(Scenario(model, bell, field_a, field_b))} alpha={alpha:.4f}"
                checked.append((report.max_state_deviation, f"{where} state"))
                checked.append((report.max_concurrence_deviation, f"{where} concurrence"))
        return checked, f"{len(checked) // 2} {what}"

    return _timed(name, tolerance, worker)


def suite_oracle_agreement(level: str = QUICK) -> SuiteResult:
    """Analytic states and concurrences must match the brute-force route."""
    return _oracle_suite("oracle-agreement", 1e-8, _oracle_cases(level), "scenario/alpha combinations")


def suite_oracle_agreement_thermal() -> SuiteResult:
    """Same oracle comparison on truncated thermal fields (looser tolerance)."""
    return _oracle_suite("oracle-agreement-thermal", 1e-6, _thermal_cases(), "thermal scenarios")


def suite_pair_symmetries() -> SuiteResult:
    """Exchange symmetries of the assembled state.

    The two named pairs evolve identically (C_AB = C_CD), and the cross pairs
    trade roles when the mixing angle advances by pi/2.
    """

    def worker():
        alphas = np.linspace(0.0, np.pi / 2, 20)
        taus = np.linspace(0.0, 25.0, 20)
        cases = []
        # (scenario, whether the cross-pair relabeling is checked on it too)
        scenarios = [
            (Scenario(Model.DTCM, BellType.PSI, FieldSpec.vacuum(), FieldSpec.vacuum()), True),
            (Scenario(Model.DTCM, BellType.PHI, FieldSpec.vacuum(), FieldSpec.vacuum()), False),
            (Scenario(Model.DTCM, BellType.PSI, FieldSpec.fock(1), FieldSpec.fock(1)), True),
        ]
        for scenario, cross in scenarios:
            curves = sweep_pairs(scenario, ("AB", "CD", "AC") if cross else ("AB", "CD"), alphas, taus)
            compared = [("AB=CD", curves["AB"], curves["CD"])]
            if cross:
                bd = sweep_pairs(scenario, ("BD",), alphas + np.pi / 2, taus)["BD"]
                compared.append(("AC=BD(alpha+pi/2)", curves["AC"], bd))
            for relation, first, second in compared:
                for c_first, c_second in zip(first, second):
                    dev = float(np.abs(c_first.values - c_second.values).max())
                    cases.append((dev, f"{_scenario_words(scenario)} {relation} alpha={c_first.alpha:.4f}"))
        return cases, f"{len(scenarios)} scenarios on a {alphas.size}x{taus.size} grid"

    return _timed("pair-symmetries", 1e-10, worker)


def _validated(mats: np.ndarray) -> tuple[ValidationReport, np.ndarray]:
    """The validation report of a state stack and its general concurrence, from one ``eigh``.

    The Hermiticity and trace deviations are :func:`dtcm.algebra._validate_batch`'s,
    and one :func:`dtcm.concurrence._general_spectrum` of the stack gives both
    the minimum eigenvalue and the Wootters step, raising as the general route
    does.  A stack that is not finite gets a NaN minimum eigenvalue and a NaN
    concurrence, where the general route would raise without naming a case.
    """
    _, herm_dev, trace_dev = _deviations(mats)
    min_eig = c_general = np.nan
    if math.isfinite(herm_dev):
        w, V = _general_spectrum(mats)
        min_eig, c_general = float(w.min()), _wootters(w, V)
    return ValidationReport(herm_dev, trace_dev, min_eig, _TOL_HERM, _TOL_TRACE, _PSD_SLACK), c_general


def suite_state_validity() -> SuiteResult:
    """Reduced states across representative sweeps must be physical, and the sweep's X route must agree.

    Full states: Hermiticity, trace and eigenvalue floor at the validation
    bars, X-pattern residue at the X-shape bar, and agreement of the X-form
    and general concurrence at 1e-9.  The kernel's off-pattern bound must be
    exactly 0.0, as the sweep requires (a ratio of 0, else inf).
    The X route on the same kernels: its concurrence against the general
    one at 1e-9, its closed-form Hermiticity and trace against the full
    states' at 1e-15, and its closed-form minimum eigenvalue at most 1e-15
    above the full states' minimum.  One ``eigh`` of each state's Hermitian
    part gives both that minimum and the general concurrence
    (:func:`_validated`).  Each kernel and its X slice are weighted for all
    nine alphas in one product, as the sweep weights them.  A state that is
    not finite gets NaN ratios.  The thermal member uses a tail mass small
    enough not to disturb the trace bar.  The reported deviation is the
    worst bar-normalized ratio.
    """

    def worker():
        alphas = np.linspace(0.05, 0.45, 9) * np.pi
        taus = np.linspace(0.0, 25.0, 251)
        scenarios = []
        for bell in (BellType.PSI, BellType.PHI):
            for fld in (FieldSpec.vacuum(), FieldSpec.fock(1), FieldSpec.thermal(1.0, 1e-13)):
                scenarios.append(Scenario(Model.DTCM, bell, fld, fld))
        cases = []
        states = 0
        for scenario in scenarios:
            words = _scenario_words(scenario)
            weights = _scenario_weights(scenario, alphas.tolist())
            # the kernels sweep_pairs slices, from one channel build per scenario
            channels = dynamics._channels(scenario.model, scenario.field_a, scenario.field_b, taus)
            for pair in PAIR_CHOICES:
                kernel = dynamics._combine(scenario.model, scenario.bell_type, *channels, pair)
                KX, off_bound = _x_kernel(kernel)
                full = np.moveaxis(dynamics._apply_weights(kernel, weights), -1, 0)
                slices = np.moveaxis(dynamics._apply_weights(KX, weights), -1, 0)
                for alpha, reduced, X in zip(alphas.tolist(), full, slices):
                    report, c_general = _validated(reduced)
                    closed = _x_report(_x_margin_terms(X), report.tol_trace)
                    # np.maximum carries a NaN, where the builtin max keeps only a leading one
                    ratios = {
                        "hermiticity": report.hermiticity_deviation / report.tol_herm,
                        "trace": report.trace_deviation / report.tol_trace,
                        "psd": np.maximum(0.0, -report.min_eigenvalue) / report.psd_slack,
                        "x-shape": x_pattern_deviation(reduced) / _X_SHAPE_TOL,
                        "off-bound": 0.0 if off_bound == 0.0 else math.inf,
                        "x-form concurrence": float(np.abs(_concurrence_x_batch(reduced) - c_general).max()) / 1e-9,
                        "x-route concurrence": float(np.abs(_x_slice_concurrence(X) - c_general).max()) / 1e-9,
                        "x-route hermiticity": abs(closed.hermiticity_deviation - report.hermiticity_deviation) / 1e-15,
                        "x-route trace": abs(closed.trace_deviation - report.trace_deviation) / 1e-15,
                        "x-route psd": np.maximum(0.0, closed.min_eigenvalue - report.min_eigenvalue) / 1e-15,
                    }
                    label = f"{words} {pair} alpha={alpha:.4f}"
                    cases.extend((ratio, f"{label} {term}") for term, ratio in ratios.items())
                    states += reduced.shape[0]
                del kernel, KX
        return cases, f"{states} reduced states, bar-normalized ratios"

    return _timed("state-validity", 1.0, worker)


def run_verification(level: str = QUICK) -> list[SuiteResult]:
    """Run every suite for the requested level and return their results."""
    if level not in (QUICK, FULL):
        raise ValueError(f"level must be '{QUICK}' or '{FULL}'")
    results = [
        suite_x_normalization(),
        suite_explicit_maps(),
        suite_oracle_agreement(level),
    ]
    if level == FULL:
        results.append(suite_oracle_agreement_thermal())
    results.append(suite_pair_symmetries())
    results.append(suite_state_validity())
    return results
