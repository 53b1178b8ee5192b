"""Self-check suites behind the ``verify`` command.

Each suite exercises one structural guarantee of the pipeline: amplitude
normalization, agreement of the channel tensors with independent routes
(transcribed closed forms, single-atom ladder branches), agreement with the
brute-force oracle, pair-exchange symmetries of the assembled state, and
wholesale validity of reduced states over representative sweeps.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import dynamics
from .algebra import _validate_batch
from .analysis import PAIR_CHOICES, Scenario, _pair_states, sweep_pairs
from .concurrence import _concurrence_general_batch, _concurrence_x_batch, x_pattern_deviation
from .dynamics import BellType, FieldSpec, Model, jc_amplitudes
from .oracle import compare_pipelines

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
        deviation, detail = worker()
    except Exception as exc:
        elapsed = time.perf_counter() - start
        return SuiteResult(name, float("inf"), tolerance, False, elapsed, f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    return SuiteResult(name, float(deviation), tolerance, float(deviation) <= tolerance, elapsed, detail)


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
        dev = float(np.abs(sums - 1.0).max())
        return dev, f"{ms.size} photon levels x {taus.size} times"

    return _timed("x-normalization", 1e-12, worker)


def _one_atom_channel(fld: FieldSpec, taus: np.ndarray) -> np.ndarray:
    """One-atom channel E[t, row, col, ket_in, bra_in] from the ladder branches.

    Tracing the field pairs a ket branch with a bra branch only where both
    leave the same photon number; each pair adds amp_ket * conj(amp_bra).
    """
    ms, ps = fld.weights()
    E = np.zeros((taus.size, 2, 2, 2, 2), dtype=complex)
    for t, tau in enumerate(taus):
        for m, p in zip(ms, ps):
            branches = [jc_amplitudes(i, int(m), float(tau)) for i in (0, 1)]
            for i, j in product((0, 1), repeat=2):
                for row, n_ket, a_ket in branches[i]:
                    for col, n_bra, a_bra in branches[j]:
                        if n_ket == n_bra:
                            E[t, row, col, i, j] += p * a_ket * np.conj(a_bra)
    return E


def suite_explicit_maps() -> SuiteResult:
    """The channel tensors the pipeline uses must match independent routes.

    Two atoms per cavity: the transcribed closed forms.  One atom per
    cavity: products of the single-atom ladder branches.
    """

    def worker():
        fields = [
            FieldSpec.vacuum(),
            FieldSpec.fock(1),
            FieldSpec.fock(3),
            FieldSpec.thermal(1.0),
        ]
        taus = np.linspace(0.0, 25.0, 50)
        one_atom_taus = taus[::5]
        dev = 0.0
        for fld in fields:
            E = dynamics._channel_tensor(fld, taus, 2)
            for i, k, j, l in product((0, 1), repeat=4):
                explicit = dynamics.pair_map_explicit(i, k, j, l, fld, taus)
                dev = max(dev, float(np.abs(E[:, :, :, 2 * i + k, 2 * j + l] - explicit).max()))
            E1 = dynamics._channel_tensor(fld, one_atom_taus, 1)
            dev = max(dev, float(np.abs(E1 - _one_atom_channel(fld, one_atom_taus)).max()))
        return dev, (
            f"16 operators x {len(fields)} fields x {taus.size} times, "
            f"one-atom channel x {len(fields)} fields x {one_atom_taus.size} times"
        )

    return _timed("explicit-maps", 1e-12, worker)


def _oracle_cases(level: str) -> list[tuple[Scenario, float, np.ndarray, int]]:
    if level == QUICK:
        alphas = [np.pi / 8, 3 * np.pi / 8]
        taus = np.linspace(0.0, 10.0, 10)
    else:
        alphas = [0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8]
        taus = np.linspace(0.0, 10.0, 20)
    cases = []
    for bell in (BellType.PSI, BellType.PHI):
        for fld in (FieldSpec.vacuum(), FieldSpec.fock(1)):
            for alpha in alphas:
                cases.append((Scenario(Model.DTCM, bell, fld, fld), alpha, taus, 6))
    if level == FULL:
        for bell in (BellType.PSI, BellType.PHI):
            for fld in (FieldSpec.vacuum(), FieldSpec.fock(1)):
                cases.append((Scenario(Model.DJCM, bell, fld, fld), np.pi / 8, taus, 6))
    return cases


def suite_oracle_agreement(level: str = QUICK) -> SuiteResult:
    """Analytic states and concurrences must match the brute-force route."""

    def worker():
        dev = 0.0
        cases = _oracle_cases(level)
        for scenario, alpha, taus, n_max in cases:
            report = compare_pipelines(scenario, alpha, taus, n_max=n_max)
            dev = max(dev, report.max_state_deviation, report.max_concurrence_deviation)
        return dev, f"{len(cases)} scenario/alpha combinations"

    return _timed("oracle-agreement", 1e-8, worker)


def suite_oracle_agreement_thermal() -> SuiteResult:
    """Same oracle comparison on truncated thermal fields (looser tolerance)."""

    def worker():
        taus = np.linspace(0.0, 10.0, 20)
        dev = 0.0
        count = 0
        for nbar in (0.1, 1.0):
            fld = FieldSpec.thermal(nbar)
            n_max = fld.max_photon() + 3
            for bell in (BellType.PSI, BellType.PHI):
                scenario = Scenario(Model.DTCM, bell, fld, fld)
                report = compare_pipelines(scenario, np.pi / 4, taus, n_max=n_max)
                dev = max(dev, report.max_state_deviation, report.max_concurrence_deviation)
                count += 1
        return dev, f"{count} thermal scenarios"

    return _timed("oracle-agreement-thermal", 1e-6, worker)


def suite_pair_symmetries() -> SuiteResult:
    """Exchange symmetries of the assembled state.

    The two named pairs evolve identically (C_AB = C_CD), and the cross pairs
    trade roles when the mixing angle advances by pi/2.
    """

    def worker():
        alphas = np.linspace(0.0, np.pi / 2, 20)
        taus = np.linspace(0.0, 25.0, 20)
        dev = 0.0
        # (scenario, whether the cross-pair relabeling is checked on it too)
        scenarios = [
            (Scenario(Model.DTCM, BellType.PSI, FieldSpec.vacuum(), FieldSpec.vacuum()), True),
            (Scenario(Model.DTCM, BellType.PHI, FieldSpec.vacuum(), FieldSpec.vacuum()), False),
            (Scenario(Model.DTCM, BellType.PSI, FieldSpec.fock(1), FieldSpec.fock(1)), True),
        ]
        for scenario, cross in scenarios:
            curves = sweep_pairs(scenario, ("AB", "CD", "AC") if cross else ("AB", "CD"), alphas, taus)
            compared = [(curves["AB"], curves["CD"])]
            if cross:
                compared.append((curves["AC"], sweep_pairs(scenario, ("BD",), alphas + np.pi / 2, taus)["BD"]))
            for first, second in compared:
                for c_first, c_second in zip(first, second):
                    dev = max(dev, float(np.abs(c_first.values - c_second.values).max()))
        return dev, f"{len(scenarios)} scenarios on a {alphas.size}x{taus.size} grid"

    return _timed("pair-symmetries", 1e-10, worker)


def suite_state_validity() -> SuiteResult:
    """Reduced states across representative sweeps must be physical.

    Hermiticity and trace at 1e-12, eigenvalue floor at -1e-9, X-pattern
    residue at 1e-10 and agreement of the two concurrence routes at 1e-9.
    The thermal member uses a tail mass small enough not to disturb the
    trace bar.  The reported deviation is the worst bar-normalized ratio.
    """

    def worker():
        alphas = np.linspace(0.05, 0.45, 9) * np.pi
        taus = np.linspace(0.0, 25.0, 251)
        scenarios = []
        for bell in (BellType.PSI, BellType.PHI):
            for fld in (FieldSpec.vacuum(), FieldSpec.fock(1), FieldSpec.thermal(1.0, 1e-13)):
                scenarios.append(Scenario(Model.DTCM, bell, fld, fld))
        worst = 0.0
        states = 0
        for scenario in scenarios:
            # the states sweep_pairs produces, from one channel build per scenario
            for _, _, reduced in _pair_states(scenario, PAIR_CHOICES, alphas, taus):
                report = _validate_batch(reduced)
                c_fast = _concurrence_x_batch(reduced)
                c_general = _concurrence_general_batch(reduced)
                worst = max(
                    worst,
                    report.hermiticity_deviation / 1e-12,
                    report.trace_deviation / 1e-12,
                    max(0.0, -report.min_eigenvalue) / 1e-9,
                    x_pattern_deviation(reduced) / 1e-10,
                    float(np.abs(c_fast - c_general).max()) / 1e-9,
                )
                states += reduced.shape[0]
        return worst, f"{states} reduced states, worst bar-normalized ratio"

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
