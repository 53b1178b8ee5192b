"""Every verify suite fails closed on a NaN in what it compares, and names the case; state-validity takes one spectrum per stack."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import dense_route
from dtcm import analysis, dynamics, oracle, verification
from dtcm.algebra import _PSD_SLACK, _TOL_HERM, _TOL_TRACE, ValidationReport, _deviations, _validate_batch
from dtcm.concurrence import (
    _X_SHAPE_TOL,
    _concurrence_general_batch,
    _concurrence_x_batch,
    _general_spectrum,
    _wootters,
    x_pattern_deviation,
)
from dtcm.dynamics import BellType, FieldSpec, Model
from dtcm.errors import NumericalError


def nan_at(values, index):
    """A copy of ``values`` with a NaN at ``index``."""
    out = np.array(values)
    out[index] = np.nan
    return out


def with_nan(real, index):
    """``real`` with a NaN at ``index`` in each result."""
    return lambda *args: nan_at(real(*args), index)


def with_nan_curves(real):
    """``real`` sweep with a NaN at the fifth sample of every curve (a curve itself rejects one)."""

    def fault(*args):
        return {
            pair: [SimpleNamespace(alpha=c.alpha, values=nan_at(c.values, 4)) for c in curves]
            for pair, curves in real(*args).items()
        }

    return fault


CASES = [
    (
        verification.suite_x_normalization,
        dynamics, "_x_block_table", lambda real: with_nan(real, (0, 0, 5, 3)),
        "m=5",
    ),
    (
        # every operator of the closed forms: the first is vacuum's |00><00|
        verification.suite_explicit_maps,
        dynamics, "pair_map_explicit", lambda real: with_nan(real, 7),
        "vacuum |00><00|",
    ),
    (
        lambda: verification.suite_oracle_agreement(verification.QUICK),
        oracle, "_concurrence_general_batch", lambda real: with_nan(real, 3),
        "DTCM psi vacuum/vacuum alpha=0.3927 concurrence",
    ),
    (
        verification.suite_oracle_agreement_thermal,
        oracle, "_concurrence_general_batch", lambda real: with_nan(real, 3),
        "DTCM psi thermal:0.1/thermal:0.1 alpha=0.3927 concurrence",
    ),
    (
        verification.suite_pair_symmetries,
        verification, "sweep_pairs", with_nan_curves,
        "DTCM psi vacuum/vacuum AB=CD alpha=0.0000",
    ),
    (
        verification.suite_state_validity,
        # the suite asks for every angle's X-route concurrence at once, as [alpha, t]
        verification, "_x_slice_concurrence", lambda real: with_nan(real, (0, 4)),
        "DTCM psi vacuum/vacuum AB alpha=0.1571 x-route concurrence",
    ),
    (
        # a state that is not finite: the general concurrence is not asked, and the first ratio is named
        verification.suite_state_validity,
        dynamics, "_gram", lambda real: with_nan(real, (0, dynamics._CHANNEL_PLANS[2][2][0])),
        "DTCM psi vacuum/vacuum AB alpha=0.1571 hermiticity",
    ),
]


@pytest.mark.parametrize(
    "suite, module, name, fault, where",
    CASES,
    ids=["x-normalization", "explicit-maps", "oracle-agreement", "oracle-agreement-thermal",
         "pair-symmetries", "state-validity", "state-validity-nan-state"],
)
def test_a_nan_fails_the_suite_and_is_named(monkeypatch, suite, module, name, fault, where):
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    result = suite()
    assert not result.passed
    assert math.isnan(result.max_deviation), result.line()
    assert result.detail.endswith(f"; worst: {where}"), result.line()


def test_state_validity_takes_one_spectrum_for_both_results():
    # one scenario's dense-route kernels, weighted as the suite weights them, one [alpha, t] stack per pair
    scenario = analysis.Scenario(Model.DTCM, BellType.PHI, FieldSpec.thermal(1.0, 1e-13), FieldSpec.thermal(1.0, 1e-13))
    alphas = np.linspace(0.05, 0.45, 3) * np.pi
    taus = np.linspace(0.0, 25.0, 61)
    weights = analysis._scenario_weights(scenario, alphas.tolist())
    channels = dense_route.channels(scenario.model, scenario.field_a, scenario.field_b, taus)
    for pair in analysis.PAIR_CHOICES:
        kernel = dense_route.einsum_combine(scenario.model, scenario.bell_type, *channels, pair)
        stack = np.moveaxis(dynamics._apply_weights(kernel, weights), -1, 0)
        reports, c_general = verification._validated(stack)
        assert len(reports) == alphas.size and c_general.shape == (alphas.size, taus.size)
        for reduced, report, c in zip(stack, reports, c_general):
            alone = _validate_batch(reduced)
            assert np.array_equal(c, _concurrence_general_batch(reduced))
            assert abs(report.min_eigenvalue - alone.min_eigenvalue) <= 1e-15
            assert report == replace(alone, min_eigenvalue=report.min_eigenvalue)


def test_an_angle_that_is_not_finite_gets_nan_without_a_spectrum(monkeypatch):
    real = verification._general_spectrum
    asked = []

    def finite_only(mats):
        assert np.isfinite(mats).all(), "a state that is not finite reached the eigensolver"
        asked.append(mats.shape)
        return real(mats)

    monkeypatch.setattr(verification, "_general_spectrum", finite_only)
    states = np.tile(np.eye(4) / 4.0, (3, 5, 1, 1))
    states[1, 2, 1, 3] = np.inf
    reports, c_general = verification._validated(states)
    assert asked == [(2, 5, 4, 4)]
    assert math.isnan(reports[1].min_eigenvalue) and np.isnan(c_general[1]).all()
    assert not reports[1].ok
    for i in (0, 2):
        assert reports[i].ok and reports[i].min_eigenvalue == pytest.approx(0.25)
        assert np.array_equal(c_general[i], np.zeros(5))
    # a stack with no finite angle asks for no spectrum at all
    asked.clear()
    reports, c_general = verification._validated(states[1:2])
    assert asked == [] and np.isnan(c_general).all() and not reports[0].ok


def test_state_validity_takes_one_spectrum_per_scenario_and_pair(monkeypatch):
    real = verification._general_spectrum
    asked = []

    def counted(mats):
        asked.append(mats.shape)
        return real(mats)

    monkeypatch.setattr(verification, "_general_spectrum", counted)
    result = verification.suite_state_validity()
    assert result.passed, result.line()
    assert asked == [(9, 251, 4, 4)] * (6 * len(analysis.PAIR_CHOICES))


def test_a_stack_the_general_route_rejects_fails_the_suite(monkeypatch):
    def rejecting(mats):
        raise NumericalError("negative population beyond tolerance: -1.000e-03")

    monkeypatch.setattr(verification, "_general_spectrum", rejecting)
    result = verification.suite_state_validity()
    assert not result.passed and result.max_deviation == math.inf, result.line()
    assert result.detail == "NumericalError: negative population beyond tolerance: -1.000e-03", result.line()


def validated_per_angle(mats):
    """The suite's former validation of one angle's states ``mats[t, 4, 4]``."""
    _, herm_dev, trace_dev = _deviations(mats)
    min_eig = c_general = np.nan
    if math.isfinite(herm_dev):
        w, V = _general_spectrum(mats)
        min_eig, c_general = float(w.min()), _wootters(w, V)
    return ValidationReport(float(herm_dev), float(trace_dev), min_eig, _TOL_HERM, _TOL_TRACE, _PSD_SLACK), c_general


def per_angle_cases(scenario, alphas, taus):
    """State-validity's cases as the suite built them one angle at a time: the reference for the per-stack suite."""
    words = verification._scenario_words(scenario)
    weights = analysis._scenario_weights(scenario, alphas.tolist())
    grams = dynamics._grams(scenario.model, scenario.field_a, scenario.field_b, taus)
    cases = []
    for pair in analysis.PAIR_CHOICES:
        kernel = dynamics._combine(scenario.model, scenario.bell_type, *grams, pair)
        KX, off_bound = analysis._x_pair_kernel(analysis._X_PLANS[scenario.model, scenario.bell_type, pair], *grams)
        full = np.moveaxis(dynamics._apply_weights(kernel, weights), -1, 0)
        slices = np.moveaxis(dynamics._apply_weights(KX, weights), -1, 0)
        for alpha, reduced, X in zip(alphas.tolist(), full, slices):
            report, c_general = validated_per_angle(reduced)
            closed = analysis._x_report(analysis._x_margin_terms(X), report.tol_trace)
            ratios = {
                "hermiticity": report.hermiticity_deviation / report.tol_herm,
                "trace": report.trace_deviation / report.tol_trace,
                "psd": np.maximum(0.0, -report.min_eigenvalue) / report.psd_slack,
                "x-shape": x_pattern_deviation(reduced) / _X_SHAPE_TOL,
                "off-bound": 0.0 if off_bound == 0.0 else math.inf,
                "x-form concurrence": float(np.abs(_concurrence_x_batch(reduced) - c_general).max()) / 1e-9,
                "x-route concurrence": float(np.abs(analysis._x_slice_concurrence(X) - c_general).max()) / 1e-9,
                "x-route hermiticity": abs(closed.hermiticity_deviation - report.hermiticity_deviation) / 1e-15,
                "x-route trace": abs(closed.trace_deviation - report.trace_deviation) / 1e-15,
                "x-route psd": np.maximum(0.0, closed.min_eigenvalue - report.min_eigenvalue) / 1e-15,
            }
            label = f"{words} {pair} alpha={alpha:.4f}"
            cases.extend((ratio, f"{label} {term}") for term, ratio in ratios.items())
    return cases


@pytest.mark.parametrize("bell", (BellType.PSI, BellType.PHI), ids=("psi", "phi"))
@pytest.mark.parametrize("field", (FieldSpec.vacuum(), FieldSpec.fock(1), FieldSpec.thermal(1.0, 1e-13)), ids=("vacuum", "fock1", "thermal"))
def test_per_stack_cases_are_the_per_angle_cases_bit_for_bit(bell, field):
    scenario = analysis.Scenario(Model.DTCM, bell, field, field)
    # the suite's grid
    alphas = np.linspace(0.05, 0.45, 9) * np.pi
    taus = np.linspace(0.0, 25.0, 251)
    stacked = verification._validity_cases(scenario, alphas, taus)
    reference = per_angle_cases(scenario, alphas, taus)
    assert [where for _, where in stacked] == [where for _, where in reference]
    bits = [np.array([value for value, _ in cases], dtype=np.float64).view(np.int64) for cases in (stacked, reference)]
    assert np.array_equal(*bits)


def test_state_validity_fails_any_off_pattern_bound_that_is_not_zero(monkeypatch):
    # the sweep's rule: an off-pattern bound of 1e-300 is as far off the X shape as 1
    real = verification._x_pair_kernel

    def tiny_bound(plan, Ha, Hb):
        KX, _ = real(plan, Ha, Hb)
        return KX, 1e-300

    monkeypatch.setattr(verification, "_x_pair_kernel", tiny_bound)
    result = verification.suite_state_validity()
    assert not result.passed and result.max_deviation == math.inf, result.line()
    assert result.detail.endswith("; worst: DTCM psi vacuum/vacuum AB alpha=0.1571 off-bound"), result.line()


def test_run_verification_rejects_an_unknown_level():
    with pytest.raises(ValueError, match="^level must be 'quick' or 'full'$"):
        verification.run_verification("medium")
