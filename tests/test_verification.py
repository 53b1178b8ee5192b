"""Every verify suite fails closed on a NaN in what it compares, and names the case; state-validity takes one spectrum per state."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from dtcm import analysis, dynamics, oracle, verification
from dtcm.algebra import _validate_batch
from dtcm.concurrence import _concurrence_general_batch
from dtcm.dynamics import BellType, FieldSpec, Model


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
        verification, "_x_slice_concurrence", lambda real: with_nan(real, 4),
        "DTCM psi vacuum/vacuum AB alpha=0.1571 x-route concurrence",
    ),
    (
        # a state that is not finite: the general concurrence is not asked, and the first ratio is named
        verification.suite_state_validity,
        dynamics, "_channel_tensor", lambda real: with_nan(real, (0, 0, 0, 0, 0)),
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
    # one scenario's kernels, weighted as the suite weights them
    scenario = analysis.Scenario(Model.DTCM, BellType.PHI, FieldSpec.thermal(1.0, 1e-13), FieldSpec.thermal(1.0, 1e-13))
    alphas = np.linspace(0.05, 0.45, 3) * np.pi
    taus = np.linspace(0.0, 25.0, 61)
    weights = analysis._scenario_weights(scenario, alphas.tolist())
    channels = dynamics._channels(scenario.model, scenario.field_a, scenario.field_b, taus)
    for pair in analysis.PAIR_CHOICES:
        kernel = dynamics._combine(scenario.model, scenario.bell_type, *channels, pair)
        for reduced in np.moveaxis(dynamics._apply_weights(kernel, weights), -1, 0):
            report, c_general = verification._validated(reduced)
            alone = _validate_batch(reduced)
            assert np.array_equal(c_general, _concurrence_general_batch(reduced))
            assert abs(report.min_eigenvalue - alone.min_eigenvalue) <= 1e-15
            assert report == replace(alone, min_eigenvalue=report.min_eigenvalue)


def test_a_state_that_is_not_finite_gets_nan_without_a_spectrum(monkeypatch):
    def no_spectrum(mats):
        raise AssertionError("a state that is not finite reached the eigensolver")

    monkeypatch.setattr(verification, "_general_spectrum", no_spectrum)
    states = np.tile(np.eye(4) / 4.0, (5, 1, 1))
    states[2, 1, 3] = np.inf
    report, c_general = verification._validated(states)
    assert math.isnan(report.min_eigenvalue) and math.isnan(c_general)
    assert not report.ok


def test_state_validity_fails_any_off_pattern_bound_that_is_not_zero(monkeypatch):
    # the sweep's rule: an off-pattern bound of 1e-300 is as far off the X shape as 1
    real = verification._x_kernel

    def tiny_bound(kernel):
        KX, _ = real(kernel)
        return KX, 1e-300

    monkeypatch.setattr(verification, "_x_kernel", tiny_bound)
    result = verification.suite_state_validity()
    assert not result.passed and result.max_deviation == math.inf, result.line()
    assert result.detail.endswith("; worst: DTCM psi vacuum/vacuum AB alpha=0.1571 off-bound"), result.line()


def test_run_verification_rejects_an_unknown_level():
    with pytest.raises(ValueError, match="^level must be 'quick' or 'full'$"):
        verification.run_verification("medium")
