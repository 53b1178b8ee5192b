"""Unit tests for regime classification, sweeps and event detection."""

import re

import numpy as np
import pytest

from dtcm import analysis, dynamics, verification
from dtcm.algebra import _validate_batch
from dtcm.analysis import (
    ConcurrenceCurve,
    EsdEvents,
    Regime,
    Scenario,
    classify_regime,
    detect_esb,
    detect_esd,
    sweep_concurrence,
    sweep_pairs,
)
from dtcm.concurrence import _concurrence_x_batch
from dtcm.dynamics import BellPairSpec, BellType, FieldSpec, Model
from dtcm.errors import NumericalError

VAC = FieldSpec.vacuum()


def curve(values, tau=None):
    values = np.asarray(values, dtype=float)
    if tau is None:
        tau = np.arange(values.size, dtype=float)
    return ConcurrenceCurve(pair="AB", alpha=0.3, tau=tau, values=values)


# ---------------------------------------------------------------------------
# regime classification
# ---------------------------------------------------------------------------


def test_regime_two_excitations_always_strong():
    for alpha in (0.0, 0.4, np.pi / 4, 1.5):
        report = classify_regime(BellType.PSI, alpha, Model.DTCM, VAC, VAC)
        assert report.verdict is Regime.STRONG
        assert report.p_at_least == 1.0 and report.p_below == 0.0
        assert report.predicted_esd and report.n_cavities == 2


def test_regime_single_shared_excitation_always_weak():
    for alpha in (0.0, 0.7, np.pi / 4):
        report = classify_regime(BellType.PSI, alpha, Model.DJCM, VAC, VAC)
        assert report.verdict is Regime.WEAK
        assert report.p_at_least == 0.0 and not report.predicted_esd


def test_regime_doubly_excited_counting():
    # two-pair layout: fewer than two excited atoms only for the all-ground
    # branch, so p_at_least = 1 - sin^4(alpha)
    alpha = 0.6
    report = classify_regime(BellType.PHI, alpha, Model.DTCM, VAC, VAC)
    np.testing.assert_allclose(report.p_at_least, 1.0 - np.sin(alpha) ** 4, atol=1e-15)
    np.testing.assert_allclose(report.p_below, np.sin(alpha) ** 4, atol=1e-15)

    assert classify_regime(BellType.PHI, np.pi / 2, Model.DTCM, VAC, VAC).verdict is Regime.WEAK
    just_below = np.arcsin(np.sqrt(1.0 / np.sqrt(2.0) - 0.01))
    assert classify_regime(BellType.PHI, just_below, Model.DTCM, VAC, VAC).predicted_esd
    just_above = np.arcsin(np.sqrt(1.0 / np.sqrt(2.0) + 0.01))
    assert not classify_regime(BellType.PHI, just_above, Model.DTCM, VAC, VAC).predicted_esd


def test_regime_boundary_flips_at_balanced_count():
    # single-excitation doubly-excited branch balances at alpha = pi/4
    below = classify_regime(BellType.PHI, np.pi / 4 - 1e-6, Model.DJCM, VAC, VAC)
    above = classify_regime(BellType.PHI, np.pi / 4 + 1e-6, Model.DJCM, VAC, VAC)
    assert below.verdict is Regime.STRONG and above.verdict is Regime.WEAK
    # the verdict is exactly the strict comparison of the two counts
    for alpha in (np.pi / 4, 0.3, 1.2):
        report = classify_regime(BellType.PHI, alpha, Model.DJCM, VAC, VAC)
        assert (report.verdict is Regime.STRONG) == (report.p_at_least > report.p_below)
        assert report.predicted_esd == (report.verdict is Regime.STRONG)


def test_regime_photons_force_strong():
    for field in (FieldSpec.fock(1), FieldSpec.thermal(0.2)):
        report = classify_regime(BellType.PSI, 0.3, Model.DJCM, field, VAC)
        assert report.verdict is Regime.STRONG
        assert report.p_at_least == 1.0 and report.p_below == 0.0 and report.predicted_esd
    # an explicit zero-photon Fock state is still the vacuum
    report = classify_regime(BellType.PSI, 0.3, Model.DJCM, FieldSpec.fock(0), FieldSpec.fock(0))
    assert report.verdict is Regime.WEAK


def test_regime_validates_alpha():
    with pytest.raises(ValueError):
        classify_regime(BellType.PSI, -0.2, Model.DTCM, VAC, VAC)


# ---------------------------------------------------------------------------
# event detection on synthetic curves
# ---------------------------------------------------------------------------


def test_esd_window_detected():
    c = curve([0.5, 0.4, 0.0, 1e-12, 0.0, 0.0, 0.3, 0.6])
    events = detect_esd(c)
    assert events.esd_found
    assert events.death_time == 2.0 and events.revival_time == 6.0
    np.testing.assert_allclose(events.zero_interval_length, 4.0)
    assert events.touch_times == ()


def test_esd_short_dip_is_a_touch():
    c = curve([0.5, 0.0, 0.4, 0.0, 0.0, 0.6])
    events = detect_esd(c)
    assert not events.esd_found
    assert events.touch_times == (1.0, 3.0)
    # with a looser window requirement the first dip qualifies
    strict = detect_esd(c, min_zero_points=1)
    assert strict.death_time == 1.0 and strict.revival_time == 2.0


def test_esd_requires_entanglement_on_both_sides():
    assert not detect_esd(curve([0.0] * 6)).esd_found
    # born later: the leading dead stretch is not a death window
    assert not detect_esd(curve([0.0, 0.0, 0.0, 0.2, 0.5])).esd_found
    # dies for good within the window: no revival is observed, so no event
    trailing = detect_esd(curve([0.5, 0.3, 0.0, 0.0, 0.0]))
    assert not trailing.esd_found and trailing.zero_interval_length == 0.0


def test_esd_zero_tolerance():
    c = curve([0.5, 1e-8, 1e-8, 1e-8, 0.5])
    assert not detect_esd(c, zero_tol=1e-9).esd_found
    assert detect_esd(c, zero_tol=1e-7).esd_found
    with pytest.raises(ValueError):
        detect_esd(c, min_zero_points=0)


@pytest.mark.parametrize("zero_tol", [np.nan, 0.0, -1e-9, np.inf], ids=str)
def test_event_detection_rejects_a_bad_zero_tolerance(zero_tol):
    # each of these used to report "no events" on a curve with a dead window
    c = curve([0.5, 0.0, 0.0, 0.0, 0.5])
    assert detect_esd(c).esd_found
    with pytest.raises(ValueError, match="^zero_tol must be finite and positive$"):
        detect_esd(c, zero_tol=zero_tol)
    with pytest.raises(ValueError, match="^zero_tol must be finite and positive$"):
        detect_esb(c, zero_tol=zero_tol)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=str)
def test_curve_rejects_non_finite_samples(bad):
    with pytest.raises(ValueError, match="^tau and values must be finite$"):
        curve([0.5, bad, 0.5])
    with pytest.raises(ValueError, match="^tau and values must be finite$"):
        curve([0.5, 0.1, 0.5], tau=[0.0, bad, 2.0])


def test_curves_never_freeze_the_callers_arrays():
    taus, alphas = np.linspace(0.0, 5.0, 11), np.array([0.3, 0.9])
    scenario = Scenario(Model.DTCM, BellType.PSI, VAC, VAC)
    curves = sweep_pairs(scenario, ("AB", "BD"), alphas, taus)
    taus[0] = 0.5
    alphas[0] = 0.1
    # one read-only copy of the grid, shared by every curve of the sweep
    grids = {id(c.tau) for cs in curves.values() for c in cs}
    assert len(grids) == 1 and curves["AB"][0].tau[0] == 0.0
    t, v = np.arange(4.0), np.zeros(4)
    c = ConcurrenceCurve("AB", 0.3, t, v)
    t[0] = v[0] = 1.0
    assert c.tau[0] == 0.0 and c.values[0] == 0.0
    for held in (curves["AB"][0].tau, curves["BD"][1].values, c.tau, c.values):
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 2.0


def test_esd_reports_first_window():
    c = curve([0.4, 0.0, 0.0, 0.0, 0.2, 0.0, 0.0, 0.0, 0.1])
    events = detect_esd(c)
    assert events.death_time == 1.0 and events.revival_time == 4.0


def test_esd_events_pairing_validated():
    with pytest.raises(ValueError):
        EsdEvents(death_time=1.0, revival_time=None)
    with pytest.raises(ValueError):
        EsdEvents(death_time=2.0, revival_time=1.0)


def reference_zero_runs(below):
    runs, start = [], None
    for idx, flag in enumerate(below):
        if flag and start is None:
            start = idx
        elif not flag and start is not None:
            runs.append((start, idx))
            start = None
    if start is not None:
        runs.append((start, len(below)))
    return runs


def test_zero_runs_matches_reference_loop():
    rng = np.random.default_rng(20261018)
    masks = [rng.random(size) < fill for size in (1, 2, 7, 50, 500) for fill in (0.2, 0.5, 0.9)]
    masks += [
        np.zeros(0, dtype=bool),
        np.ones(9, dtype=bool),
        np.zeros(9, dtype=bool),
        np.array([True, True, False, False, True, False]),  # leading run
        np.array([False, True, False, True, True, True]),  # trailing run
    ]
    for below in masks:
        runs = analysis._zero_runs(below)
        assert runs == reference_zero_runs(below)
        assert all(type(i) is int for run in runs for i in run)


def test_esb_onset():
    events = detect_esb(curve([0.0, 0.0, 0.0, 0.1, 0.4]))
    assert events.birth_time == 2.0
    np.testing.assert_allclose(events.zero_interval_length, 2.0)
    # entangled from the second sample: born at the grid origin
    assert detect_esb(curve([0.0, 0.2, 0.4])).birth_time == 0.0
    # already entangled: trivially born at the start
    assert detect_esb(curve([0.5, 0.6])).birth_time == 0.0
    # never entangled
    flat = detect_esb(curve([0.0, 0.0, 0.0]))
    assert flat.birth_time is None and not flat.esd_found


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_returns_labeled_curves():
    sc = Scenario(Model.DTCM, BellType.PSI, VAC, VAC)
    alphas = np.array([0.2, 0.8])
    tau = np.linspace(0.0, 2.0, 21)
    curves = sweep_concurrence(sc, "AC", alphas, tau)
    assert [c.alpha for c in curves] == [0.2, 0.8]
    for c in curves:
        assert c.pair == "AC"
        np.testing.assert_allclose(c.tau, tau, atol=0.0)
        assert np.all(c.values >= 0.0) and np.all(c.values <= 1.0)


def test_sweep_validates_inputs():
    sc = Scenario(Model.DTCM, BellType.PSI, VAC, VAC)
    tau = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        sweep_concurrence(sc, "XY", np.array([0.3]), tau)
    with pytest.raises(ValueError):
        sweep_concurrence(sc, "AB", np.array([0.3, 0.2]), tau)  # not increasing
    with pytest.raises(ValueError):
        sweep_concurrence(sc, "AB", np.array([-0.1]), tau)
    with pytest.raises(ValueError):
        sweep_concurrence(sc, "AB", np.array([0.3]), np.array([1.0, 0.5]))
    djcm = Scenario(Model.DJCM, BellType.PSI, VAC, VAC)
    with pytest.raises(ValueError):
        sweep_concurrence(djcm, "CD", np.array([0.3]), tau)


def count_channel_builds(monkeypatch) -> list:
    calls = []
    real = dynamics._channel_tensor

    def counted(field, taus, n_atoms):
        calls.append(field)
        return real(field, taus, n_atoms)

    monkeypatch.setattr(dynamics, "_channel_tensor", counted)
    return calls


def test_sweep_pairs_builds_each_channel_once(monkeypatch):
    calls = count_channel_builds(monkeypatch)
    thermal = FieldSpec.thermal(1.0)
    tau = np.linspace(0.0, 5.0, 51)
    alphas = np.array([0.2, 0.9])
    curves = sweep_pairs(Scenario(Model.DTCM, BellType.PSI, thermal, thermal), ("AB", "BD"), alphas, tau)
    assert calls == [thermal]
    assert sorted(curves) == ["AB", "BD"]
    assert all(len(curves[pair]) == alphas.size for pair in curves)
    calls.clear()
    sweep_pairs(Scenario(Model.DTCM, BellType.PSI, thermal, VAC), ("AB", "BD"), alphas, tau)
    assert calls == [thermal, VAC]


def test_state_validity_builds_one_channel_per_scenario(monkeypatch):
    calls = count_channel_builds(monkeypatch)
    result = verification.suite_state_validity()
    assert result.passed, result.line()
    assert len(calls) == 6


def test_sweep_concurrence_is_sweep_pairs_for_one_pair():
    sc = Scenario(Model.DTCM, BellType.PHI, FieldSpec.fock(1), VAC)
    alphas = np.array([0.3, 1.2])
    tau = np.linspace(0.0, 4.0, 41)
    both = sweep_pairs(sc, ("AC", "BD"), alphas, tau)
    for pair in ("AC", "BD"):
        for one, shared in zip(sweep_concurrence(sc, pair, alphas, tau), both[pair]):
            assert (one.pair, one.alpha) == (shared.pair, shared.alpha)
            np.testing.assert_array_equal(one.values, shared.values)


def stacked_route(scenario, pair, alphas, taus):
    """Per alpha, the stacked product of the pair kernel with that alpha's weights."""
    channels = dynamics._channels(scenario.model, scenario.field_a, scenario.field_b, taus)
    kernel = dynamics._combine(scenario.model, scenario.bell_type, *channels, pair)
    states = []
    for alpha in alphas:
        spec = BellPairSpec(scenario.bell_type, float(alpha))
        states.append(kernel @ dynamics._branch_weights(scenario.model, spec, spec))
    return states


@pytest.mark.parametrize("model", (Model.DTCM, Model.DJCM))
@pytest.mark.parametrize("bell", (BellType.PSI, BellType.PHI))
def test_sweep_pairs_matches_stacked_route(model, bell):
    thermal = FieldSpec.thermal(0.5)
    pairs = ("AB", "AC", "BD", "CD") if model is Model.DTCM else ("AB",)
    alphas = np.linspace(0.1, 1.4, 4)
    tau = np.linspace(0.0, 12.0, 121)
    for field_b in (thermal, FieldSpec.fock(1)):
        sc = Scenario(model, bell, thermal, field_b)
        curves = sweep_pairs(sc, pairs, alphas, tau)
        for pair in pairs:
            for curve, stacked in zip(curves[pair], stacked_route(sc, pair, alphas, tau)):
                np.testing.assert_allclose(curve.values, _concurrence_x_batch(stacked), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("model", (Model.DTCM, Model.DJCM))
@pytest.mark.parametrize("bell", (BellType.PSI, BellType.PHI))
def test_closed_form_margins_match_the_full_states(model, bell):
    fields = (VAC, FieldSpec.fock(1), FieldSpec.thermal(1.0, 1e-13), FieldSpec.thermal(2.0))
    alphas = np.linspace(0.0, np.pi / 2, 5)
    tau = np.linspace(0.0, 12.0, 61)
    for field_a in fields:
        for field_b in fields:
            sc = Scenario(model, bell, field_a, field_b)
            for pair, kernel in analysis._pair_kernels(sc, analysis._model_pairs(model), tau):
                KX, off_bound, off_residue = analysis._x_kernel(kernel)
                assert off_bound == 0.0 and off_residue == 0.0
                for alpha in alphas.tolist():
                    w = analysis._scenario_weights(sc, alpha)
                    full = _validate_batch(dynamics._apply_weights(kernel, w))
                    closed = analysis._x_margins(dynamics._apply_weights(KX, w), off_bound, off_residue, full.tol_trace)
                    assert closed.hermiticity_deviation == full.hermiticity_deviation
                    assert closed.trace_deviation == full.trace_deviation
                    assert closed.min_eigenvalue <= full.min_eigenvalue + 1e-15, (pair, alpha)


def test_closed_form_minimum_subtracts_the_off_pattern_bound():
    # an X state with both blocks at eigenvalues {0, 1/2}, then an off-pattern bound
    X = np.array([[0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25]], dtype=complex)
    assert analysis._x_margins(X, 0.0, 0.0, 1e-12).min_eigenvalue == 0.0
    report = analysis._x_margins(X, 1e-3, 0.0, 1e-12)
    assert report.min_eigenvalue == -np.sqrt(8.0) * 1e-3 and not report.psd_ok


def test_closed_form_hermiticity_carries_a_nan_inner_coherence():
    # a NaN in the second of the three Hermiticity terms must not be dropped
    X = np.array([[0.25, 0.25, 0.25, 0.25, 0.25, np.nan, 0.25, 0.25]], dtype=complex)
    report = analysis._x_margins(X, 0.0, 0.0, 1e-12)
    assert np.isnan(report.hermiticity_deviation) and not report.hermitian_ok


def test_sweep_pairs_validation_failure_names_its_pair_and_alpha(monkeypatch):
    # scale the weights of BD's third alpha so its states trace to 2
    real = dynamics._branch_weights
    calls = []

    def faulty(model, pair_ab, pair_cd):
        calls.append(pair_ab.alpha)
        w = real(model, pair_ab, pair_cd)
        return 2.0 * w if len(calls) == 5 + 3 else w

    monkeypatch.setattr(analysis, "_branch_weights", faulty)
    sc = Scenario(Model.DTCM, BellType.PSI, VAC, VAC)
    alphas = np.linspace(0.1, 1.3, 5)
    with pytest.raises(NumericalError, match=re.escape(f"pair BD, alpha={alphas[2]}: reduced state failed validation")):
        sweep_pairs(sc, ("AB", "BD"), alphas, np.linspace(0.0, 3.0, 31))
    assert len(calls) == 5 + 3


@pytest.mark.parametrize(("value", "bound"), [(1e-9, "1.000e-09"), (np.nan, "nan")], ids=["1e-9", "nan"])
def test_sweep_pairs_x_shape_failure_names_its_pair(monkeypatch, value, bound):
    # a Hermitian off-pattern entry on CD's first branch: at 1e-9 its weight
    # sin^4(alpha) keeps the state under the X-shape bar at alpha=0.2, but the
    # kernel's bound is over it, so the pair raises before any alpha is weighted
    real = analysis._combine

    def faulty(model, bell_type, Ea, Eb, keep):
        kernel = real(model, bell_type, Ea, Eb, keep)
        if keep == "CD":
            kernel[:, 0, 1, 0] += value
            kernel[:, 1, 0, 0] += value
        return kernel

    weights = dynamics._branch_weights
    calls = []

    def counted(model, pair_ab, pair_cd):
        calls.append(pair_ab.alpha)
        return weights(model, pair_ab, pair_cd)

    monkeypatch.setattr(analysis, "_combine", faulty)
    monkeypatch.setattr(analysis, "_branch_weights", counted)
    sc = Scenario(Model.DTCM, BellType.PHI, VAC, VAC)
    tau = np.linspace(0.0, 3.0, 31)
    message = f"pair CD: reduced state left the X shape: off-pattern bound {bound}"
    with pytest.raises(NumericalError, match=re.escape(message)):
        sweep_pairs(sc, ("CD",), np.array([0.2]), tau)
    assert not calls
    # AB's curves are made, then CD raises before any of its alphas
    with pytest.raises(NumericalError, match=re.escape(message)):
        sweep_pairs(sc, ("AB", "CD"), np.array([0.2, 0.7]), tau)
    assert calls == [0.2, 0.7]


def test_x_kernel_carries_nan_to_bound_and_residue():
    kernel = np.zeros((3, 4, 4, 16), dtype=complex)
    kernel[1, 0, 2, 5] = np.nan
    _, off_bound, off_residue = analysis._x_kernel(kernel)
    assert np.isnan(off_bound) and np.isnan(off_residue)


def test_sweep_pairs_validates_pairs():
    sc = Scenario(Model.DTCM, BellType.PSI, VAC, VAC)
    tau = np.linspace(0.0, 1.0, 5)
    alphas = np.array([0.3])
    for pairs in ((), ("AB", "AB"), ("AB", "XY")):
        with pytest.raises(ValueError):
            sweep_pairs(sc, pairs, alphas, tau)
    with pytest.raises(ValueError):
        sweep_pairs(Scenario(Model.DJCM, BellType.PSI, VAC, VAC), ("AB", "CD"), alphas, tau)


def test_model_pairs_follow_the_cavity_layout():
    assert analysis._model_pairs(Model.DTCM) == ("AB", "CD", "AC", "BD")
    assert analysis._model_pairs(Model.DJCM) == ("AB",)
    assert analysis._PAIR_POSITIONS == {"AB": (0, 1), "CD": (2, 3), "AC": (0, 2), "BD": (1, 3)}


# ---------------------------------------------------------------------------
# counting rule vs exact curves
# ---------------------------------------------------------------------------


def test_regime_prediction_vs_exact_curves():
    # The counting rule is exact for the one-excitation-per-pair preparation
    # and for the single-atom-per-cavity layout.  For the doubly excited
    # preparation over vacuum in the two-pair layout it overstates the
    # sudden-death domain: the exact curves keep a strictly positive floor
    # once sin^2(alpha) grows past roughly 0.36, well short of the counting
    # boundary sin^2(alpha) = 1/sqrt(2).  Agreement is asserted everywhere
    # outside that documented gap.
    tau = np.linspace(0.0, 25.0, 1001)
    alphas = np.arange(1, 10) * 0.05 * np.pi
    gap_lo, gap_hi = 0.20 * np.pi + 1e-9, np.arcsin(2.0 ** -0.25)

    for model in (Model.DTCM, Model.DJCM):
        for bell in (BellType.PSI, BellType.PHI):
            sc = Scenario(model, bell, VAC, VAC)
            for c in sweep_concurrence(sc, "AB", alphas, tau):
                predicted = classify_regime(bell, c.alpha, model, VAC, VAC).predicted_esd
                found = detect_esd(c).esd_found
                if model is Model.DTCM and bell is BellType.PHI and gap_lo < c.alpha < gap_hi:
                    assert predicted and not found
                elif model is Model.DJCM and bell is BellType.PHI and abs(c.alpha - np.pi / 4) < 1e-9:
                    # knife edge: the strict count comparison is decided by
                    # the last ulp here, while the exact curve only touches
                    assert not found
                else:
                    assert predicted == found, (model, bell, c.alpha)
