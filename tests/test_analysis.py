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


@pytest.mark.parametrize("model", (Model.DTCM, Model.DJCM))
def test_sweep_runs_in_float64_from_the_channels_to_the_concurrence(monkeypatch, model):
    # the channels are real, so every array the sweep makes from them is too
    names = ("_channels", "_combine", "_x_kernel", "_apply_weights", "_x_margin_terms", "_x_slice_concurrence")
    seen = []

    def spied(name, real):
        def wrapped(*args):
            out = real(*args)
            results = out if isinstance(out, tuple) else (out,)
            seen.extend((name, a.dtype) for a in args + results if isinstance(a, np.ndarray))
            return out

        return wrapped

    for name in names:
        monkeypatch.setattr(analysis, name, spied(name, getattr(analysis, name)))
    thermal = FieldSpec.thermal(1.0)
    sweep_pairs(Scenario(model, BellType.PSI, thermal, VAC), analysis._model_pairs(model), np.array([0.2, 0.9]), np.linspace(0.0, 5.0, 51))
    assert {name for name, _ in seen} == set(names)
    assert all(dtype == np.float64 for _, dtype in seen), seen


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
            W = analysis._scenario_weights(sc, alphas.tolist())
            for pair, kernel in analysis._pair_kernels(sc, analysis._model_pairs(model), tau):
                KX, off_bound, off_residue = analysis._x_kernel(kernel)
                assert off_bound == 0.0 and off_residue == 0.0
                states = np.moveaxis(dynamics._apply_weights(kernel, W), -1, 0)
                slices = np.moveaxis(dynamics._apply_weights(KX, W), -1, 0)
                for alpha, state, X in zip(alphas.tolist(), states, slices):
                    full = _validate_batch(state)
                    closed = analysis._x_margins(X, off_bound, off_residue, full.tol_trace)
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


def trace_weighting(monkeypatch, fault=None, kernel_fault=None):
    """Record every (pair, first tau) whose X slice the sweep weights, optionally faulting the
    pair kernels (``kernel_fault(pair, taus, kernel)``) or a chunk's weighted X slices
    in place (``fault(pair, taus, X)``, X[t, 8, alpha]); returns the record list."""
    channels, combine, apply_weights = analysis._channels, analysis._combine, analysis._apply_weights
    current, weighted = {}, []

    def chunk(model, field_a, field_b, taus):
        current["taus"] = taus
        return channels(model, field_a, field_b, taus)

    def tagged(model, bell_type, Ea, Eb, keep):
        kernel = combine(model, bell_type, Ea, Eb, keep)
        if kernel_fault is not None:
            kernel_fault(keep, current["taus"], kernel)
        current["pair"] = keep
        return kernel

    def recorded(KX, W):
        X = apply_weights(KX, W)
        weighted.append((current["pair"], float(current["taus"][0])))
        if fault is not None:
            fault(current["pair"], current["taus"], X)
        return X

    monkeypatch.setattr(analysis, "_channels", chunk)
    monkeypatch.setattr(analysis, "_combine", tagged)
    monkeypatch.setattr(analysis, "_apply_weights", recorded)
    return weighted


def test_sweep_pairs_validation_failure_names_its_pair_and_alpha(monkeypatch):
    # BD's states at the third and fifth alphas trace to 2 in the last chunk:
    # after the last chunk the first invalid alpha of the first failing pair is named
    sc = Scenario(Model.DTCM, BellType.PSI, VAC, VAC)
    alphas = np.linspace(0.1, 1.3, 5)

    def doubled(pair, taus, X):
        if pair == "BD" and taus[-1] == 3.0:
            X[..., [2, 4]] *= 2.0

    weighted = trace_weighting(monkeypatch, fault=doubled)
    monkeypatch.setattr(analysis, "_SWEEP_CELLS", 256 * 8)  # chunks of 8 taus
    with pytest.raises(NumericalError, match=re.escape(f"pair BD, alpha={alphas[2]}: reduced state failed validation")):
        sweep_pairs(sc, ("AB", "BD"), alphas, np.linspace(0.0, 3.0, 31))
    # every chunk of both pairs is weighted once, for all alphas, before anything raises
    assert [pair for pair, _ in weighted] == ["AB", "BD"] * 4


@pytest.mark.parametrize(("value", "bound"), [(1e-9, "1.000e-09"), (np.nan, "nan")], ids=["1e-9", "nan"])
def test_sweep_pairs_x_shape_failure_names_its_pair(monkeypatch, value, bound):
    # a Hermitian off-pattern entry on CD's first branch: at 1e-9 its weight
    # sin^4(alpha) keeps the state under the X-shape bar at alpha=0.2, but the
    # kernel's bound is over it, so the pair raises
    def off_pattern(pair, taus, kernel):
        if pair == "CD":
            kernel[:, 0, 1, 0] += value
            kernel[:, 1, 0, 0] += value

    weighted = trace_weighting(monkeypatch, kernel_fault=off_pattern)
    sc = Scenario(Model.DTCM, BellType.PHI, VAC, VAC)
    tau = np.linspace(0.0, 3.0, 31)
    message = f"pair CD: reduced state left the X shape: off-pattern bound {bound}"
    with pytest.raises(NumericalError, match=re.escape(message)):
        sweep_pairs(sc, ("CD",), np.array([0.2]), tau)
    assert weighted == [("CD", 0.0)]
    weighted.clear()
    # the valid AB comes first and passes; CD raises after it
    with pytest.raises(NumericalError, match=re.escape(message)):
        sweep_pairs(sc, ("AB", "CD"), np.array([0.2, 0.7]), tau)
    assert weighted == [("AB", 0.0), ("CD", 0.0)]


def test_sweep_pairs_raises_the_whole_grid_bound_of_one_failing_chunk(monkeypatch):
    # BD leaves the X shape in the second of four chunks only: the raised bound is the whole grid's
    def off_pattern(pair, taus, kernel):
        if pair == "BD" and taus[0] == 0.8:
            kernel[:, 0, 1, 0] += 1e-3

    trace_weighting(monkeypatch, kernel_fault=off_pattern)
    monkeypatch.setattr(analysis, "_SWEEP_CELLS", 256 * 8)
    sc = Scenario(Model.DTCM, BellType.PSI, VAC, VAC)
    with pytest.raises(NumericalError, match=re.escape("pair BD: reduced state left the X shape: off-pattern bound 1.000e-03")):
        sweep_pairs(sc, ("BD",), np.array([0.3, 0.9]), np.linspace(0.0, 3.0, 31))


def test_sweep_pairs_double_fault_keeps_pair_order(monkeypatch):
    # AB invalid at its second alpha in the last chunk, BD off the X shape in the
    # first: AB comes first, so its validation error is raised, as on one chunk
    sc = Scenario(Model.DTCM, BellType.PSI, VAC, VAC)
    alphas = np.array([0.3, 0.9, 1.2])

    def off_pattern(pair, taus, kernel):
        if pair == "BD" and taus[0] == 0.0:
            kernel[:, 0, 1, 0] += 1e-3

    def doubled(pair, taus, X):
        if pair == "AB" and taus[-1] == 3.0:
            X[..., 1] *= 2.0

    trace_weighting(monkeypatch, fault=doubled, kernel_fault=off_pattern)
    message = f"pair AB, alpha={alphas[1]}: reduced state failed validation"
    for cells in (256 * 8, analysis._SWEEP_CELLS):  # four chunks, then one
        monkeypatch.setattr(analysis, "_SWEEP_CELLS", cells)
        with pytest.raises(NumericalError, match=re.escape(message)):
            sweep_pairs(sc, ("AB", "BD"), alphas, np.linspace(0.0, 3.0, 31))


def sweep_with_reports(monkeypatch, sc, alphas, tau):
    reports = []
    monkeypatch.setattr(analysis, "_require_ok", lambda report, what: reports.append((what, report)))
    curves = sweep_pairs(sc, analysis._model_pairs(sc.model), alphas, tau)
    return {pair: np.array([c.values for c in cs]) for pair, cs in curves.items()}, reports


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
@pytest.mark.parametrize("bell", list(BellType), ids=lambda b: b.value)
@pytest.mark.parametrize("fld", [VAC, FieldSpec.fock(1), FieldSpec.thermal(1.0)], ids=["vacuum", "fock1", "thermal1"])
def test_sweep_chunk_seams_are_bitwise_invisible(monkeypatch, model, bell, fld):
    # chunks of 10 taus with a 1-tau last chunk give the one-chunk sweep, bit for bit,
    # and both give the margins and concurrence of each whole-grid X slice
    sc = Scenario(model, bell, fld, fld)
    alphas, tau = np.linspace(0.1, 1.5, 3), np.linspace(0.0, 6.0, 31)
    tol_trace = analysis._TOL_TRACE + 2.0 * fld.weight_deficit()
    reference, reference_reports = {}, []
    W = analysis._scenario_weights(sc, alphas.tolist())
    for pair, kernel in analysis._pair_kernels(sc, analysis._model_pairs(model), tau):
        KX, off_bound, off_residue = analysis._x_kernel(kernel)
        stack = np.moveaxis(dynamics._apply_weights(KX, W), -1, 0)  # the all-alpha product, whole grid
        reference[pair] = analysis._x_slice_concurrence(stack)
        reference_reports += [
            (f"pair {pair}, alpha={alpha}: reduced state", analysis._x_margins(X, off_bound, off_residue, tol_trace))
            for alpha, X in zip(alphas.tolist(), stack)
        ]
    whole, whole_reports = sweep_with_reports(monkeypatch, sc, alphas, tau)
    monkeypatch.setattr(analysis, "_SWEEP_CELLS", 256 * 10)
    chunked, chunked_reports = sweep_with_reports(monkeypatch, sc, alphas, tau)
    assert whole.keys() == chunked.keys() == reference.keys()
    for pair in whole:
        np.testing.assert_array_equal(whole[pair], reference[pair])
        np.testing.assert_array_equal(chunked[pair], reference[pair])
    assert whole_reports == chunked_reports == reference_reports


def test_sweep_shares_weights_and_curve_blocks(monkeypatch):
    # one set of weights per alpha for every pair and chunk; each pair's curves
    # are rows of one read-only block
    weights, calls = analysis._branch_weights, []
    monkeypatch.setattr(analysis, "_branch_weights", lambda *args: calls.append(args) or weights(*args))
    monkeypatch.setattr(analysis, "_SWEEP_CELLS", 256 * 4)
    sc = Scenario(Model.DTCM, BellType.PSI, VAC, VAC)
    curves = sweep_pairs(sc, ("AB", "BD"), np.array([0.3, 0.9]), np.linspace(0.0, 1.0, 11))
    assert len(calls) == 2
    for pair in ("AB", "BD"):
        first, second = (c.values for c in curves[pair])
        assert first.base is second.base is not None
        assert not first.flags.writeable


def test_sweep_memory_is_bounded_by_a_chunk():
    # a fig2-shaped sweep over 12,501 taus: the curves take 5.1 MB, the whole-grid
    # channel tensors and kernel it no longer holds would take over 100 MB
    import tracemalloc

    sc = Scenario(Model.DTCM, BellType.PSI, VAC, VAC)
    tracemalloc.start()
    try:
        sweep_concurrence(sc, "AB", np.linspace(0.0, np.pi / 2, 51), np.linspace(0.0, 125.0, 12501))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


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
