"""Unit tests for the assembled multi-atom density matrices."""

from itertools import combinations

import numpy as np
import pytest

from dtcm import dynamics
from dtcm.algebra import _trace_subscripts, partial_trace
from dtcm.analysis import Scenario, classify_regime, sweep_concurrence, sweep_pairs
from dtcm.concurrence import XFormMatrix, concurrence_x
from dtcm.dynamics import (
    BellPairSpec,
    BellType,
    FieldSpec,
    Model,
    assemble_atomic_state,
)
from dtcm.errors import NumericalError
from dtcm.oracle import compare_pipelines, oracle_atomic_grid


def pair_vector(spec):
    a0, a1 = spec.amplitudes()
    vec = np.zeros(4, dtype=complex)
    if spec.bell_type is BellType.PSI:
        vec[0b01], vec[0b10] = a0, a1
    else:
        vec[0b00], vec[0b11] = a0, a1
    return vec


def test_initial_state_is_the_prepared_projector():
    for bell in (BellType.PSI, BellType.PHI):
        for alpha in (0.0, 0.3, np.pi / 4, 1.2):
            ab = BellPairSpec(bell, alpha)
            cd = BellPairSpec(bell, alpha)
            rho = assemble_atomic_state(ab, cd, FieldSpec.vacuum(), FieldSpec.vacuum(), 0.0)
            assert rho.labels == ("A", "B", "C", "D")
            vec = np.kron(pair_vector(ab), pair_vector(cd))
            np.testing.assert_allclose(rho.matrix, np.outer(vec, vec.conj()), atol=1e-14)


def test_initial_state_pure_for_fock_fields():
    ab = BellPairSpec(BellType.PSI, 0.8)
    rho = assemble_atomic_state(ab, ab, FieldSpec.fock(2), FieldSpec.fock(1), 0.0)
    purity = np.trace(rho.matrix @ rho.matrix).real
    np.testing.assert_allclose(purity, 1.0, atol=1e-12)


def test_balanced_pairs_leave_cross_pair_maximally_mixed():
    ab = BellPairSpec(BellType.PSI, np.pi / 4)
    rho = assemble_atomic_state(ab, ab, FieldSpec.vacuum(), FieldSpec.vacuum(), 0.0)
    for pair in (("B", "D"), ("A", "C")):
        reduced = partial_trace(rho, pair)
        np.testing.assert_allclose(reduced.matrix, np.eye(4) / 4.0, atol=1e-14)


def test_djcm_psi_closed_form():
    # one atom per cavity, vacuum fields: C(tau) = |sin 2a| cos^2(tau)
    taus = np.linspace(0.0, 9.0, 181)
    for alpha in (0.2, np.pi / 4, 1.1):
        pair = BellPairSpec(BellType.PSI, alpha)
        values = []
        for tau in taus:
            rho = assemble_atomic_state(
                pair, pair, FieldSpec.vacuum(), FieldSpec.vacuum(), float(tau), model=Model.DJCM
            )
            assert rho.labels == ("A", "B")
            values.append(concurrence_x(XFormMatrix.from_matrix(rho.matrix)))
        expected = abs(np.sin(2.0 * alpha)) * np.cos(taus) ** 2
        np.testing.assert_allclose(values, expected, atol=1e-12)


def test_djcm_phi_closed_form():
    # C(tau) = 2 cos(a) cos^2(tau) max(0, sin(a) - cos(a) sin^2(tau))
    taus = np.linspace(0.0, 9.0, 181)
    for alpha in (0.3, np.pi / 4, 1.2):
        pair = BellPairSpec(BellType.PHI, alpha)
        values = []
        for tau in taus:
            rho = assemble_atomic_state(
                pair, pair, FieldSpec.vacuum(), FieldSpec.vacuum(), float(tau), model=Model.DJCM
            )
            values.append(concurrence_x(XFormMatrix.from_matrix(rho.matrix)))
        s, c = np.sin(alpha), np.cos(alpha)
        expected = 2.0 * c * np.cos(taus) ** 2 * np.maximum(0.0, s - c * np.sin(taus) ** 2)
        np.testing.assert_allclose(values, expected, atol=1e-12)


def test_djcm_requires_identical_pairs():
    a = BellPairSpec(BellType.PSI, 0.5)
    b = BellPairSpec(BellType.PSI, 0.6)
    with pytest.raises(ValueError):
        assemble_atomic_state(a, b, FieldSpec.vacuum(), FieldSpec.vacuum(), 1.0, model=Model.DJCM)


def test_unknown_model_rejected():
    # the model's name as a string is not a layout
    pair = BellPairSpec(BellType.PSI, 0.5)
    with pytest.raises(ValueError, match="unknown model"):
        assemble_atomic_state(pair, pair, FieldSpec.vacuum(), FieldSpec.vacuum(), 1.0, model="DTCM")


VAC = FieldSpec.vacuum()
PSI_PAIR = BellPairSpec(BellType.PSI, 0.5)
TAUS = np.linspace(0.0, 1.0, 3)
NAMED_ONLY = Scenario("DTCM", BellType.PSI, VAC, VAC)  # the model's name, not the Model


@pytest.mark.parametrize(
    "call",
    [
        lambda: sweep_pairs(NAMED_ONLY, ("AB",), np.array([0.5]), TAUS),
        lambda: sweep_concurrence(NAMED_ONLY, "AB", np.array([0.5]), TAUS),
        lambda: compare_pipelines(NAMED_ONLY, 0.5, TAUS),
        lambda: classify_regime(BellType.PSI, 0.5, "DTCM", VAC, VAC),
        lambda: assemble_atomic_state(PSI_PAIR, PSI_PAIR, VAC, VAC, 1.0, model="DTCM"),
        lambda: oracle_atomic_grid(PSI_PAIR, PSI_PAIR, VAC, VAC, TAUS, 6, model="DTCM"),
    ],
    ids=["sweep_pairs", "sweep_concurrence", "compare_pipelines", "classify_regime", "assemble_atomic_state", "oracle_atomic_grid"],
)
def test_unknown_model_is_a_value_error_everywhere(call):
    with pytest.raises(ValueError, match=r"^unknown model 'DTCM'$"):
        call()


@pytest.mark.parametrize(
    ("alpha", "message"),
    [(3.2, "alpha: values must lie in [0, pi]"), (np.nan, "alpha: values must be finite")],
    ids=["out-of-range", "nan"],
)
def test_bad_angle_is_one_message_everywhere(alpha, message):
    scenario = Scenario(Model.DTCM, BellType.PSI, VAC, VAC)
    calls = [
        lambda: BellPairSpec(BellType.PSI, alpha),
        lambda: classify_regime(BellType.PSI, alpha, Model.DTCM, VAC, VAC),
        lambda: assemble_atomic_state(BellPairSpec(BellType.PSI, alpha), PSI_PAIR, VAC, VAC, 1.0),
        lambda: compare_pipelines(scenario, alpha, TAUS),
        lambda: sweep_pairs(scenario, ("AB",), np.array([alpha]), TAUS),
    ]
    for call in calls:
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message


def test_invalid_state_names_the_assembled_state(monkeypatch):
    # doubled preparation weights give a state of trace 2
    real = dynamics._branch_weights
    monkeypatch.setattr(dynamics, "_branch_weights", lambda *args: 2.0 * real(*args))
    pair = BellPairSpec(BellType.PHI, 0.5)
    with pytest.raises(NumericalError, match=r"^assembled state failed validation: hermiticity .*, trace 1\.000e\+00, "):
        assemble_atomic_state(pair, pair, FieldSpec.vacuum(), FieldSpec.vacuum(), 1.0)


def test_mixed_bell_types_rejected():
    psi = BellPairSpec(BellType.PSI, 0.5)
    phi = BellPairSpec(BellType.PHI, 0.5)
    with pytest.raises(ValueError):
        assemble_atomic_state(psi, phi, FieldSpec.vacuum(), FieldSpec.vacuum(), 1.0)


def test_pairs_may_differ_in_alpha():
    ab = BellPairSpec(BellType.PSI, 0.4)
    cd = BellPairSpec(BellType.PSI, 1.0)
    rho = assemble_atomic_state(ab, cd, FieldSpec.vacuum(), FieldSpec.vacuum(), 0.0)
    vec = np.kron(pair_vector(ab), pair_vector(cd))
    np.testing.assert_allclose(rho.matrix, np.outer(vec, vec.conj()), atol=1e-14)


def test_thermal_truncation_shows_up_only_in_trace():
    field = FieldSpec.thermal(1.0)
    deficit = field.weight_deficit()
    ab = BellPairSpec(BellType.PSI, np.pi / 4)
    rho = assemble_atomic_state(ab, ab, field, field, 1.5)
    trace = np.trace(rho.matrix).real
    assert 1.0 - 2.1 * deficit <= trace <= 1.0
    np.testing.assert_allclose(rho.matrix, rho.matrix.conj().T, atol=1e-14)


def test_alpha_range_is_validated():
    with pytest.raises(ValueError):
        BellPairSpec(BellType.PSI, -0.1)
    with pytest.raises(ValueError):
        BellPairSpec(BellType.PSI, 3.5)
    with pytest.raises(ValueError):
        BellPairSpec("psi", 0.5)


@pytest.mark.parametrize("nbar", [12.0, 16.0])
def test_hot_thermal_weights_stay_finite(nbar):
    # nbar^m / (1+nbar)^(m+1) overflows to nan at these truncation depths
    field = FieldSpec.thermal(nbar)
    _, ps = field.weights()
    assert np.all(np.isfinite(ps))
    assert abs(ps.sum() + field.weight_deficit() - 1.0) <= 1e-12
    pair = BellPairSpec(BellType.PSI, 0.6)
    rho = assemble_atomic_state(pair, pair, field, field, 1.3)
    assert np.isfinite(rho.matrix).all()


def einsum_combine(model, bell_type, Ea, Eb, keep):
    """The kernel as one optimized einsum over the traced channels, the way it was first written."""
    if bell_type is BellType.PSI:
        Eb = Eb[..., ::-1, ::-1]
    traced, axes, order = [], [], ""
    for E, labels in zip((Ea, Eb), dynamics._cavity_labels(model)):
        kept = "".join(lab for lab in labels if lab in keep)
        state, reduced = _trace_subscripts(labels, kept)
        qubits = E.reshape(E.shape[:1] + (2,) * (2 * len(labels)) + E.shape[-2:])
        axes.append(f"t{reduced}sz")
        traced.append(np.einsum(f"t{state}sz->{axes[-1]}", qubits))
        order += kept
    order = "".join(sorted(order))
    K = np.einsum(f"{axes[0]},{axes[1]}->t{order}{order.lower()}sz", *traced, optimize=True)
    d = 2 ** len(order)
    return K.reshape(Ea.shape[0], d, d, Ea.shape[-1] ** 2)


@pytest.mark.parametrize("n_tau", (1, 251))
@pytest.mark.parametrize("bell", (BellType.PSI, BellType.PHI))
@pytest.mark.parametrize("model", (Model.DTCM, Model.DJCM))
def test_combine_is_bitwise_the_optimized_einsum(model, bell, n_tau):
    taus = np.linspace(0.0, 25.0, n_tau) + 1.3
    Ea, Eb = dynamics._channels(model, FieldSpec.thermal(1.0), FieldSpec.fock(1), taus)
    qubits = "".join(sorted("".join(dynamics._cavity_labels(model))))
    for size in range(1, len(qubits) + 1):
        for keep in map("".join, combinations(qubits, size)):
            K = dynamics._combine(model, bell, Ea, Eb, keep)
            assert K.flags.c_contiguous
            assert K.tobytes() == einsum_combine(model, bell, Ea, Eb, keep).tobytes(), keep
