"""Unit tests for the brute-force evolution oracle."""

import numpy as np
import pytest

from dtcm.algebra import DensityMatrix, partial_trace
from dtcm.analysis import PAIR_CHOICES, Scenario, sweep_concurrence
from dtcm.concurrence import concurrence_general
from dtcm.dynamics import (
    BellPairSpec,
    BellType,
    FieldSpec,
    Model,
    XCoefficientKey,
    assemble_atomic_state,
    x_coeff,
)
from dtcm.errors import CutoffLeakageError
from dtcm import oracle
from dtcm.oracle import (
    build_tc_hamiltonian,
    compare_pipelines,
    evolution_operator,
    oracle_atomic_grid,
    oracle_evolve,
)

BITS = ((0, 0), (0, 1), (1, 0), (1, 1))


def idx(H, bits, m):
    return bits * (H.n_max + 1) + m


def test_hamiltonian_matrix_elements():
    H = build_tc_hamiltonian(n_max=3, n_atoms=2)
    # the first atom emits: |11,0> -> |01,1> with amplitude sqrt(1)
    assert H.matrix[idx(H, 0b01, 1), idx(H, 0b11, 0)] == pytest.approx(1.0)
    # the second atom emits: |01,0> -> |00,1>
    assert H.matrix[idx(H, 0b00, 1), idx(H, 0b01, 0)] == pytest.approx(1.0)
    # bosonic enhancement: |01,1> -> |00,2> carries sqrt(2)
    assert H.matrix[idx(H, 0b00, 2), idx(H, 0b01, 1)] == pytest.approx(np.sqrt(2.0))
    # no coupling between the two atoms directly
    assert H.matrix[idx(H, 0b01, 0), idx(H, 0b10, 0)] == 0.0
    # coupling scale is linear
    H2 = build_tc_hamiltonian(n_max=3, n_atoms=2, coupling=2.5)
    np.testing.assert_allclose(H2.matrix, 2.5 * H.matrix, atol=0.0)


def test_hamiltonian_is_real_symmetric():
    for n_atoms in (1, 2):
        H = build_tc_hamiltonian(n_max=4, n_atoms=n_atoms)
        assert np.isrealobj(H.matrix)
        np.testing.assert_allclose(H.matrix, H.matrix.T, atol=0.0)


def test_hamiltonian_conserves_excitation():
    H = build_tc_hamiltonian(n_max=5, n_atoms=2)
    number = np.diag([sum(bits) + m for bits, m in H.basis]).astype(float)
    np.testing.assert_allclose(H.matrix @ number, number @ H.matrix, atol=0.0)


def test_single_excitation_spectrum():
    # two atoms sharing one quantum: collective splitting sqrt(2)
    H = build_tc_hamiltonian(n_max=2, n_atoms=2)
    levels = np.array([sum(bits) + m for bits, m in H.basis])
    block = H.matrix[np.ix_(levels == 1, levels == 1)]
    np.testing.assert_allclose(np.linalg.eigvalsh(block), [-np.sqrt(2.0), 0.0, np.sqrt(2.0)], atol=1e-12)
    # one atom: bare exchange splitting 1
    H1 = build_tc_hamiltonian(n_max=2, n_atoms=1)
    levels1 = np.array([sum(bits) + m for bits, m in H1.basis])
    block1 = H1.matrix[np.ix_(levels1 == 1, levels1 == 1)]
    np.testing.assert_allclose(np.linalg.eigvalsh(block1), [-1.0, 1.0], atol=1e-12)


def test_evolution_operator_unitary():
    H = build_tc_hamiltonian(n_max=4, n_atoms=2)
    np.testing.assert_allclose(evolution_operator(H, 0.0), np.eye(H.dim), atol=1e-14)
    U = evolution_operator(H, 1.7)
    np.testing.assert_allclose(U @ U.conj().T, np.eye(H.dim), atol=1e-13)


def test_evolution_reproduces_transition_amplitudes():
    # columns of exp(-iH tau) against the closed-form amplitudes
    H = build_tc_hamiltonian(n_max=8, n_atoms=2)
    for tau in (0.45, 1.8):
        U = evolution_operator(H, tau)
        for i, k in BITS:
            for m in (0, 1, 3):
                col = idx(H, 2 * i + k, m)
                for p, q in BITS:
                    photon = m + (i + k) - ((i ^ p) + (k ^ q))
                    if not 0 <= photon <= H.n_max:
                        continue
                    row = idx(H, 2 * (i ^ p) + (k ^ q), photon)
                    expected = x_coeff(XCoefficientKey(i, k, p, q, m, tau))
                    np.testing.assert_allclose(U[row, col], expected, atol=1e-10)


def test_double_excitation_revival():
    # |11,0> is an eigenmixture of one Rabi frequency; it revives exactly
    H = build_tc_hamiltonian(n_max=3, n_atoms=2)
    start = np.zeros(H.dim, dtype=complex)
    start[idx(H, 0b11, 0)] = 1.0
    rho = oracle_evolve(np.outer(start, start.conj()), H, 2.0 * np.pi / np.sqrt(6.0))
    np.testing.assert_allclose(rho, np.outer(start, start.conj()), atol=1e-12)


def test_oracle_evolve_two_registers():
    H = build_tc_hamiltonian(n_max=4, n_atoms=1)
    start = np.zeros(H.dim, dtype=complex)
    start[idx(H, 1, 0)] = 1.0
    joint = np.kron(np.outer(start, start.conj()), np.outer(start, start.conj()))
    rho = oracle_evolve(joint, H, 0.8)
    np.testing.assert_allclose(np.trace(rho).real, 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        oracle_evolve(np.eye(5), H, 0.1)


def test_cutoff_leakage_raises():
    H = build_tc_hamiltonian(n_max=4, n_atoms=2)
    start = np.zeros(H.dim, dtype=complex)
    start[idx(H, 0b11, 2)] = 1.0  # emission reaches the top two photon levels
    with pytest.raises(CutoffLeakageError):
        oracle_evolve(np.outer(start, start.conj()), H, 0.4)


def test_oracle_grid_djcm_matches_closed_form():
    taus = np.linspace(0.0, 6.0, 31)
    pair = BellPairSpec(BellType.PSI, 0.7)
    grid = oracle_atomic_grid(pair, pair, FieldSpec.vacuum(), FieldSpec.vacuum(), taus, 3, Model.DJCM)
    assert grid.shape == (31, 4, 4)
    inner = np.abs(grid[:, 1, 2])
    expected = abs(np.sin(2.0 * 0.7)) * np.cos(taus) ** 2 / 2.0
    np.testing.assert_allclose(inner, expected, atol=1e-12)


def test_compare_pipelines_requires_headroom():
    sc = Scenario(Model.DTCM, BellType.PSI, FieldSpec.fock(5), FieldSpec.fock(5))
    with pytest.raises(ValueError):
        compare_pipelines(sc, 0.5, np.linspace(0.0, 2.0, 5), n_max=6)


def test_compare_pipelines_vacuum_smoke():
    sc = Scenario(Model.DTCM, BellType.PSI, FieldSpec.vacuum(), FieldSpec.vacuum())
    result = compare_pipelines(sc, 0.9, np.linspace(0.0, 3.0, 7), n_max=4)
    assert result.within(1e-10)
    assert result.n_max == 4 and result.n_tau == 7


# ---------------------------------------------------------------------------
# asymmetric scenarios: the analytic pipeline against the brute-force oracle
# ---------------------------------------------------------------------------


def oracle_concurrence(model, pair_ab, pair_cd, field_a, field_b, taus, pair):
    n_max = max(6, field_a.max_photon() + 3, field_b.max_photon() + 3)
    grid = oracle_atomic_grid(pair_ab, pair_cd, field_a, field_b, np.asarray(taus), n_max, model)
    labels = ("A", "B", "C", "D") if model is Model.DTCM else ("A", "B")
    return np.array([concurrence_general(partial_trace(DensityMatrix(m, labels), pair).matrix) for m in grid])


@pytest.mark.parametrize("bell", list(BellType), ids=lambda b: b.value)
@pytest.mark.parametrize(
    "field_a, field_b",
    [(FieldSpec.vacuum(), FieldSpec.fock(1)), (FieldSpec.fock(2), FieldSpec.thermal(0.5))],
    ids=["vacuum-fock1", "fock2-thermal0.5"],
)
def test_sweep_with_unequal_fields_matches_oracle(bell, field_a, field_b):
    taus = np.linspace(0.0, 6.0, 13)
    scenario = Scenario(Model.DTCM, bell, field_a, field_b)
    for pair in PAIR_CHOICES:
        for curve in sweep_concurrence(scenario, pair, np.array([0.3, 1.1]), taus):
            spec = BellPairSpec(bell, curve.alpha)
            expected = oracle_concurrence(Model.DTCM, spec, spec, field_a, field_b, taus, pair)
            np.testing.assert_allclose(curve.values, expected, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("bell", list(BellType), ids=lambda b: b.value)
def test_djcm_sweep_thermal_vacuum_matches_oracle(bell):
    field_a, field_b = FieldSpec.thermal(1.0), FieldSpec.vacuum()
    taus = np.linspace(0.0, 6.0, 13)
    scenario = Scenario(Model.DJCM, bell, field_a, field_b)
    for curve in sweep_concurrence(scenario, "AB", np.array([0.3, 1.1]), taus):
        spec = BellPairSpec(bell, curve.alpha)
        expected = oracle_concurrence(Model.DJCM, spec, spec, field_a, field_b, taus, "AB")
        np.testing.assert_allclose(curve.values, expected, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("bell", list(BellType), ids=lambda b: b.value)
def test_single_state_with_unequal_pair_angles_matches_oracle(bell):
    pair_ab, pair_cd = BellPairSpec(bell, 0.4), BellPairSpec(bell, 1.2)
    field_a, field_b = FieldSpec.vacuum(), FieldSpec.fock(1)
    taus = np.array([0.0, 0.9, 2.6])
    grid = oracle_atomic_grid(pair_ab, pair_cd, field_a, field_b, taus, 6)
    for tau, reference in zip(taus, grid):
        rho = assemble_atomic_state(pair_ab, pair_cd, field_a, field_b, float(tau))
        np.testing.assert_allclose(rho.matrix, reference, rtol=0.0, atol=1e-10)
        for pair in PAIR_CHOICES:
            expected = oracle_concurrence(Model.DTCM, pair_ab, pair_cd, field_a, field_b, [tau], pair)[0]
            assert abs(concurrence_general(partial_trace(rho, pair).matrix) - expected) <= 1e-10


@pytest.mark.parametrize("n_atoms", (1, 2))
@pytest.mark.parametrize(
    "field", [FieldSpec.vacuum(), FieldSpec.fock(2), FieldSpec.thermal(0.5)], ids=["vacuum", "fock2", "thermal0.5"]
)
def test_cavity_channel_is_the_literal_photon_trace(field, n_atoms):
    # the per-time Gram product against the plain sum over output and input photons
    n_max = field.max_photon() + 3
    H = build_tc_hamiltonian(n_max, n_atoms)
    taus = np.linspace(0.0, 6.0, 7)
    dim = 2**n_atoms
    U5 = oracle._evolution_grid(H, taus).reshape(taus.size, dim, n_max + 1, dim, n_max + 1)
    ms, ps = field.weights()
    expected = np.zeros((taus.size, dim, dim, dim, dim), dtype=complex)
    for m, p in zip(ms, ps):
        for photon_out in range(n_max + 1):
            block = U5[:, :, photon_out, :, m]  # [t, atoms out, atoms in]
            expected += p * block[:, :, None, :, None] * block.conj()[:, None, :, None, :]
    G = oracle._cavity_channel(U5, field, n_max)
    np.testing.assert_allclose(G, expected, rtol=0.0, atol=1e-14)
