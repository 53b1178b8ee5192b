"""Unit tests for the brute-force evolution oracle."""

from types import SimpleNamespace

import numpy as np
import pytest

from dtcm.algebra import DensityMatrix, partial_trace
from dtcm.analysis import PAIR_CHOICES, Scenario, sweep_concurrence
from dtcm.concurrence import _x_concurrence, concurrence_general
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
from dtcm import analysis, dynamics, oracle, verification
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
    # one register only: a two-cavity state is not the oracle's input
    with pytest.raises(ValueError):
        oracle_evolve(joint, H, 0.8)
    with pytest.raises(ValueError):
        oracle_evolve(np.eye(5), H, 0.1)


def test_cutoff_leakage_raises():
    H = build_tc_hamiltonian(n_max=4, n_atoms=2)
    start = np.zeros(H.dim, dtype=complex)
    start[idx(H, 0b11, 2)] = 1.0  # emission reaches the top two photon levels
    with pytest.raises(CutoffLeakageError):
        oracle_evolve(np.outer(start, start.conj()), H, 0.4)
    # the grid route's check: three photons at n_max=4 start on the top two levels
    pair = BellPairSpec(BellType.PSI, 0.5)
    fock3 = FieldSpec.fock(3)
    with pytest.raises(CutoffLeakageError, match=r"^population 1\.000e\+00 within one photon of n_max=4$"):
        oracle_atomic_grid(pair, pair, fock3, fock3, np.array([0.0, 0.5]), 4)


@pytest.mark.parametrize(
    ("taus", "message"),
    [(np.array([np.nan]), "tau: values must be finite"), (np.array([0.0, -1.0]), "tau: values must be nonnegative")],
    ids=["nan", "negative"],
)
def test_oracle_grid_reads_the_time_rule(taus, message):
    pair = BellPairSpec(BellType.PSI, 0.5)
    with pytest.raises(ValueError) as raised:
        oracle_atomic_grid(pair, pair, FieldSpec.vacuum(), FieldSpec.vacuum(), taus, 4)
    assert str(raised.value) == message
    # a plain list is a grid like any other
    grid = oracle_atomic_grid(pair, pair, FieldSpec.vacuum(), FieldSpec.vacuum(), [0.0, 1.0], 4)
    np.testing.assert_array_equal(
        grid, oracle_atomic_grid(pair, pair, FieldSpec.vacuum(), FieldSpec.vacuum(), np.array([0.0, 1.0]), 4)
    )


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


def test_compare_pipelines_headroom_counts_the_atoms(monkeypatch):
    def no_eigensolve(H):
        raise AssertionError("diagonalized before the headroom check")

    monkeypatch.setattr(oracle, "_spectrum", no_eigensolve)
    # two atoms can add two photons to fock:1, so n_max=4 would leak
    sc = Scenario(Model.DTCM, BellType.PSI, FieldSpec.fock(1), FieldSpec.fock(1))
    with pytest.raises(ValueError, match="need at least 5"):
        compare_pipelines(sc, 0.4, np.linspace(0.0, 10.0, 20), n_max=4)


@pytest.mark.parametrize(
    ("field", "cutoffs"),
    [
        (FieldSpec.vacuum(), {Model.DTCM: 4, Model.DJCM: 3}),
        (FieldSpec.fock(1), {Model.DTCM: 5, Model.DJCM: 4}),
        (FieldSpec.fock(3), {Model.DTCM: 7, Model.DJCM: 6}),
        (FieldSpec.thermal(0.1), {Model.DTCM: 11, Model.DJCM: 10}),
        (FieldSpec.thermal(1.0), {Model.DTCM: 35, Model.DJCM: 34}),
    ],
    ids=["vacuum", "fock1", "fock3", "thermal0.1", "thermal1"],
)
@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_compare_pipelines_runs_leak_free_at_the_required_cutoff(model, field, cutoffs):
    n_max = cutoffs[model]
    for bell in BellType:
        report = compare_pipelines(Scenario(model, bell, field, field), 0.4, np.linspace(0.0, 10.0, 20), n_max=n_max)
        assert max(report.max_state_deviation, report.max_concurrence_deviation) <= 1e-12
    assert oracle._required_cutoff(field, oracle._atoms_per_cavity(model)) == n_max


@pytest.mark.parametrize(
    ("field_a", "n_max"), [(FieldSpec.fock(8), 6), (FieldSpec.thermal(1.0), 20)], ids=["fock8", "thermal1"]
)
def test_oracle_grid_rejects_a_field_beyond_the_cutoff(field_a, n_max):
    pair = BellPairSpec(BellType.PSI, 0.5)
    with pytest.raises(ValueError, match="^field occupies levels beyond the cutoff$"):
        oracle_atomic_grid(pair, pair, field_a, FieldSpec.vacuum(), np.linspace(0.0, 1.0, 3), n_max)


@pytest.mark.parametrize("n_max", (True, False, 0, 2.0), ids=str)
def test_hamiltonian_rejects_a_non_integer_cutoff(n_max):
    with pytest.raises(ValueError, match=r"^n_max must be an integer >= 1$"):
        build_tc_hamiltonian(n_max)


def test_hamiltonian_holds_one_or_two_atoms():
    with pytest.raises(ValueError, match="^n_atoms must be 1 or 2$"):
        build_tc_hamiltonian(3, n_atoms=3)


@pytest.mark.parametrize("n_max", ("6", None, True, 6.5), ids=repr)
def test_compare_pipelines_checks_the_cutoff_before_using_it(monkeypatch, n_max):
    def no_assembly(*args):
        raise AssertionError("assembled before the cutoff check")

    monkeypatch.setattr(oracle, "sweep_pairs", no_assembly)
    monkeypatch.setattr(oracle, "_assemble_grid", no_assembly)
    sc = Scenario(Model.DTCM, BellType.PSI, FieldSpec.vacuum(), FieldSpec.vacuum())
    with pytest.raises(ValueError, match=r"^n_max must be an integer >= 1$"):
        compare_pipelines(sc, 0.4, np.linspace(0.0, 1.0, 5), n_max=n_max)


def test_compare_pipelines_rejects_a_bad_grid_before_any_eigensolve(monkeypatch):
    def no_eigensolve(H):
        raise AssertionError("diagonalized before the grid check")

    monkeypatch.setattr(oracle, "_spectrum", no_eigensolve)
    sc = Scenario(Model.DTCM, BellType.PSI, FieldSpec.vacuum(), FieldSpec.vacuum())
    with pytest.raises(ValueError, match=r"^tau: values must be strictly increasing$"):
        compare_pipelines(sc, 0.4, np.array([0.0, 2.0, 1.0]), n_max=6)


@pytest.mark.parametrize(
    ("name", "fault"),
    [
        # the X slice with its outer and inner coherence columns (and mirrors) swapped:
        # the sweep's closed-form validation rejects the states
        ("_X_ENTRIES", np.array([0, 5, 10, 15, 6, 3, 9, 12])),
        # valid states whose concurrence reads the two coherences swapped: a disagreement
        ("_x_slice_concurrence", lambda X: _x_concurrence(X[..., :4].real, X[..., 5], X[..., 4])),
    ],
    ids=["x-entries", "x-concurrence"],
)
def test_oracle_agreement_checks_the_sweeps_x_route(monkeypatch, name, fault):
    monkeypatch.setattr(analysis, name, fault)
    assert not verification.suite_oracle_agreement(verification.QUICK).passed


def test_compare_pipelines_vacuum_smoke():
    sc = Scenario(Model.DTCM, BellType.PSI, FieldSpec.vacuum(), FieldSpec.vacuum())
    result = compare_pipelines(sc, 0.9, np.linspace(0.0, 3.0, 7), n_max=4)
    assert result.max_state_deviation <= 1e-10
    assert result.max_concurrence_deviation <= 1e-10
    assert result.n_max == 4 and result.n_tau == 7


def whole_grid_maps(model, field_a, field_b, taus, n_max):
    """The oracle maps from one evolution of the whole grid, each cavity traced on its own.

    Each map is the per-time Gram product as a plain 2-d matrix product per
    tau, and each leak table the einsum over the whole grid, whatever the
    fields: the reference the chunked, batched build must reproduce.
    """
    n_atoms = oracle._atoms_per_cavity(model)
    H = build_tc_hamiltonian(n_max, n_atoms)
    dim, n_ph = 2**n_atoms, n_max + 1
    U5 = oracle._evolution_grid(oracle._spectrum(H), taus).reshape(taus.size, dim, n_ph, dim, n_ph)
    maps, leaks = [], []
    for field in (field_a, field_b):
        ms, ps = field.weights()
        G = np.empty((taus.size, dim, dim, dim, dim), dtype=complex)
        for t in range(taus.size):
            X = (U5[t][:, :, :, ms] * np.sqrt(ps)).transpose(0, 2, 1, 3).reshape(dim * dim, n_ph * ms.size)
            G[t] = (X @ X.conj().T).reshape(dim, dim, dim, dim).transpose(0, 2, 1, 3)
        maps.append(G)
        top = U5[:, :, n_max - 1 :][:, :, :, :, ms]
        leaks.append(np.einsum("tapsm,tapsm,m->ts", top, top.conj(), ps).real)
    return maps[0], maps[1], leaks[0], leaks[1]


@pytest.mark.parametrize("fields", [("vacuum", "vacuum"), ("fock1", "fock1"), ("vacuum", "fock1")], ids="/".join)
@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_oracle_grid_traces_one_channel_for_equal_fields(monkeypatch, model, fields):
    field_a, field_b = ({"vacuum": FieldSpec.vacuum(), "fock1": FieldSpec.fock(1)}[f] for f in fields)
    pair, taus, n_max = BellPairSpec(BellType.PSI, 0.7), np.linspace(0.0, 4.0, 9), 6
    # the reference traces each cavity's map on its own, whatever the fields
    separate = whole_grid_maps(model, field_a, field_b, taus, n_max)
    expected = oracle._prepared_state(model, oracle._start_vector(model, pair, pair), separate, n_max)
    traced = []
    original = oracle._cavity_channel
    monkeypatch.setattr(oracle, "_cavity_channel", lambda *args: traced.append(args[1]) or original(*args))
    grid = oracle_atomic_grid(pair, pair, field_a, field_b, taus, n_max, model)
    assert traced == ([field_a] if field_b == field_a else [field_a, field_b])
    assert np.array_equal(grid, expected)


STREAM_FIELDS = {
    "vacuum/vacuum": (FieldSpec.vacuum(), FieldSpec.vacuum()),
    "fock1/vacuum": (FieldSpec.fock(1), FieldSpec.vacuum()),
    "thermal1/thermal1": (FieldSpec.thermal(1.0), FieldSpec.thermal(1.0)),
    "thermal1/fock1": (FieldSpec.thermal(1.0), FieldSpec.fock(1)),
}


@pytest.mark.parametrize("grid", ["one-tau", "below-a-chunk", "chunks-and-a-remainder"])
@pytest.mark.parametrize("fields", list(STREAM_FIELDS))
@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_streamed_maps_match_the_whole_grid(model, fields, grid):
    # the chunked, batched build gives the whole-grid, per-tau maps bit for bit
    field_a, field_b = STREAM_FIELDS[fields]
    n_atoms = oracle._atoms_per_cavity(model)
    n_max = max(oracle._required_cutoff(field_a, n_atoms), oracle._required_cutoff(field_b, n_atoms))
    chunk = max(1, oracle._CHUNK_CELLS // build_tc_hamiltonian(n_max, n_atoms).dim ** 2)
    n_tau = {"one-tau": 1, "below-a-chunk": max(1, chunk - 1), "chunks-and-a-remainder": 2 * chunk + 1}[grid]
    taus = np.linspace(9.0 / n_tau, 9.0, n_tau)
    Ga, Gb, leak_a, leak_b = oracle._oracle_maps(model, field_a, field_b, taus, n_max)
    reference = whole_grid_maps(model, field_a, field_b, taus, n_max)
    assert (Gb is Ga) == (field_b == field_a)
    for streamed, whole in zip((Ga, Gb), reference[:2]):
        assert streamed.tobytes() == whole.tobytes()
    for streamed, whole in zip((leak_a, leak_b), reference[2:]):
        np.testing.assert_allclose(streamed, whole, rtol=1e-12)
    pair = BellPairSpec(BellType.PHI, 0.7)
    expected = oracle._prepared_state(model, oracle._start_vector(model, pair, pair), reference, n_max)
    assert oracle_atomic_grid(pair, pair, field_a, field_b, taus, n_max, model).tobytes() == expected.tobytes()


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_oracle_grid_of_an_empty_grid(model):
    # shaped as the analytic assembly shapes it: no times, one empty state stack
    pair, field_a, field_b = BellPairSpec(BellType.PSI, 0.4), FieldSpec.fock(1), FieldSpec.vacuum()
    grid = oracle_atomic_grid(pair, pair, field_a, field_b, np.array([]), 6, model)
    analytic = dynamics._assemble_grid(model, pair, pair, field_a, field_b, np.array([]))
    assert grid.shape == analytic.shape == ((0, 16, 16) if model is Model.DTCM else (0, 4, 4))
    assert grid.dtype == complex


@pytest.mark.parametrize(
    ("model", "pair_cd", "field_a", "field_b", "n_max", "message"),
    [
        (Model.DTCM, BellPairSpec(BellType.PHI, 0.4), FieldSpec.vacuum(), FieldSpec.vacuum(), 6,
         "both pairs must share the same Bell type"),
        (Model.DJCM, BellPairSpec(BellType.PSI, 0.5), FieldSpec.vacuum(), FieldSpec.vacuum(), 6,
         r"the single-pair layout has no \(C,D\) pair; pass pair_cd equal to pair_ab"),
        (Model.DTCM, BellPairSpec(BellType.PSI, 0.4), FieldSpec.thermal(1.0), FieldSpec.vacuum(), 20,
         "field occupies levels beyond the cutoff"),
        (Model.DJCM, BellPairSpec(BellType.PSI, 0.4), FieldSpec.vacuum(), FieldSpec.fock(8), 6,
         "field occupies levels beyond the cutoff"),
    ],
    ids=["bell-types", "djcm-pair-cd", "hot-field-a", "field-b"],
)
def test_oracle_grid_rejects_bad_input_before_diagonalizing(
    monkeypatch, model, pair_cd, field_a, field_b, n_max, message
):
    def no_eigensolve(H):
        raise AssertionError("diagonalized before the input check")

    monkeypatch.setattr(oracle, "_spectrum", no_eigensolve)
    pair_ab = BellPairSpec(BellType.PSI, 0.4)
    with pytest.raises(ValueError, match=f"^{message}$"):
        oracle_atomic_grid(pair_ab, pair_cd, field_a, field_b, np.linspace(0.0, 10.0, 20), n_max, model)


def test_oracle_grid_memory_is_bounded_by_a_chunk():
    # thermal:1 on 400 taus: the state and both maps take 1.6 MB each, the
    # whole-grid evolution it no longer holds 133 MB, twice over at its peak
    import tracemalloc

    pair, field = BellPairSpec(BellType.PSI, 0.4), FieldSpec.thermal(1.0)
    tracemalloc.start()
    try:
        oracle_atomic_grid(pair, pair, field, field, np.linspace(0.0, 10.0, 400), 35)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "field",
    [FieldSpec.vacuum(), FieldSpec.fock(1), FieldSpec.fock(3), FieldSpec.thermal(0.1)],
    ids=["vacuum", "fock1", "fock3", "thermal0.1"],
)
@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_a_cutoff_one_below_the_required_one_leaks(model, field):
    # these fields' cutoffs are set by the leak bar (thermal:1's by the levels
    # it holds), so one level less puts population within one photon of it
    n_max = oracle._required_cutoff(field, oracle._atoms_per_cavity(model)) - 1
    pair = BellPairSpec(BellType.PSI, 0.4)
    with pytest.raises(CutoffLeakageError, match=f"within one photon of n_max={n_max}$"):
        oracle_atomic_grid(pair, pair, field, field, np.linspace(0.0, 10.0, 20), n_max, model)


def assert_matches_compare_pipelines(cases, reports):
    assert len(reports) == len(cases)
    for (scenario, alpha, taus, n_max), report in zip(cases, reports):
        single = compare_pipelines(scenario, alpha, taus, n_max=n_max)
        assert report.max_state_deviation == single.max_state_deviation
        assert abs(report.max_concurrence_deviation - single.max_concurrence_deviation) <= 1e-15
        assert (report.n_max, report.n_tau) == (single.n_max, single.n_tau)


@pytest.mark.parametrize("groups", ["full", "thermal"])
def test_grouped_comparisons_match_compare_pipelines(groups):
    # each case group the oracle suites list, compared as one group and case by case
    groups = verification._oracle_cases(verification.FULL) if groups == "full" else verification._thermal_cases()
    for model, field_a, field_b, taus, n_max, preparations in groups:
        reports = oracle._compare_group(model, field_a, field_b, taus, n_max, preparations)
        cases = [(Scenario(model, bell, field_a, field_b), alpha, taus, n_max) for bell, alpha in preparations]
        assert_matches_compare_pipelines(cases, reports)


def test_a_group_returns_its_preparations_in_order():
    # angles out of order and repeated, the Bell types interleaved
    preparations = [(BellType.PSI, 0.7), (BellType.PHI, 0.2), (BellType.PSI, 0.1), (BellType.PSI, 0.7)]
    field_a, field_b, taus = FieldSpec.fock(1), FieldSpec.vacuum(), np.linspace(0.0, 5.0, 11)
    reports = oracle._compare_group(Model.DTCM, field_a, field_b, taus, 6, preparations)
    cases = [(Scenario(Model.DTCM, bell, field_a, field_b), alpha, taus, 6) for bell, alpha in preparations]
    assert_matches_compare_pipelines(cases, reports)


@pytest.mark.parametrize("level, evolutions", [(verification.QUICK, 2), (verification.FULL, 6 + 2)])
def test_oracle_suites_evolve_once_per_group(monkeypatch, level, evolutions):
    # each layout, field pair, grid and cutoff is one diagonalization and one
    # pass over the grid, whatever its Bell types and angles
    calls = []
    original = oracle._spectrum
    monkeypatch.setattr(oracle, "_spectrum", lambda H: calls.append(H.n_max) or original(H))
    results = [verification.suite_oracle_agreement(level)]
    if level == verification.FULL:
        results.append(verification.suite_oracle_agreement_thermal())
    assert all(result.passed for result in results), [result.line() for result in results]
    assert len(calls) == evolutions


# ---------------------------------------------------------------------------
# asymmetric scenarios: the analytic pipeline against the brute-force oracle
# ---------------------------------------------------------------------------


def oracle_concurrence(model, pair_ab, pair_cd, field_a, field_b, taus, pair):
    n_atoms = oracle._atoms_per_cavity(model)
    n_max = max(6, oracle._required_cutoff(field_a, n_atoms), oracle._required_cutoff(field_b, n_atoms))
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
    # the per-time Gram product against the plain sum over output and input photons,
    # and the leak table against the plain sum over the top two output photons
    n_max = oracle._required_cutoff(field, n_atoms)
    H = build_tc_hamiltonian(n_max, n_atoms)
    taus = np.linspace(0.0, 6.0, 7)
    dim = 2**n_atoms
    U5 = oracle._evolution_grid(oracle._spectrum(H), taus).reshape(taus.size, dim, n_max + 1, dim, n_max + 1)
    ms, ps = field.weights()
    expected = np.zeros((taus.size, dim, dim, dim, dim), dtype=complex)
    expected_leak = np.zeros((taus.size, dim))
    for m, p in zip(ms, ps):
        for photon_out in range(n_max + 1):
            block = U5[:, :, photon_out, :, m]  # [t, atoms out, atoms in]
            expected += p * block[:, :, None, :, None] * block.conj()[:, None, :, None, :]
            if photon_out >= n_max - 1:
                expected_leak += p * (np.abs(block) ** 2).sum(axis=1)
    G, leak = oracle._cavity_channel(U5, field, n_max)
    np.testing.assert_allclose(G, expected, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(leak, expected_leak, rtol=0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# the whole system at once: no per-cavity channel, no preparation weights
# ---------------------------------------------------------------------------


def literal_pair(spec):
    """The pair's amplitudes [first atom, second atom]."""
    amps = np.zeros((2, 2))
    c, s = np.cos(spec.alpha), np.sin(spec.alpha)
    if spec.bell_type is BellType.PSI:
        amps[1, 0], amps[0, 1] = c, s
    else:
        amps[0, 0], amps[1, 1] = s, c
    return amps


def joint_atomic_grid(pair_ab, pair_cd, field_a, field_b, taus, n_max):
    """Four atoms and both modes as one pure state per Fock pair, evolved under U_a (x) U_b.

    Each start vector is indexed [(A, C, photon a), (B, D, photon b)]; after
    evolution both photon numbers are traced out and the Fock pairs summed
    with their field weights.
    """
    n_ph = n_max + 1
    U = oracle._evolution_grid(oracle._spectrum(build_tc_hamiltonian(n_max, 2)), taus)
    atoms = np.einsum("ab,cd->acbd", literal_pair(pair_ab), literal_pair(pair_cd)).reshape(4, 4)
    rho = np.zeros((taus.size, 4, 4, 4, 4), dtype=complex)  # [t, ket (A,C), ket (B,D), bra (A,C), bra (B,D)]
    for m_a, p_a in zip(*field_a.weights()):
        for m_b, p_b in zip(*field_b.weights()):
            start = np.zeros((4, n_ph, 4, n_ph))
            start[:, m_a, :, m_b] = atoms
            psi = U @ start.reshape(4 * n_ph, 4 * n_ph) @ U.transpose(0, 2, 1)
            psi = psi.reshape(taus.size, 4, n_ph, 4, n_ph)
            rho += p_a * p_b * np.einsum("tanbm,tcndm->tabcd", psi, psi.conj())
    rho = rho.reshape((taus.size,) + (2,) * 8).transpose(0, 1, 3, 2, 4, 5, 7, 6, 8)  # (A,C,B,D) -> (A,B,C,D)
    return rho.reshape(taus.size, 16, 16)


@pytest.mark.parametrize("bell", list(BellType), ids=lambda b: b.value)
@pytest.mark.parametrize("alphas", [(0.3, 0.3), (0.4, 1.2)], ids=["equal-angles", "unequal-angles"])
@pytest.mark.parametrize(
    "field_a, field_b",
    [
        (FieldSpec.vacuum(), FieldSpec.fock(1)),
        (FieldSpec.fock(2), FieldSpec.vacuum()),
        (FieldSpec.thermal(0.1), FieldSpec.fock(1)),
    ],
    ids=["vacuum-fock1", "fock2-vacuum", "thermal0.1-fock1"],
)
def test_joint_evolution_matches_oracle_and_closed_forms(bell, alphas, field_a, field_b):
    pair_ab, pair_cd = BellPairSpec(bell, alphas[0]), BellPairSpec(bell, alphas[1])
    taus = np.linspace(0.0, 6.0, 13)
    n_max = max(6, oracle._required_cutoff(field_a, 2), oracle._required_cutoff(field_b, 2))
    joint = joint_atomic_grid(pair_ab, pair_cd, field_a, field_b, taus, n_max)
    reference = oracle_atomic_grid(pair_ab, pair_cd, field_a, field_b, taus, n_max)
    np.testing.assert_allclose(reference, joint, rtol=0.0, atol=1e-12)
    analytic = dynamics._assemble_dtcm_grid(pair_ab, pair_cd, field_a, field_b, taus)
    np.testing.assert_allclose(analytic, joint, rtol=0.0, atol=1e-12)


def test_verify_catches_a_preparation_weight_fault(monkeypatch):
    # reading every angle as pi/2 - alpha swaps each pair's branch amplitudes
    original = dynamics._branch_weights

    def swapped(spec):
        return SimpleNamespace(bell_type=spec.bell_type, amplitudes=lambda: spec.amplitudes()[::-1])

    def mirrored(model, pair_ab, pair_cd):
        return original(model, swapped(pair_ab), swapped(pair_cd))

    # the sweeps reach the weights through analysis's own reference
    monkeypatch.setattr(dynamics, "_branch_weights", mirrored)
    monkeypatch.setattr(analysis, "_branch_weights", mirrored)
    assert not verification.suite_oracle_agreement(verification.QUICK).passed
    assert not verification.suite_oracle_agreement_thermal().passed
    # the fault keeps every exchange symmetry, so only the independent oracle sees it
    assert verification.suite_pair_symmetries().passed


def test_verify_catches_a_swapped_cavity_combine(monkeypatch):
    # the sweeps trace each cavity's channel to the pair before the product;
    # handing cavity b's channel to cavity a's qubits must show in verify
    original = analysis._combine
    monkeypatch.setattr(analysis, "_combine", lambda m, b, Ea, Eb, keep: original(m, b, Eb, Ea, keep))
    result = verification.suite_oracle_agreement(verification.FULL)
    assert not result.passed
    assert result.max_deviation > 0.1
