"""The per-cavity channel tensor against a plain per-term sum, the complex Gram product and the
16-row real build, the real amplitude tables it reads, its memory use, and the self-check on it."""

import tracemalloc
from itertools import product

import numpy as np
import pytest

from dtcm import dynamics, verification
from dtcm.dynamics import FieldSpec

FIELDS = [FieldSpec.vacuum(), FieldSpec.fock(2), FieldSpec.thermal(1.0), FieldSpec.thermal(3.0)]
FIELD_IDS = ["vacuum", "fock2", "thermal1", "thermal3"]


def excitations(state):
    return bin(state).count("1")


def complex_amplitudes(ms, taus, n_atoms):
    """The complex amplitudes [state_in, flips, photon, time]: each real table entry times its phase."""
    table = dynamics._x_block_table if n_atoms == 2 else dynamics._y_block_table
    return table(ms, taus) * dynamics._FLIP_PHASE[: 2**n_atoms, None, None]


def per_term_reference(field, taus, n_atoms):
    """Each selection-rule term summed over the photon distribution on its own, in complex numbers.

    The rule written out: |ket_in> -> |row> and |bra_in> -> |col> survive the
    field trace only where both take the same number of photons from the field.
    """
    ms, ps = field.weights()
    amps = complex_amplitudes(ms, taus, n_atoms)
    dim = 2**n_atoms

    E = np.zeros((taus.size,) + (dim,) * 4, dtype=complex)
    for ket_in, bra_in, row, col in product(range(dim), repeat=4):
        if excitations(row) - excitations(ket_in) == excitations(col) - excitations(bra_in):
            E[:, row, col, ket_in, bra_in] = ps @ (amps[ket_in, ket_in ^ row] * np.conj(amps[bra_in, bra_in ^ col]))
    return E


@pytest.mark.parametrize("n_atoms", (1, 2))
@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_matches_per_term_sum(field, n_atoms):
    # 1001 taus span several chunks for every field, the last one partial
    taus = np.linspace(0.0, 25.0, 1001)
    E = dynamics._channel_tensor(field, taus, n_atoms)
    np.testing.assert_allclose(E, per_term_reference(field, taus, n_atoms), rtol=0.0, atol=1e-14)


def complex_gram_reference(field, taus, n_atoms):
    """The channel tensor by the complex route: G = (K p) K^dagger of the complex amplitudes
    K[t, (row, ket_in), photon], masked by the selection rule."""
    ms, ps = field.weights()
    amps = complex_amplitudes(ms, taus, n_atoms)
    dim = 2**n_atoms
    states = range(dim)
    K = np.stack([amps[ket_in, ket_in ^ row] for row in states for ket_in in states]).transpose(2, 0, 1)
    taken = [excitations(row) - excitations(ket_in) for row in states for ket_in in states]
    G = (K * ps) @ K.conj().transpose(0, 2, 1) * np.equal.outer(taken, taken)
    return G.reshape(-1, dim, dim, dim, dim).transpose(0, 1, 3, 2, 4)


GRAM_FIELDS = [FieldSpec.vacuum(), FieldSpec.fock(1), FieldSpec.fock(3), FieldSpec.thermal(1.0), FieldSpec.thermal(2.0)]


@pytest.mark.parametrize("n_tau", (1, 251))
@pytest.mark.parametrize("n_atoms", (1, 2))
@pytest.mark.parametrize("field", GRAM_FIELDS, ids=["vacuum", "fock1", "fock3", "thermal1", "thermal2"])
def test_real_build_matches_the_complex_gram_product(field, n_atoms, n_tau):
    # the parity argument made concrete: the real Gram product of the table
    # entries is the complex one of the amplitudes, to rounding
    taus = np.linspace(0.0, 25.0, n_tau) + 0.7
    E = dynamics._channel_tensor(field, taus, n_atoms)
    assert E.dtype == np.float64
    reference = complex_gram_reference(field, taus, n_atoms)
    assert np.abs(reference.imag).max() == 0.0
    np.testing.assert_allclose(E, reference, rtol=0.0, atol=1e-15)


def test_public_results_stay_complex():
    # the real build stays inside the package: every public amplitude and
    # operator is complex128 and carries the complex route's values
    field, taus = FieldSpec.thermal(1.0), np.linspace(0.0, 25.0, 9) + 0.7
    reference = complex_gram_reference(field, taus, 2)
    for i, k, j, l in product((0, 1), repeat=4):
        expected = reference[:, :, :, 2 * i + k, 2 * j + l]
        grid = dynamics.pair_map(i, k, j, l, field, taus)
        single = dynamics.pair_map(i, k, j, l, field, float(taus[3]))
        explicit = dynamics.pair_map_explicit(i, k, j, l, field, taus)
        assert grid.dtype == single.dtype == explicit.dtype == np.complex128
        np.testing.assert_allclose(grid, expected, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(single, expected[3], rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(explicit, expected, rtol=0.0, atol=1e-15)
    closed = closed_form_x(np.array([2]), taus[3:4])
    for i, k, p, q in product((0, 1), repeat=4):
        value = dynamics.x_coeff(dynamics.XCoefficientKey(i, k, p, q, 2, float(taus[3])))
        assert type(value) is complex
        np.testing.assert_allclose(value, closed[2 * i + k, 2 * p + q, 0, 0], rtol=0.0, atol=1e-15)
    for i in (0, 1):
        angle = np.sqrt(2.0 + i) * taus[3]
        (_, _, stay), (_, _, flip) = dynamics.jc_amplitudes(i, 2, float(taus[3]))
        assert type(stay) is complex and type(flip) is complex
        assert stay == np.cos(angle) and flip == -1j * np.sin(angle)
    pair = dynamics.BellPairSpec(dynamics.BellType.PSI, 0.6)
    for model in dynamics.Model:
        rho = dynamics.assemble_atomic_state(pair, pair, field, FieldSpec.vacuum(), 1.3, model)
        assert rho.matrix.dtype == np.complex128


@pytest.mark.parametrize("n_atoms", (1, 2))
def test_selection_rule_pairs_transitions_of_one_flip_parity(n_atoms):
    # an odd number of flips makes an amplitude imaginary, so a kept term of
    # mixed parity would be imaginary and the real build wrong
    same = dynamics._selection_rule(n_atoms)
    dim = 2**n_atoms
    pairs = [(row, ket_in) for row in range(dim) for ket_in in range(dim)]
    taken = np.array([excitations(row) - excitations(ket_in) for row, ket_in in pairs])
    assert np.array_equal(same, taken[:, None] == taken[None, :])
    parity = np.array([excitations(row ^ ket_in) % 2 for row, ket_in in pairs])
    assert same.any()
    assert np.all(parity[:, None] == parity[None, :], where=same)


BUILD_FIELDS = [
    FieldSpec.vacuum(), FieldSpec.fock(1), FieldSpec.fock(3), FieldSpec.thermal(0.5), FieldSpec.thermal(1.0), FieldSpec.thermal(4.0)
]
BUILD_IDS = ["vacuum", "fock1", "fock3", "thermal0.5", "thermal1", "thermal4"]


def in_channel_order(mask, n_atoms):
    """A [(row, ket_in), (col, bra_in)] array in the channel's (row, col, ket_in, bra_in) order."""
    dim = 2**n_atoms
    return mask.reshape((dim,) * 4).transpose(0, 2, 1, 3)


def sixteen_row_reference(field, taus, n_atoms):
    """The channel from one amplitude row per (row, ket_in): gathered from the block table,
    G = (L p) L^T, times the selection-rule mask, then stored in E's axis order."""
    ms, ps = field.weights()
    table = dynamics._x_block_table if n_atoms == 2 else dynamics._y_block_table
    dim = 2**n_atoms
    states = np.arange(dim)
    cells = (states * dim + (states[:, None] ^ states)).ravel()  # (ket_in, flips) of each (row, ket_in)
    amps = table(ms, taus).transpose(3, 0, 1, 2).reshape(-1, dim * dim, ms.size)
    L = amps.take(cells, axis=1)
    G = (L * ps) @ L.transpose(0, 2, 1)
    G *= dynamics._selection_rule(n_atoms)
    return G.reshape(-1, dim, dim, dim, dim).transpose(0, 1, 3, 2, 4)


@pytest.mark.parametrize("n_atoms", (1, 2))
@pytest.mark.parametrize("field", BUILD_FIELDS, ids=BUILD_IDS)
def test_distinct_rows_build_the_sixteen_row_channel(field, n_atoms):
    # 701 taus span two chunks even for vacuum; the rows' Gram product may
    # round differently from the 16-row one, by an ulp of the entries at most
    taus = np.linspace(0.0, 25.0, 701)
    E = dynamics._channel_tensor(field, taus, n_atoms)
    np.testing.assert_allclose(E, sixteen_row_reference(field, taus, n_atoms), rtol=0.0, atol=1e-16)
    killed = E[:, ~in_channel_order(dynamics._selection_rule(n_atoms), n_atoms)]
    assert killed.size and np.all(killed == 0.0) and not np.signbit(killed).any()


@pytest.mark.parametrize("n_atoms", (1, 2))
def test_scatter_reads_the_zero_cell_exactly_where_the_rule_kills(n_atoms):
    function, offset, scatter = dynamics._CHANNEL_PLANS[n_atoms]
    rows, dim = function.size, 2**n_atoms
    assert rows == {1: 4, 2: 10}[n_atoms]
    assert len(set(zip(function.tolist(), offset.tolist()))) == rows
    same = in_channel_order(dynamics._selection_rule(n_atoms), n_atoms).ravel()
    assert np.array_equal(scatter == rows * rows, ~same)
    assert scatter.min() >= 0 and scatter.max() == rows * rows
    # every kept cell reads the rows of its two transitions: function and rung offset of (row, ket_in)
    functions = dynamics._AMPLITUDE if n_atoms == 2 else dynamics._STAY_FLIP
    a, b = np.divmod(scatter[same], rows)
    row, col, ket_in, bra_in = np.unravel_index(np.flatnonzero(same), (dim,) * 4)
    for r, state, start in ((a, row, ket_in), (b, col, bra_in)):
        assert np.array_equal(function[r], functions[start, state ^ start])
        assert np.array_equal(offset[r], [excitations(s) for s in start])


@pytest.mark.parametrize("n_atoms", (1, 2))
@pytest.mark.parametrize("field", BUILD_FIELDS + FIELDS[1::2], ids=BUILD_IDS + FIELD_IDS[1::2])  # + fock2, thermal3
def test_grid_matches_single_time_builds(field, n_atoms):
    # bit for bit, across chunk seams: a tau's cells do not depend on its neighbours
    taus = np.linspace(0.0, 25.0, 701)
    grid = dynamics._channel_tensor(field, taus, n_atoms)
    stacked = np.concatenate([dynamics._channel_tensor(field, taus[t : t + 1], n_atoms) for t in range(taus.size)])
    assert grid.tobytes() == stacked.tobytes()


@pytest.mark.parametrize("n_atoms", (1, 2))
@pytest.mark.parametrize("field", BUILD_FIELDS + FIELDS[1::2], ids=BUILD_IDS + FIELD_IDS[1::2])
def test_channel_is_the_scatter_of_its_whole_grid_gram(field, n_atoms):
    # the sweep's route: one Gram build over 2501 taus, whose amplitude-row chunks
    # do not line up with the channel's own chunks, scattered in one take
    taus = np.linspace(0.0, 25.0, 2501)
    H = dynamics._gram(field, taus, n_atoms)
    rows = dynamics._CHANNEL_PLANS[n_atoms][0].size
    assert H.shape == (taus.size, rows * rows + 1) and H.dtype == np.float64
    assert np.all(H[:, -1] == 0.0) and not np.signbit(H[:, -1]).any()
    E = dynamics._channel_tensor(field, taus, n_atoms)
    assert H.take(dynamics._CHANNEL_PLANS[n_atoms][2], axis=1).tobytes() == E.tobytes()


@pytest.mark.parametrize("n_atoms", (1, 2))
@pytest.mark.parametrize("nbar", (0.3, 1.0))
def test_thermal_channel_is_the_photon_weighted_sum_of_fock_channels(nbar, n_atoms):
    # the field trace is linear in the photon distribution; no oracle involved
    taus = np.linspace(0.0, 25.0, 501)
    ms, ps = FieldSpec.thermal(nbar).weights()
    mixed = sum(p * dynamics._channel_tensor(FieldSpec.fock(int(m)), taus, n_atoms) for m, p in zip(ms, ps))
    np.testing.assert_allclose(dynamics._channel_tensor(FieldSpec.thermal(nbar), taus, n_atoms), mixed, rtol=0.0, atol=1e-14)


def test_hot_thermal_build_has_bounded_memory():
    # thermal:20 keeps 472 photon levels; a whole-grid amplitude table on
    # 1001 taus would need about 120 MB, the tensor itself about 4 MB
    field = FieldSpec.thermal(20.0)
    taus = np.linspace(0.0, 25.0, 1001)
    tracemalloc.start()
    try:
        E = dynamics._channel_tensor(field, taus, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert E.shape == (taus.size, 4, 4, 4, 4)
    assert np.all(np.isfinite(E))
    assert peak < 32 * 2**20


def test_explicit_maps_suite_checks_the_one_atom_channel(monkeypatch):
    # scramble where each one-atom cell reads its Gram product; the two-atom path is untouched
    function, offset, scatter = dynamics._CHANNEL_PLANS[1]
    monkeypatch.setattr(dynamics, "_CHANNEL_PLANS", {**dynamics._CHANNEL_PLANS, 1: (function, offset, scatter[::-1].copy())})
    result = verification.suite_explicit_maps()
    assert not result.passed
    assert result.max_deviation > 1e-3
    # the FAIL names the channel that tripped it
    assert result.detail.endswith(" one-atom"), result.line()


def test_explicit_maps_suite_catches_a_one_atom_amplitude_fault(monkeypatch):
    # the one-atom reference must not read the amplitude table it checks
    table = dynamics._y_function_table

    def faulty(m, tau):
        amps, rung = table(m, tau)
        amps[1] *= 0.9  # every flip amplitude
        return amps, rung

    monkeypatch.setattr(dynamics, "_y_function_table", faulty)
    result = verification.suite_explicit_maps()
    assert not result.passed
    assert result.max_deviation > 1e-3


def closed_form_x(m, tau):
    """The two-atom amplitudes written out family by family, as [pair_in, flips, photon, time]."""
    m = np.asarray(m, dtype=float)[:, None]
    tau = np.asarray(tau, dtype=float)[None, :]
    X = np.zeros((4, 4, m.shape[0], tau.shape[1]), dtype=complex)
    om = np.sqrt(2.0 * (2.0 * m + 3.0))
    c, s = np.cos(om * tau), np.sin(om * tau)
    X[3, 0] = (m + 1.0) / (2.0 * m + 3.0) * (c - 1.0) + 1.0
    X[3, 1] = X[3, 2] = -1j * np.sqrt((m + 1.0) / (2.0 * (2.0 * m + 3.0))) * s
    X[3, 3] = np.sqrt((m + 1.0) * (m + 2.0)) / (2.0 * m + 3.0) * (c - 1.0)
    om = np.sqrt(2.0 * (2.0 * m + 1.0))
    c, s = np.cos(om * tau), np.sin(om * tau)
    X[1, 0] = X[2, 0] = (c + 1.0) / 2.0
    X[1, 3] = X[2, 3] = (c - 1.0) / 2.0
    X[1, 1] = X[2, 2] = -1j * np.sqrt((m + 1.0) / (2.0 * (2.0 * m + 1.0))) * s
    X[1, 2] = X[2, 1] = -1j * np.sqrt(m / (2.0 * (2.0 * m + 1.0))) * s
    live = m >= 1.0
    m_safe = np.where(live, m, 1.0)
    om = np.sqrt(2.0 * (2.0 * m_safe - 1.0))
    c, s = np.cos(om * tau), np.sin(om * tau)
    X[0, 0] = np.where(live, m_safe / (2.0 * m_safe - 1.0) * (c - 1.0) + 1.0, 1.0)
    X[0, 1] = X[0, 2] = np.where(live, -1j * np.sqrt(m_safe / (2.0 * (2.0 * m_safe - 1.0))) * s, 0.0)
    X[0, 3] = np.where(live, np.sqrt(m_safe * (m_safe - 1.0)) / (2.0 * m_safe - 1.0) * (c - 1.0), 0.0)
    return X


def test_two_atom_table_matches_closed_form_on_hot_fields():
    # the table is real; times the phase of its flips it is the complex closed
    # form; hot thermal queries each ask for a different number of levels
    taus = np.linspace(0.0, 25.0, 7)
    phase = dynamics._FLIP_PHASE[:, None, None]
    for nbar in np.linspace(12.0, 16.0, 50):
        ms, _ = FieldSpec.thermal(float(nbar)).weights()
        X = dynamics._x_block_table(ms, taus)
        assert X.dtype == np.float64
        np.testing.assert_allclose(X * phase, closed_form_x(ms, taus), rtol=0.0, atol=1e-14)
    # photon numbers in any order, empty cavity included
    few = np.array([5, 0, 2, 1])
    np.testing.assert_allclose(dynamics._x_block_table(few, taus) * phase, closed_form_x(few, taus), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("ms", ([0], [3], [0, 1, 2, 3, 4, 5], [2, 7]), ids=str)
def test_one_atom_table_matches_ladder_closed_form(ms):
    ms = np.array(ms)
    taus = np.linspace(0.0, 25.0, 33)
    Y = dynamics._y_block_table(ms, taus)
    assert Y.dtype == np.float64
    amplitudes = Y * dynamics._FLIP_PHASE[:2, None, None]
    for i, rabi in ((0, np.sqrt(ms)), (1, np.sqrt(ms + 1.0))):
        angle = rabi[:, None] * taus[None, :]
        np.testing.assert_array_equal(amplitudes[i, 0], np.cos(angle))
        np.testing.assert_array_equal(amplitudes[i, 1], -1j * np.sin(angle))
