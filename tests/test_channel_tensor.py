"""The per-cavity channel tensor against a plain per-term sum, its memory use, and the self-check on it."""

import tracemalloc

import numpy as np
import pytest

from dtcm import dynamics, verification
from dtcm.dynamics import FieldSpec

FIELDS = [FieldSpec.vacuum(), FieldSpec.fock(2), FieldSpec.thermal(1.0), FieldSpec.thermal(3.0)]
FIELD_IDS = ["vacuum", "fock2", "thermal1", "thermal3"]


def per_term_reference(field, taus, n_atoms):
    """Each selection-rule term summed over the photon distribution on its own."""
    ms, ps = field.weights()
    table = dynamics._x_block_table if n_atoms == 2 else dynamics._y_block_table
    amps = table(ms, taus)
    dim = 2**n_atoms
    E = np.zeros((taus.size,) + (dim,) * 4, dtype=complex)
    for ket_in, bra_in, ket_flips, bra_flips, row, col in dynamics._DELTA_TERMS[n_atoms]:
        E[:, row, col, ket_in, bra_in] += ps @ (amps[ket_in, ket_flips] * np.conj(amps[bra_in, bra_flips]))
    return E


@pytest.mark.parametrize("n_atoms", (1, 2))
@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_matches_per_term_sum(field, n_atoms):
    # 1001 taus span several chunks for every field, the last one partial
    taus = np.linspace(0.0, 25.0, 1001)
    E = dynamics._channel_tensor(field, taus, n_atoms)
    np.testing.assert_allclose(E, per_term_reference(field, taus, n_atoms), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("n_atoms", (1, 2))
@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_grid_matches_single_time_builds(field, n_atoms):
    taus = np.linspace(0.0, 25.0, 37)
    grid = dynamics._channel_tensor(field, taus, n_atoms)
    stacked = np.concatenate([dynamics._channel_tensor(field, taus[t : t + 1], n_atoms) for t in range(taus.size)])
    np.testing.assert_allclose(grid, stacked, rtol=0.0, atol=1e-14)


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
    # scramble where the one-atom terms land; the two-atom path is untouched
    ket, bra, dst = dynamics._GATHER[1]
    monkeypatch.setattr(dynamics, "_GATHER", {**dynamics._GATHER, 1: (ket, bra, dst[::-1].copy())})
    result = verification.suite_explicit_maps()
    assert not result.passed
    assert result.max_deviation > 1e-3
