"""The sweep's X plans: each pair's kernel read straight from the Gram cells, against the dense route."""

import numpy as np
import pytest

from dense_route import dense_kernel
from dtcm import analysis, dynamics, verification
from dtcm.dynamics import BellType, FieldSpec, Model

F = FieldSpec
FIELD_PAIRS = [
    (F.vacuum(), F.vacuum()),
    (F.fock(1), F.fock(1)),
    (F.thermal(1.0), F.thermal(1.0)),
    (F.vacuum(), F.fock(2)),
    (F.thermal(0.5), F.vacuum()),
    (F.thermal(1.0), F.thermal(2.0)),
]
FIELD_IDS = ["vacuum", "fock1", "thermal1", "vacuum-fock2", "thermal0.5-vacuum", "thermal1-thermal2"]
PLAN_KEYS = list(analysis._X_PLANS)
PLAN_IDS = [f"{model.value}-{bell.value}-{pair}" for model, bell, pair in PLAN_KEYS]


def test_every_layout_pair_and_bell_type_has_a_plan():
    assert sorted(PLAN_IDS) == sorted(
        f"{model.value}-{bell.value}-{pair}" for model in Model for bell in BellType for pair in analysis._model_pairs(model)
    )
    assert len(PLAN_KEYS) == 10


@pytest.mark.parametrize("key", PLAN_KEYS, ids=PLAN_IDS)
def test_plan_keeps_the_x_cells_the_selection_rule_leaves(key):
    # kept cells and the distinct factor rows of cavities a and b
    expected = {"AB": (32, 20, 20), "CD": (32, 20, 20), "AC": (36, 12, 6), "BD": (36, 6, 12)}
    model, _, pair = key
    plan = analysis._X_PLANS[key]
    want = expected[pair] if model is Model.DTCM else (10, 6, 6)
    assert (plan.cells.size, plan.rows[0].shape[0], plan.rows[1].shape[0]) == want
    for rows, factors in zip(plan.rows, plan.factors):
        assert factors.shape == plan.cells.shape
        assert len(set(map(tuple, rows.tolist()))) == rows.shape[0]  # deduplicated
        assert sorted(set(factors.tolist())) == list(range(rows.shape[0]))  # every row is used


@pytest.mark.parametrize("fields", FIELD_PAIRS, ids=FIELD_IDS)
@pytest.mark.parametrize("key", PLAN_KEYS, ids=PLAN_IDS)
def test_plan_kernel_is_the_dense_kernels_x_cut(key, fields):
    model, bell, pair = key
    plan = analysis._X_PLANS[key]
    taus = np.linspace(0.0, 25.0, 701)
    grams = dynamics._grams(model, *fields, taus)
    kernel = dense_kernel(model, bell, *fields, taus, pair).reshape(taus.size, 16, -1)
    dense_KX, dense_bound = analysis._x_kernel(kernel)
    KX, off_bound = analysis._x_pair_kernel(plan, *grams)
    assert off_bound == dense_bound == 0.0
    # equal in value: only the sign of a zero cell may differ
    np.testing.assert_array_equal(KX, dense_KX)
    assert KX.shape == dense_KX.shape and KX.dtype == np.float64
    # every cell the plan leaves out is 0.0 in the dense kernel, off the X pattern and on it
    left_out = np.ones(dense_KX[0].size, dtype=bool)
    left_out[plan.cells] = False
    assert not dense_KX.reshape(taus.size, -1)[:, left_out].any()
    assert not kernel[:, list(analysis._OFF_ENTRIES)].any()
    # the weighted states are bit for bit those of the dense route
    alphas = np.linspace(0.0, np.pi / 2, 7).tolist()
    W = analysis._scenario_weights(analysis.Scenario(model, bell, *fields), alphas)
    assert dynamics._apply_weights(KX, W).tobytes() == dynamics._apply_weights(dense_KX, W).tobytes()


def test_a_plan_whose_off_pattern_cell_reads_a_nonzero_gram_cell_is_rejected(monkeypatch):
    # the first channel cell the selection rule kills, E[00, 00, 0, 1], reads Gram cell 0 instead of
    # the zero cell: AB's off-pattern cells that multiply cavity a's factor at that cell lose their zero factor
    function, offset, scatter = dynamics._CHANNEL_PLANS[2]
    faulty = scatter.copy()
    faulty[np.flatnonzero(scatter == function.size**2)[0]] = 0
    monkeypatch.setattr(dynamics, "_CHANNEL_PLANS", {**dynamics._CHANNEL_PLANS, 2: (function, offset, faulty)})
    key = (Model.DTCM, BellType.PSI, "AB")
    with pytest.raises(AssertionError, match="^DTCM psi AB: an off-pattern kernel cell has no zero factor$"):
        analysis._x_plan(key, dynamics._kernel_terms(*key))
    # the one-atom layout's scatter is untouched, and so are its plans
    key = (Model.DJCM, BellType.PSI, "AB")
    analysis._x_plan(key, dynamics._kernel_terms(*key))


def test_a_misplaced_factor_row_fails_state_validity_and_oracle_agreement(monkeypatch):
    # cavity a's first factor row of DTCM psi AB reads the second row's Gram cells
    key = (Model.DTCM, BellType.PSI, "AB")
    plan = analysis._X_PLANS[key]
    rows_a = plan.rows[0].copy()
    rows_a[0] = rows_a[1]
    monkeypatch.setitem(analysis._X_PLANS, key, plan._replace(rows=(rows_a, plan.rows[1])))
    validity = verification.suite_state_validity()
    assert not validity.passed, validity.line()
    assert " AB alpha=" in validity.detail, validity.line()
    # the sweep inside the oracle comparison rejects AB's states before any concurrence is compared
    agreement = verification.suite_oracle_agreement(verification.QUICK)
    assert not agreement.passed, agreement.line()
    assert "pair AB, alpha=" in agreement.detail, agreement.line()
