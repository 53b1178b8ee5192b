"""Randomized differential test: the closed-form pipeline against the brute-force oracle."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dtcm import oracle
from dtcm.analysis import Scenario, sweep_pairs
from dtcm.dynamics import BellType, FieldSpec, Model

FIELDS = (
    FieldSpec.vacuum(),
    FieldSpec.fock(1),
    FieldSpec.fock(2),
    FieldSpec.fock(3),
    FieldSpec.thermal(0.05),
    FieldSpec.thermal(0.2),
    FieldSpec.thermal(0.5),
)


@st.composite
def groups(draw):
    """One ``_compare_group`` call: layout, fields, a grid that need not be uniform, preparations, cutoff."""
    model = draw(st.sampled_from(Model))
    field_a, field_b = draw(st.sampled_from(FIELDS)), draw(st.sampled_from(FIELDS))
    taus = draw(st.lists(st.floats(0.0, 30.0), min_size=1, max_size=12, unique=True))
    preparations = draw(
        st.lists(st.tuples(st.sampled_from(BellType), st.floats(0.0, math.pi)), min_size=1, max_size=3)
    )
    n_atoms = oracle._atoms_per_cavity(model)
    required = max(oracle._required_cutoff(field_a, n_atoms), oracle._required_cutoff(field_b, n_atoms))
    n_max = required + draw(st.integers(0, 1))
    return model, field_a, field_b, np.array(sorted(taus)), n_max, preparations


@settings(max_examples=30, derandomize=True, deadline=None)
@given(group=groups())
def test_random_groups_match_the_oracle(group):
    model, field_a, field_b, taus, n_max, preparations = group
    for report in oracle._compare_group(model, field_a, field_b, taus, n_max, preparations):
        assert report.max_state_deviation <= 1e-10
        assert report.max_concurrence_deviation <= 1e-9
    if model is Model.DTCM and field_a == field_b:
        # equal fields and equal pair preparations make the AB and CD pairs images of each other
        for bell in {bell for bell, _ in preparations}:
            alphas = sorted({alpha for b, alpha in preparations if b is bell})
            curves = sweep_pairs(Scenario(model, bell, field_a, field_b), ("AB", "CD"), alphas, taus)
            for ab, cd in zip(curves["AB"], curves["CD"]):
                np.testing.assert_allclose(ab.values, cd.values, rtol=0.0, atol=1e-10)
