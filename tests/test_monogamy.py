"""Monogamy of concurrence as an oracle-free bound on the assembled DTCM states.

Coffman, Kundu & Wootters, PRA 61, 052306 (2000), and Osborne & Verstraete,
PRL 96, 220503 (2006), give C_AB^2 + C_AC^2 + C_AD^2 <= 4 det rho_A for any
four-qubit state; dropping C_AD keeps the bound.  At tau = 0 atom A shares
a pure Bell pair with B alone, so the bound holds with equality there:
C_AB = sin 2a, C_AC = 0 and 4 det rho_A = sin^2 2a.  That equality is what
catches a concurrence that reads the two coherences swapped, which only
lowers C and so still satisfies the inequality.  Both readings are held
to it: the general route, and the X form the sweeps use.
"""

import math

import numpy as np
import pytest

from dtcm.algebra import partial_trace
from dtcm.concurrence import XFormMatrix, concurrence_general, concurrence_x
from dtcm.dynamics import BellPairSpec, BellType, FieldSpec, Model, assemble_atomic_state

FIELDS = (
    FieldSpec.vacuum(),
    FieldSpec.fock(1),
    FieldSpec.fock(3),
    # a truncated thermal state keeps 1 - eps of its trace and scales both sides by
    # (1 - eps)^2; a tail mass of 1e-13 keeps that well inside the 1e-12 equality
    FieldSpec.thermal(0.5, 1e-13),
    FieldSpec.thermal(1.0, 1e-13),
)
# equal and unequal angles of the (A,B) and (C,D) pairs
ANGLES = ((0.3, 0.3), (1.1, 1.1), (0.3, 1.2), (1.4, 0.6))
TAUS = (0.0, 0.4, 1.3, 2.9, 5.7, 11.0)


ROUTES = {
    "general": concurrence_general,
    "x-form": lambda mat: concurrence_x(XFormMatrix.from_matrix(mat)),
}


def monogamy_terms(concurrence, bell, alphas, field_a, field_b, tau):
    """(C_AB^2 + C_AC^2, 4 det rho_A) of one assembled state."""
    rho = assemble_atomic_state(
        BellPairSpec(bell, alphas[0]), BellPairSpec(bell, alphas[1]), field_a, field_b, tau, Model.DTCM
    )
    shared = sum(concurrence(partial_trace(rho, pair).matrix) ** 2 for pair in ("AB", "AC"))
    det_a = np.linalg.det(partial_trace(rho, "A").matrix).real
    return shared, 4.0 * det_a


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("bell", (BellType.PSI, BellType.PHI), ids=("psi", "phi"))
@pytest.mark.parametrize("field_a", FIELDS, ids=lambda f: f.kind + str(f.n if f.kind == "fock" else f.nbar))
def test_shared_concurrence_is_bounded_by_the_tangle_of_a(field_a, bell, route):
    for field_b in FIELDS:
        for alphas in ANGLES:
            for tau in TAUS:
                shared, bound = monogamy_terms(ROUTES[route], bell, alphas, field_a, field_b, tau)
                assert shared <= bound + 1e-12, (field_b, alphas, tau, shared - bound)
                if tau == 0.0:
                    assert bound == pytest.approx(math.sin(2.0 * alphas[0]) ** 2, abs=1e-12)
                    assert shared == pytest.approx(bound, abs=1e-12), (field_b, alphas)
