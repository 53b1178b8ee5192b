"""Published closed forms as checks that share no code with the package.

Yönaç, Yu & Eberly, J. Phys. B 39, S621 (2006), give the concurrence of two
atoms in separate vacuum cavities (the double Jaynes-Cummings model) in
closed form.  In this package's convention, where a pair's branch
amplitudes are (sin a, cos a) for the first atom's bit 0 or 1 and
tau = g t, with c = cos tau and s = sin tau:

- Psi: C_AB = |sin 2a| c^2;
- Phi: C_AB = 2 c^2 max(0, sin a cos a - cos^2 a s^2).

So Phi dies if and only if a < pi/4, from tau_d = arcsin(sqrt(tan a)) to
pi - tau_d in each period.  Every form is written out here by hand, never
read from the amplitude tables or the oracle.
"""

import math

import numpy as np
import pytest

from dtcm.analysis import Scenario, detect_esd, sweep_pairs
from dtcm.dynamics import BellType, FieldSpec, Model

ALPHAS = np.linspace(0.01, math.pi / 2 - 0.01, 37)
TAUS = np.linspace(0.0, 25.0, 2501)


def djcm_vacuum_curves(bell, alphas, taus):
    vacuum = FieldSpec.vacuum()
    return sweep_pairs(Scenario(Model.DJCM, bell, vacuum, vacuum), ("AB",), alphas, taus)["AB"]


def psi_closed_form(alpha, taus):
    return abs(math.sin(2.0 * alpha)) * np.cos(taus) ** 2


def phi_closed_form(alpha, taus):
    c2, s2 = np.cos(taus) ** 2, np.sin(taus) ** 2
    return 2.0 * c2 * np.maximum(0.0, math.sin(alpha) * math.cos(alpha) - math.cos(alpha) ** 2 * s2)


@pytest.mark.parametrize(
    "bell, closed_form", [(BellType.PSI, psi_closed_form), (BellType.PHI, phi_closed_form)], ids=("psi", "phi")
)
def test_djcm_vacuum_concurrence_matches_the_closed_form(bell, closed_form):
    curves = djcm_vacuum_curves(bell, ALPHAS, TAUS)
    assert len(curves) == ALPHAS.size
    for curve in curves:
        np.testing.assert_allclose(curve.values, closed_form(curve.alpha, TAUS), rtol=0.0, atol=1e-14)


def test_phi_sudden_death_threshold_is_pi_over_4():
    below, above = math.pi / 4 - 1e-3, math.pi / 4 + 1e-3
    step = TAUS[1] - TAUS[0]
    dying, living = (detect_esd(curve) for curve in djcm_vacuum_curves(BellType.PHI, [below, above], TAUS))
    assert dying.esd_found and not living.esd_found
    tau_d = math.asin(math.sqrt(math.tan(below)))
    assert tau_d <= dying.death_time <= tau_d + step
    assert dying.death_time == pytest.approx(1.53)
    assert not any(detect_esd(curve).esd_found for curve in djcm_vacuum_curves(BellType.PSI, [below, above], TAUS))


@pytest.mark.parametrize("n_tau", (251, 2501))
@pytest.mark.parametrize("alpha", (0.05 * math.pi, 0.15 * math.pi, 0.24 * math.pi), ids=("0.05pi", "0.15pi", "0.24pi"))
def test_phi_death_and_revival_follow_the_exact_times_within_one_step(alpha, n_tau):
    taus = np.linspace(0.0, 25.0, n_tau)
    step = taus[1] - taus[0]
    events = detect_esd(djcm_vacuum_curves(BellType.PHI, [alpha], taus)[0])
    tau_d = math.asin(math.sqrt(math.tan(alpha)))
    assert tau_d <= events.death_time <= tau_d + step
    assert math.pi - tau_d <= events.revival_time <= math.pi - tau_d + step
