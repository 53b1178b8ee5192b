#!/usr/bin/env python3
"""Entanglement trades places: AB dies while the cross pair BD is born.

With one photon prepared in each cavity, the primary pair's entanglement is
destroyed quickly, and atoms that never interacted (B and D sit in different
cavities) become entangled after a finite delay.  The birth is delayed more
as the preparation approaches the balanced angle, and past a = 0.25 pi the
cross pair never fires at all.
"""
import numpy as np

from dtcm import BellType, FieldSpec, Model, Scenario, detect_esb, detect_esd, sweep_pairs

fock1 = FieldSpec.fock(1)
scenario = Scenario(Model.DTCM, BellType.PSI, fock1, fock1)
tau = np.linspace(0.0, 25.0, 2501)
alphas = np.array([0.0, 0.1, 0.2, 0.25, 0.45]) * np.pi

curves = sweep_pairs(scenario, ("AB", "BD"), alphas, tau)  # one channel build for both pairs
ab, bd = curves["AB"], curves["BD"]

print("one photon per cavity, one-excitation preparation")
print(f"{'alpha/pi':>9} {'AB death':>9} {'BD birth':>9} {'BD peak':>8}")
for curve_ab, curve_bd in zip(ab, bd):
    death = detect_esd(curve_ab).death_time
    birth = detect_esb(curve_bd).birth_time
    death_s = f"{death:9.3f}" if death is not None else "     none"
    birth_s = f"{birth:9.3f}" if birth is not None else "    never"
    print(f"{curve_ab.alpha / np.pi:9.2f} {death_s} {birth_s} {curve_bd.values.max():8.3f}")
