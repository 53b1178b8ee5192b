#!/usr/bin/env python3
"""Cross-check the closed-form pipeline against brute-force evolution.

The production pipeline assembles reduced atomic states from closed-form
exchange amplitudes.  The oracle ignores all of that: it builds the truncated
interaction Hamiltonian, exponentiates it, evolves each cavity register and
traces the photons numerically.  The two must agree to near machine
precision; thermal fields are truncation-limited instead.
"""
import numpy as np

from dtcm import BellType, FieldSpec, Model, Scenario, compare_pipelines

tau = np.linspace(0.0, 10.0, 25)
alphas = (0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8)
cases = [
    ("psi over vacuum", BellType.PSI, FieldSpec.vacuum(), 6),
    ("phi over vacuum", BellType.PHI, FieldSpec.vacuum(), 6),
    ("psi over one photon", BellType.PSI, FieldSpec.fock(1), 6),
    ("phi over three photons", BellType.PHI, FieldSpec.fock(3), 8),
    ("psi over thermal n=1", BellType.PSI, FieldSpec.thermal(1.0), 36),
]

print(f"{'scenario':<24} {'n_max':>5} {'state dev':>11} {'concurrence dev':>16}")
for label, bell, field, n_max in cases:
    scenario = Scenario(Model.DTCM, bell, field, field)
    results = [compare_pipelines(scenario, alpha, tau, n_max=n_max) for alpha in alphas]
    # np.max carries a NaN into the printout, where the builtin max would drop it
    worst_state = np.max([result.max_state_deviation for result in results])
    worst_conc = np.max([result.max_concurrence_deviation for result in results])
    print(f"{label:<24} {n_max:>5} {worst_state:>11.2e} {worst_conc:>16.2e}")
