"""Exact entanglement dynamics of two Bell pairs shared between two cavities.

Two two-level atom pairs are prepared in Bell-like superpositions and
distributed so that one member of each pair sits in each of two resonant
cavities.  The package computes the exact reduced atomic density matrix over
time, the pairwise Wootters concurrence, sudden-death and sudden-birth
events, and the interaction-strength classification that predicts them,
cross-checked against a brute-force truncated-Fock-space oracle.
"""
from .algebra import (
    CANONICAL_LABELS,
    DensityMatrix,
    ValidationReport,
    partial_trace,
    validate_density,
)
from .analysis import (
    PAIR_CHOICES,
    ConcurrenceCurve,
    EsdEvents,
    Regime,
    RegimeReport,
    Scenario,
    classify_regime,
    detect_esb,
    detect_esd,
    sweep_concurrence,
    sweep_pairs,
)
from .concurrence import (
    XFormMatrix,
    concurrence_general,
    concurrence_x,
    is_x_form,
    x_pattern_deviation,
)
from .dynamics import (
    BellPairSpec,
    BellType,
    FieldSpec,
    Model,
    XCoefficientKey,
    assemble_atomic_state,
    jc_amplitudes,
    pair_map,
    pair_map_explicit,
    x_coeff,
)
from .errors import ConfigError, CutoffLeakageError, NumericalError
from .oracle import (
    PipelineComparison,
    TruncatedHamiltonian,
    build_tc_hamiltonian,
    compare_pipelines,
    evolution_operator,
    oracle_atomic_grid,
    oracle_evolve,
)
from .verification import SuiteResult, run_verification

__version__ = "0.1.0"

__all__ = [
    "BellPairSpec",
    "BellType",
    "CANONICAL_LABELS",
    "ConcurrenceCurve",
    "ConfigError",
    "CutoffLeakageError",
    "DensityMatrix",
    "EsdEvents",
    "FieldSpec",
    "Model",
    "NumericalError",
    "PAIR_CHOICES",
    "PipelineComparison",
    "Regime",
    "RegimeReport",
    "Scenario",
    "SuiteResult",
    "TruncatedHamiltonian",
    "ValidationReport",
    "XCoefficientKey",
    "XFormMatrix",
    "assemble_atomic_state",
    "build_tc_hamiltonian",
    "classify_regime",
    "compare_pipelines",
    "concurrence_general",
    "concurrence_x",
    "detect_esb",
    "detect_esd",
    "evolution_operator",
    "is_x_form",
    "jc_amplitudes",
    "oracle_atomic_grid",
    "oracle_evolve",
    "pair_map",
    "pair_map_explicit",
    "partial_trace",
    "sweep_concurrence",
    "sweep_pairs",
    "validate_density",
    "x_coeff",
    "x_pattern_deviation",
]
