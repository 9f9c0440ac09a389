"""Truncated moment problems in the extremal case.

Given finitely many prescribed moments, decide whether an atomic
representing measure exists when the rank of the moment matrix equals the
cardinality of the associated algebraic variety, and recover the unique
measure when it does.
"""

from .polycore import monomial_basis
from .moments import (
    MomentMatrix,
    Multisequence,
    build_moment_matrix,
    dump_multisequence,
    load_multisequence,
    psd_check,
    rank_kernel,
    recursiveness_check,
    riesz,
)
from .variety import (
    build_W,
    compute_variety,
    dump_points,
    injectivity_check,
    load_points,
    vandermonde_VB,
)
from .pipeline import Pipeline
from .consistency import consistency_check
from .extremal import (
    AtomicMeasure,
    SolveReport,
    dump_measure,
    load_measure,
    solve_extremal,
    verify_measure,
)
from .extension import (
    extension_search,
    propagate_recursive_extension,
    tightness_check,
)
from .synth import (
    ComplexMomentData,
    Derivation,
    SignedFunctional,
    beta_from_atoms,
    beta_from_functional,
    complex_to_real,
    example14_gamma,
    load_functional,
    moments_of_atoms,
)

__all__ = [
    "AtomicMeasure",
    "ComplexMomentData",
    "Derivation",
    "MomentMatrix",
    "Multisequence",
    "Pipeline",
    "SignedFunctional",
    "SolveReport",
    "beta_from_atoms",
    "beta_from_functional",
    "build_W",
    "build_moment_matrix",
    "complex_to_real",
    "compute_variety",
    "consistency_check",
    "dump_measure",
    "dump_multisequence",
    "dump_points",
    "example14_gamma",
    "extension_search",
    "injectivity_check",
    "load_functional",
    "load_measure",
    "load_multisequence",
    "load_points",
    "moments_of_atoms",
    "monomial_basis",
    "propagate_recursive_extension",
    "psd_check",
    "rank_kernel",
    "recursiveness_check",
    "riesz",
    "solve_extremal",
    "tightness_check",
    "vandermonde_VB",
    "verify_measure",
]

__version__ = "0.1.0"
