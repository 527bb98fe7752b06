"""Gauge-invariant kinematics of finite-dimensional quantum systems.

Canonical factorization of unitaries into coset factors, cyclic
(Bargmann-type) invariants and their reductions to primitive blocks,
geometric/dynamical/total phases of discretized state curves, and the
off-diagonal phase factors that survive where the diagonal geometric
phase is undefined.
"""

from __future__ import annotations

from .bargmann import (
    BargmannFactor,
    BargmannValue,
    bargmann_invariant,
    delta4_general,
    delta4_grid,
    delta4_primitive,
    independent_primitive_set,
    interleaved_invariant,
    reduce_general_bargmann,
    reduce_to_adjacent,
)
from .canonical import (
    CanonicalParams,
    coset_representative,
    decompose,
    modulus_invariants,
    phase_invariant_list,
    reconstruct,
    split_coset,
)
from .core import (
    DEFAULT_TOLERANCES,
    DegenerateSpectrumError,
    DimensionMismatchError,
    GridMismatchError,
    NonGenericAnchorError,
    NonGenericMatrixError,
    NonGenericVectorError,
    NotUnitaryError,
    Tolerances,
    Undefined,
    UndefinedPhaseError,
    UnitaryMatrix,
    UnitVector,
    circular_distance,
    inner_product,
    principal_arg,
    reduce_phase,
)
from .curves import (
    QUADRATURES,
    FrameEvolution,
    PhaseReport,
    StateCurve,
    dynamical_phase,
    endpoint_overlap_matrix,
    frame_phase_bundle,
    geometric_phase,
    phase_report,
    total_phase,
)
from .gauge import (
    GaugeInvarianceReport,
    GaugeRecursionReport,
    gauge_transform_curve,
    gauge_transform_evolution,
    gauge_transform_matrix,
    verify_gauge_recursion,
    verify_invariants_under_gauge,
)
from .generators import (
    HermitianPath,
    SmoothCoefficient,
    engineered_swap_evolution,
    frame_evolution_from_path,
    random_generic_unitary,
    random_hermitian_path,
    random_smooth_phases,
    random_unit_vector,
)
from .io import (
    FileFormatError,
    complex_pairs,
    dump_report,
    load_evolution,
    load_matrix,
    pair_rows,
    save_evolution,
    save_matrix,
)
from .offdiag import (
    OffDiagReport,
    dynamical_factor,
    gamma_diag,
    gamma_multi,
    gamma_pair,
    gamma_via_invariants,
    sigma,
    verify_offdiag_identity,
)
from .verification import (
    CheckResult,
    SuiteReport,
    SUITES,
    primitive_phase_rank,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "Tolerances", "DEFAULT_TOLERANCES", "Undefined", "UnitVector", "UnitaryMatrix",
    "inner_product", "principal_arg", "reduce_phase", "circular_distance",
    "DimensionMismatchError", "NotUnitaryError", "UndefinedPhaseError",
    "NonGenericVectorError", "NonGenericMatrixError", "NonGenericAnchorError",
    "DegenerateSpectrumError", "GridMismatchError",
    # canonical
    "CanonicalParams", "coset_representative", "split_coset",
    "decompose", "reconstruct", "modulus_invariants", "phase_invariant_list",
    # bargmann
    "BargmannValue", "BargmannFactor", "bargmann_invariant", "interleaved_invariant",
    "delta4_general", "delta4_primitive", "delta4_grid", "reduce_to_adjacent",
    "reduce_general_bargmann", "independent_primitive_set",
    # gauge
    "gauge_transform_matrix", "gauge_transform_curve",
    "gauge_transform_evolution", "GaugeRecursionReport", "verify_gauge_recursion",
    "GaugeInvarianceReport", "verify_invariants_under_gauge",
    # curves
    "QUADRATURES", "StateCurve", "FrameEvolution", "PhaseReport",
    "total_phase", "dynamical_phase", "geometric_phase", "phase_report",
    "frame_phase_bundle", "endpoint_overlap_matrix",
    # offdiag
    "sigma", "dynamical_factor", "gamma_pair", "gamma_diag", "gamma_multi",
    "gamma_via_invariants", "OffDiagReport", "verify_offdiag_identity",
    # generators
    "SmoothCoefficient", "HermitianPath", "random_generic_unitary",
    "random_unit_vector", "random_hermitian_path", "random_smooth_phases",
    "frame_evolution_from_path", "engineered_swap_evolution",
    # io
    "FileFormatError", "load_matrix", "save_matrix", "load_evolution",
    "save_evolution", "complex_pairs", "pair_rows", "dump_report",
    # verification
    "CheckResult", "SuiteReport", "SUITES", "run_suite", "primitive_phase_rank",
]
