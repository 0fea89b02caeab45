"""matmeans: scalar and matrix mean inequalities with verified refinement chains.

The package computes weighted arithmetic, geometric, and harmonic means of
positive definite matrices, dyadic refinements of reversed Young-, Heinz-,
and Kantorovich-type inequalities at both the scalar and operator level, and
unitarily invariant norm functionals. A seeded verification harness checks
every inequality chain on randomized instances and reports slack statistics.
"""

from .errors import ConvergenceError, DomainError, RequestError
from .harness import (
    Built,
    CaseConfig,
    build_instance,
    case_names,
    run_case,
    run_suite,
    sweep,
)
from .linalg import (
    ComplexMatrix,
    EigenDecomposition,
    HermitianMatrix,
    LoewnerVerdict,
    SpdMatrix,
    loewner_leq,
    matrix_from_json,
    matrix_to_json,
    random_spd,
)
from .means import (
    OperatorChain,
    arithmetic_mean,
    geometric_mean,
    harmonic_mean,
    harmonic_operator_chain,
    kantorovich_operator_chain,
    operator_reverse_chain,
    operator_squared_chain,
    trace_additive_chain,
    trace_depth1_chain,
    trace_multiplicative_chain,
)
from .norms import (
    DEFAULT_NORM_KINDS,
    NormKind,
    combined_norm_chain,
    heinz_interpolated_chain,
    heinz_interpolation_values,
    heinz_norm,
    heinz_pq_chain,
    heinz_reverse_chain,
    norm_heinz_chain,
    norm_reverse_chain,
    singular_values,
    ui_norm,
)
from .reporting import ChainReport, chain_gap, chain_slacks, reports_to_csv
from .scalar import (
    CONVEX_CATALOG,
    LOGCONVEX_CATALOG,
    ScalarChain,
    arith_mean,
    convex_refined_chain,
    geom_mean,
    harm_mean,
    harmonic_geometric_chain,
    harmonic_reverse_chain,
    kantorovich_chain,
    kantorovich_constant,
    logconvex_refined_chain,
    weight_branch,
    young_refinement_chain,
    young_reverse_chain,
    young_squared_chain,
)

__version__ = "0.1.0"
