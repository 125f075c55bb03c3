"""proxframe: frame shrinkage operators and their induced regularizers.

Composition of a proximity operator with an analysis operator T and its
pseudoinverse, the metric ||x||_T = ||Tx|| in which that composition is
itself a proximity operator, numerical evaluation of the regularizer it is
the prox of, verification suites for the defining identities, and baseline
solvers for the analysis-sparsity problem.
"""

from .errors import (
    DimensionMismatch,
    NonPositiveLambda,
    NotConverged,
    NotParsevalRow,
    ProxFrameError,
    RankDeficient,
)
from .operators import (
    AnalysisOperator,
    build_operator,
    load_matrix_csv,
    load_matrix_json,
    random_operator,
    t_gradient,
    verify_operator_identities,
)
from .prox import (
    ProxMap,
    huber_envelope,
    identity_map,
    numeric_prox,
    prox_map_by_name,
    shrink_potential,
    soft_shrink,
    soft_shrink_map,
    verify_firm_nonexpansive,
    verify_moreau_characterization,
)
from .reports import SolveReport, VerifyReport
from .shrinkage import (
    FrameShrinkage,
    InducedRegularizer,
    example_operator,
    example_regularizer_closed_form,
    example_shrinkage,
    frame_prox,
    induced_regularizer,
    verify_prox_identity,
    verify_t_firm_nonexpansive,
    weaker_regularizer_check,
)
from .solvers import (
    AnalysisProblem,
    analysis_objective,
    solve_analysis_dual,
    synthesis_solution,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisOperator",
    "AnalysisProblem",
    "DimensionMismatch",
    "FrameShrinkage",
    "InducedRegularizer",
    "NonPositiveLambda",
    "NotConverged",
    "NotParsevalRow",
    "ProxFrameError",
    "ProxMap",
    "RankDeficient",
    "SolveReport",
    "VerifyReport",
    "analysis_objective",
    "build_operator",
    "example_operator",
    "example_regularizer_closed_form",
    "example_shrinkage",
    "frame_prox",
    "huber_envelope",
    "identity_map",
    "induced_regularizer",
    "load_matrix_csv",
    "load_matrix_json",
    "numeric_prox",
    "prox_map_by_name",
    "random_operator",
    "shrink_potential",
    "soft_shrink",
    "soft_shrink_map",
    "solve_analysis_dual",
    "synthesis_solution",
    "t_gradient",
    "verify_firm_nonexpansive",
    "verify_moreau_characterization",
    "verify_operator_identities",
    "verify_prox_identity",
    "verify_t_firm_nonexpansive",
    "weaker_regularizer_check",
]
