"""Attention weight maps as exact solutions of simplex-constrained convex
programs, with machine-checked optimality, gradient, and duality identities."""

from .core import (
    ALIBI,
    KL_PRIOR,
    L2,
    REGULARIZER_KINDS,
    SHANNON,
    TSALLIS,
    NumericalFailure,
    QueryKeyBatch,
    RegularizerSpec,
    Scores,
    SimplexDistribution,
    UtilityVector,
    ValueSet,
    kl_divergence,
    objective_value,
    shannon_entropy,
)
from .gradient import (
    FisherMatrix,
    GradientReport,
    JacobianMatrix,
    advantage_gradient,
    chain_rule_gradient,
    envelope_check,
    finite_difference_gradient,
    finite_difference_hessian,
    fisher_matrix,
    lse_hessian_check,
    marginal_utility,
    natural_gradient_identity_check,
    softmax_jacobian,
)
from .oracle import (
    EXPONENTIATED_GRADIENT,
    PROJECTED_GRADIENT,
    OracleResult,
    SolverConfig,
    fenchel_conjugate,
    grid_search_simplex,
    minimize_on_simplex,
)
from .solvers import (
    SolveResult,
    alibi_softmax,
    entmax,
    lse,
    primal_value,
    prior_softmax,
    softmax,
    solve,
    sparsemax,
)
from .suites import SUITE_NAMES, CheckResult, RunReport, gradcheck_report, run_suite
from .transport import (
    CostMatrix,
    TransportPlan,
    attention_matrix,
    context,
    cost_matrix,
    eot_matrix_objective,
    solve_full_eot,
)

__version__ = "0.1.0"
