"""One check per regularizer parameter and per array rule: every entry
point that takes a raw value rejects it with the same exception and
message, and every validated type refuses non-finite entries."""

import re

import numpy as np
import pytest

from vattn import (
    CostMatrix,
    FisherMatrix,
    GradientReport,
    JacobianMatrix,
    QueryKeyBatch,
    RegularizerSpec,
    Scores,
    SimplexDistribution,
    SolverConfig,
    TransportPlan,
    UtilityVector,
    ValueSet,
    advantage_gradient,
    alibi_softmax,
    attention_matrix,
    chain_rule_gradient,
    context,
    cost_matrix,
    entmax,
    envelope_check,
    eot_matrix_objective,
    fenchel_conjugate,
    fisher_matrix,
    gradcheck_report,
    kl_divergence,
    lse,
    lse_hessian_check,
    marginal_utility,
    minimize_on_simplex,
    natural_gradient_identity_check,
    primal_value,
    prior_softmax,
    softmax,
    softmax_jacobian,
    solve,
    solve_full_eot,
)

S = Scores([0.3, -0.2, 0.9])
P = SimplexDistribution([0.25, 0.25, 0.5])
U = UtilityVector([1.0, -0.5, 0.25])
COVARIANCE = np.diag(P.weights) - np.outer(P.weights, P.weights)
BATCH = QueryKeyBatch([[0.5, -0.1], [0.2, 0.7]], [[0.3, 0.3], [-0.4, 0.1], [0.0, 1.0]])
PLAN = TransportPlan(np.full((2, 3), 1.0 / 3.0))

TEMPERATURE_ENTRY_POINTS = {
    "softmax": lambda t: softmax(S, t),
    "lse": lambda t: lse(S, t),
    "primal_value": lambda t: primal_value(S, t),
    "alibi_softmax": lambda t: alibi_softmax(S, 2, 0.5, t),
    "prior_softmax": lambda t: prior_softmax(S, P, t),
    "RegularizerSpec.shannon": lambda t: RegularizerSpec.shannon(t),
    "RegularizerSpec.alibi": lambda t: RegularizerSpec.alibi(0.5, 2, t),
    "RegularizerSpec.kl_prior": lambda t: RegularizerSpec.kl_prior(P, t),
    "JacobianMatrix": lambda t: JacobianMatrix(COVARIANCE, t),
    "FisherMatrix": lambda t: FisherMatrix(COVARIANCE, t),
    "softmax_jacobian": lambda t: softmax_jacobian(P, t),
    "fisher_matrix": lambda t: fisher_matrix(P, t),
    "advantage_gradient": lambda t: advantage_gradient(P, U, t),
    "chain_rule_gradient": lambda t: chain_rule_gradient(P, U, t),
    "natural_gradient_identity_check": lambda t: natural_gradient_identity_check(P, U, t),
    "lse_hessian_check": lambda t: lse_hessian_check(S, t, 1e-4),
    "envelope_check": lambda t: envelope_check(S, t, 1e-5),
    "attention_matrix": lambda t: attention_matrix(BATCH, t),
    "gradcheck_report": lambda t: gradcheck_report(S, t, utilities=U),
}

EPSILON_ENTRY_POINTS = {
    "eot_matrix_objective": lambda e: eot_matrix_objective(PLAN, cost_matrix(BATCH), e),
    "solve_full_eot": lambda e: solve_full_eot(BATCH, e),
}

NOT_POSITIVE_FINITE = [0.0, -1.0, float("nan"), float("inf")]


def _rejects(call, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("value", NOT_POSITIVE_FINITE)
@pytest.mark.parametrize("entry", sorted(TEMPERATURE_ENTRY_POINTS))
def test_temperature_check(entry, value):
    _rejects(
        TEMPERATURE_ENTRY_POINTS[entry], value, "temperature must be a positive finite real"
    )


@pytest.mark.parametrize("value", NOT_POSITIVE_FINITE)
@pytest.mark.parametrize("entry", sorted(EPSILON_ENTRY_POINTS))
def test_epsilon_check(entry, value):
    _rejects(EPSILON_ENTRY_POINTS[entry], value, "epsilon must be a positive finite real")


@pytest.mark.parametrize("alpha", [1.0, 0.5, float("nan")])
@pytest.mark.parametrize("call", [lambda a: entmax(S, a), RegularizerSpec.tsallis])
def test_alpha_check(call, alpha):
    _rejects(call, alpha, "alpha must exceed 1 (the alpha -> 1 limit is softmax)")


ALIBI_ENTRY_POINTS = [
    lambda gamma, position: alibi_softmax(S, position, gamma, 1.0),
    lambda gamma, position: RegularizerSpec.alibi(gamma, position, 1.0),
]


@pytest.mark.parametrize("gamma", [-1.0, float("nan")])
@pytest.mark.parametrize("call", ALIBI_ENTRY_POINTS)
def test_gamma_check(call, gamma):
    _rejects(lambda g: call(g, 2), gamma, "gamma must be a nonnegative finite real")


@pytest.mark.parametrize("position", [0, 2.5, float("nan"), float("inf")])
@pytest.mark.parametrize("call", ALIBI_ENTRY_POINTS)
def test_query_position_check(call, position):
    _rejects(
        lambda i: call(0.5, i), position, "query_position must be an integer index >= 1"
    )


def test_prior_check():
    zero = SimplexDistribution([0.5, 0.0, 0.5])
    _rejects(lambda q: prior_softmax(S, q, 1.0), zero, "prior must be strictly positive")
    _rejects(lambda q: RegularizerSpec.kl_prior(q, 1.0), zero, "prior must be strictly positive")
    _rejects(
        lambda q: kl_divergence(P, q), zero, "reference distribution must be strictly positive"
    )


def test_matrix_types_keep_their_own_checks():
    # Zero row sums, symmetric within tolerance, but columns summing to
    # +-1.2e-12: only the Jacobian checks columns.
    d = 0.4e-12
    skewed = np.array([[d, -d, 0.0]] * 3)
    with pytest.raises(ValueError, match="columns"):
        JacobianMatrix(skewed, 1.0)
    FisherMatrix(skewed, 1.0)
    # Symmetric with zero row sums but negative semidefinite: only the
    # Fisher matrix checks eigenvalues.
    JacobianMatrix(-COVARIANCE, 1.0)
    with pytest.raises(ValueError, match="positive semidefinite"):
        FisherMatrix(-COVARIANCE, 1.0)
    for matrix_type in (JacobianMatrix, FisherMatrix):
        with pytest.raises(ValueError, match="square"):
            matrix_type(np.zeros((2, 3)), 1.0)
        with pytest.raises(ValueError, match="symmetric"):
            matrix_type([[0.0, 1.0], [-1.0, 0.0]], 1.0)
        with pytest.raises(ValueError, match="rows must sum to 0"):
            matrix_type(np.eye(2), 1.0)
        frozen = matrix_type(COVARIANCE, 2)
        assert frozen.temperature == 2.0 and isinstance(frozen.temperature, float)
        assert not frozen.entries.flags.writeable


# float() and int() read "1.5", b"2" and True as numbers; a parameter must
# be given as one.  Every entry point rejects such a value with a TypeError
# before it solves anything.
NOT_NUMBERS = ["2", b"2", True, np.True_]


def _rejects_type(call, value, name):
    with pytest.raises(TypeError, match=f"^{name} must be a number, not "):
        call(value)


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("entry", sorted(TEMPERATURE_ENTRY_POINTS))
def test_temperature_must_be_a_number(entry, value):
    _rejects_type(TEMPERATURE_ENTRY_POINTS[entry], value, "temperature")


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("entry", sorted(EPSILON_ENTRY_POINTS))
def test_epsilon_must_be_a_number(entry, value):
    _rejects_type(EPSILON_ENTRY_POINTS[entry], value, "epsilon")


@pytest.mark.parametrize("value", ["1.5", b"2", True, np.True_], ids=repr)
@pytest.mark.parametrize("call", [lambda a: entmax(S, a), RegularizerSpec.tsallis])
def test_alpha_must_be_a_number(call, value):
    _rejects_type(call, value, "alpha")


@pytest.mark.parametrize("value", ["0.5", b"0", False, np.False_], ids=repr)
@pytest.mark.parametrize("call", ALIBI_ENTRY_POINTS)
def test_gamma_must_be_a_number(call, value):
    _rejects_type(lambda g: call(g, 2), value, "gamma")


@pytest.mark.parametrize("value", ["2", b"2", True, np.True_], ids=repr)
@pytest.mark.parametrize("call", ALIBI_ENTRY_POINTS)
def test_query_position_must_be_a_number(call, value):
    _rejects_type(lambda i: call(0.5, i), value, "query_position")


@pytest.mark.parametrize("call", ALIBI_ENTRY_POINTS)
def test_query_position_beyond_the_double_range(call):
    # The key distances |i - j| are doubles.
    _rejects(lambda i: call(0.5, i), int("9" * 400), "query_position must be an integer index >= 1")


def test_numpy_and_integer_parameters_are_numbers():
    reg = RegularizerSpec.alibi(np.float32(0.5), np.int64(2), 1)
    assert (reg.gamma, reg.query_position, reg.temperature) == (0.5, 2, 1.0)
    assert type(reg.query_position) is int and type(reg.temperature) is float
    assert RegularizerSpec.tsallis(np.float64(1.5)).alpha == 1.5
    assert softmax(S, 2).distribution.weights.tobytes() == softmax(S, 2.0).distribution.weights.tobytes()


def _with_entry(matrix, value):
    bad = np.array(matrix, dtype=np.float64)
    bad[0, 0] = value
    return bad


# Each validated type, built from valid data with one entry replaced.
VALIDATED_TYPES = {
    "Scores": lambda x: Scores([0.3, x, 0.9]),
    "SimplexDistribution": lambda x: SimplexDistribution([0.5, x, 0.5]),
    "UtilityVector": lambda x: UtilityVector([1.0, x]),
    "ValueSet": lambda x: ValueSet([[1.0, x], [0.0, 1.0]]),
    "QueryKeyBatch.queries": lambda x: QueryKeyBatch([[x, 0.1]], [[0.3, 0.3]]),
    "QueryKeyBatch.keys": lambda x: QueryKeyBatch([[0.5, 0.1]], [[0.3, x]]),
    "CostMatrix": lambda x: CostMatrix([[x, -0.1], [0.2, 0.4]]),
    "TransportPlan": lambda x: TransportPlan(_with_entry(PLAN.entries, x)),
    "JacobianMatrix": lambda x: JacobianMatrix(_with_entry(COVARIANCE, x), 1.0),
    "FisherMatrix": lambda x: FisherMatrix(_with_entry(COVARIANCE, x), 1.0),
    "GradientReport.score_gradient": lambda x: GradientReport([x, 0.0], [1.0, -1.0], 0.0),
    "GradientReport.advantage": lambda x: GradientReport([0.5, -0.5], [1.0, x], 0.0),
    "GradientReport.expected_utility": lambda x: GradientReport([0.5, -0.5], [1.0, -1.0], x),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=repr)
@pytest.mark.parametrize("build", sorted(VALIDATED_TYPES))
def test_validated_types_reject_non_finite_entries(build, value):
    with pytest.raises(ValueError, match="must be finite"):
        VALIDATED_TYPES[build](value)


def test_gradient_report_freezes_checked_vectors():
    report = GradientReport([0.5, -0.5], [1, -1], np.float32(0.25))
    assert report.advantage.dtype == np.float64 and not report.advantage.flags.writeable
    assert type(report.expected_utility) is float
    with pytest.raises(ValueError, match="length mismatch: score_gradient 2 vs advantage 3"):
        GradientReport([0.5, -0.5], [1.0, -1.0, 0.0], 0.0)
    with pytest.raises(TypeError, match="expected_utility must be a number"):
        GradientReport([0.5, -0.5], [1.0, -1.0], "0")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("step_size", float("inf"), "step_size must be a positive finite real"),
        ("step_size", float("nan"), "step_size must be a positive finite real"),
        ("tolerance", float("inf"), "tolerance must be a positive finite real"),
        ("tolerance", -1e-12, "tolerance must be a positive finite real"),
        ("max_iterations", 2.5, "max_iterations must be an integer >= 1"),
        ("max_iterations", 3.0, "max_iterations must be an integer >= 1"),
        ("max_iterations", 0, "max_iterations must be an integer >= 1"),
    ],
)
def test_solver_config_uses_the_shared_checks(field, value, message):
    # An infinite step used to fail with NumericalFailure partway through
    # the descent, an infinite tolerance to converge after one step, and
    # 2.5 iterations to run three.
    _rejects(lambda v: SolverConfig(**{field: v}), value, message)


def test_solver_config_normalizes_numbers():
    cfg = SolverConfig(max_iterations=np.int64(3), tolerance=np.float32(0.5), step_size=1)
    assert (cfg.max_iterations, cfg.tolerance, cfg.step_size) == (3, 0.5, 1.0)
    assert type(cfg.max_iterations) is int and type(cfg.step_size) is float
    with pytest.raises(TypeError, match="max_iterations must be a number"):
        SolverConfig(max_iterations=True)


PRIOR_ENTRY_POINTS = {
    "solve": lambda s, reg: solve(s, reg),
    "minimize_on_simplex": lambda s, reg: minimize_on_simplex(s, reg),
    "fenchel_conjugate": lambda s, reg: fenchel_conjugate(reg, s),
}


@pytest.mark.parametrize("entry", sorted(PRIOR_ENTRY_POINTS))
def test_prior_of_the_wrong_length_is_rejected_before_solving(entry):
    reg = RegularizerSpec.kl_prior([0.5, 0.5], 1.0)
    with pytest.raises(ValueError, match="^length mismatch: prior 2 vs scores 3$"):
        PRIOR_ENTRY_POINTS[entry](S, reg)


LENGTH_CHECKS = [
    (
        lambda: kl_divergence(P, SimplexDistribution([0.5, 0.5])),
        "distribution 3 vs reference distribution 2",
    ),
    (lambda: advantage_gradient(P, UtilityVector([1.0]), 1.0), "distribution 3 vs utilities 1"),
    (lambda: chain_rule_gradient(P, UtilityVector([1.0]), 1.0), "distribution 3 vs utilities 1"),
    (
        lambda: marginal_utility([1.0], ValueSet([[1.0, 0.0]])),
        "context gradient 1 vs value dimension 2",
    ),
    (lambda: context(PLAN, ValueSet([[1.0], [2.0]])), "plan columns 3 vs value rows 2"),
]


@pytest.mark.parametrize("call, message", LENGTH_CHECKS)
def test_length_checks_name_both_sides(call, message):
    with pytest.raises(ValueError, match=f"^length mismatch: {message}$"):
        call()
