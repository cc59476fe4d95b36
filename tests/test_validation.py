"""One check per regularizer parameter: every entry point that takes a raw
value rejects it with the same exception and message."""

import re

import numpy as np
import pytest

from vattn import (
    FisherMatrix,
    JacobianMatrix,
    QueryKeyBatch,
    RegularizerSpec,
    Scores,
    SimplexDistribution,
    TransportPlan,
    UtilityVector,
    advantage_gradient,
    alibi_softmax,
    attention_matrix,
    chain_rule_gradient,
    cost_matrix,
    entmax,
    envelope_check,
    eot_matrix_objective,
    fisher_matrix,
    gradcheck_report,
    kl_divergence,
    lse,
    lse_hessian_check,
    natural_gradient_identity_check,
    primal_value,
    prior_softmax,
    softmax,
    softmax_jacobian,
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
