"""Full-matrix transport plans: costs, objectives, and row-wise optimality."""

import numpy as np
import pytest

from vattn import (
    QueryKeyBatch,
    RegularizerSpec,
    Scores,
    SimplexDistribution,
    PROJECTED_GRADIENT,
    SolverConfig,
    TransportPlan,
    ValueSet,
    attention_matrix,
    context,
    cost_matrix,
    eot_matrix_objective,
    minimize_on_simplex,
    softmax,
    solve_full_eot,
)
from vattn.core import NumericalFailure, objective_value


def _sup(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _random_batch(rng, n_max=8, m_max=8, d_max=16):
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    d = int(rng.integers(1, d_max + 1))
    scale = 1.0 / np.sqrt(d)
    return QueryKeyBatch(
        rng.uniform(-1, 1, (n, d)) * scale, rng.uniform(-1, 1, (m, d)) * scale
    )


# ------------------------------------------------------------------- costs


def test_cost_identity_batch():
    batch = QueryKeyBatch(np.eye(2), np.eye(2))
    assert np.array_equal(cost_matrix(batch).entries, -np.eye(2))


def test_cost_zero_queries():
    batch = QueryKeyBatch(np.zeros((2, 3)), np.ones((4, 3)))
    assert np.array_equal(cost_matrix(batch).entries, np.zeros((2, 4)))


def test_cost_example_values():
    batch = QueryKeyBatch([[1.0, 2.0]], [[3.0, 4.0], [-1.0, 0.0]])
    assert np.array_equal(cost_matrix(batch).entries, [[-11.0, 1.0]])


# ----------------------------------------------------------------- the plan


def test_plan_validates_rows():
    TransportPlan([[0.5, 0.5], [1.0, 0.0]])
    with pytest.raises(ValueError):
        TransportPlan([[0.5, 0.6], [1.0, 0.0]])
    with pytest.raises(ValueError):
        TransportPlan([[1.5, -0.5]])


def test_attention_zero_queries_is_uniform():
    batch = QueryKeyBatch(np.zeros((3, 2)), np.ones((5, 2)))
    plan = attention_matrix(batch, 1.0)
    assert _sup(plan.entries, np.full((3, 5), 0.2)) < 1e-15


def test_attention_single_query_reduces_to_softmax():
    rng = np.random.default_rng(0)
    batch = _random_batch(rng, n_max=1)
    plan = attention_matrix(batch, 0.8)
    row_scores = Scores((batch.queries @ batch.keys.T)[0])
    assert _sup(plan.entries[0], softmax(row_scores, 0.8).distribution.weights) == 0.0


def test_attention_rows_match_oracle():
    rng = np.random.default_rng(1)
    batch = QueryKeyBatch(rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (4, 4)))
    t = 2.0
    plan = attention_matrix(batch, t)
    scores = batch.queries @ batch.keys.T
    for i in range(3):
        found = minimize_on_simplex(Scores(scores[i]), RegularizerSpec.shannon(t))
        assert _sup(plan.entries[i], found.distribution.weights) < 1e-6


# -------------------------------------------------------------- objective


def test_objective_uniform_plan_zero_cost():
    n, m, eps = 3, 4, 0.7
    plan = TransportPlan(np.full((n, m), 1.0 / m))
    cost = cost_matrix(QueryKeyBatch(np.zeros((n, 2)), np.zeros((m, 2))))
    value = eot_matrix_objective(plan, cost, eps)
    assert abs(value + eps * n * np.log(m)) < 1e-12


def test_objective_decomposes_by_row():
    rng = np.random.default_rng(2)
    for _ in range(20):
        batch = _random_batch(rng)
        eps = float(rng.choice([0.5, 1.0, 2.0]))
        plan = attention_matrix(batch, eps)
        total = eot_matrix_objective(plan, cost_matrix(batch), eps)
        scores = batch.queries @ batch.keys.T
        reg = RegularizerSpec.shannon(eps)
        by_rows = sum(
            objective_value(SimplexDistribution(plan.entries[i]), Scores(scores[i]), reg)
            for i in range(batch.n)
        )
        assert abs(total - by_rows) < 1e-12


def test_objective_shape_mismatch():
    plan = TransportPlan([[1.0]])
    cost = cost_matrix(QueryKeyBatch(np.zeros((2, 2)), np.zeros((2, 2))))
    with pytest.raises(ValueError):
        eot_matrix_objective(plan, cost, 1.0)


def test_attention_beats_random_feasible_plans():
    rng = np.random.default_rng(3)
    for _ in range(10):
        batch = _random_batch(rng)
        eps = 1.0
        plan = attention_matrix(batch, eps)
        cost = cost_matrix(batch)
        best = eot_matrix_objective(plan, cost, eps)
        for _ in range(100):
            rival = TransportPlan(rng.dirichlet(np.ones(batch.m), size=batch.n))
            assert best <= eot_matrix_objective(rival, cost, eps) + 1e-9


# ------------------------------------------------------------ full solver


def test_full_eot_matches_attention_matrix():
    rng = np.random.default_rng(4)
    batch = QueryKeyBatch(rng.uniform(-1, 1, (2, 3)), rng.uniform(-1, 1, (3, 3)))
    solved = solve_full_eot(batch, 1.0)
    closed = attention_matrix(batch, 1.0)
    assert _sup(solved.entries, closed.entries) < 1e-6


def test_full_eot_zero_queries_uniform():
    batch = QueryKeyBatch(np.zeros((2, 2)), np.ones((3, 2)))
    solved = solve_full_eot(batch, 1.0)
    assert _sup(solved.entries, np.full((2, 3), 1 / 3)) < 1e-9


def test_full_eot_degenerate_one_by_one():
    batch = QueryKeyBatch([[2.0]], [[3.0]])
    solved = solve_full_eot(batch, 1.0)
    assert np.array_equal(solved.entries, [[1.0]])


def test_full_eot_reports_failing_row():
    rng = np.random.default_rng(5)
    batch = QueryKeyBatch(rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, (3, 2)))
    with pytest.raises(NumericalFailure, match="row"):
        solve_full_eot(batch, 1.0, SolverConfig(max_iterations=2, tolerance=1e-15))


def test_plans_are_row_stochastic():
    rng = np.random.default_rng(6)
    for _ in range(20):
        batch = _random_batch(rng)
        for plan in (attention_matrix(batch, 1.0), solve_full_eot(batch, 1.0)):
            sums = plan.entries.sum(axis=1)
            assert float(np.max(np.abs(sums - 1.0))) < 1e-12
            assert np.all(plan.entries >= 0.0)


# ---------------------------------------------------------------- context


def test_context_one_hot_rows_select_values():
    plan = TransportPlan([[1.0, 0.0], [0.0, 1.0]])
    values = ValueSet([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(context(plan, values), [[1.0, 2.0], [3.0, 4.0]])


def test_context_uniform_rows_average_values():
    plan = TransportPlan([[0.5, 0.5]])
    values = ValueSet([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(context(plan, values), [[2.0, 3.0]])


def test_context_weighted_example():
    plan = TransportPlan([[0.65, 0.35, 0.0]])
    values = ValueSet([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    assert _sup(context(plan, values), [[0.65, 0.35]]) < 1e-15


def test_context_rejects_shape_mismatch():
    plan = TransportPlan([[0.5, 0.5]])
    with pytest.raises(ValueError):
        context(plan, ValueSet([[1.0], [2.0], [3.0]]))


# --------------------------------------- failures of the lock-step solve


def _row_by_row(batch, epsilon, cfg=None):
    """The plan solved one row after another, each failure raised in row
    order: the behaviour the lock-step solve must keep."""
    reg = RegularizerSpec.shannon(epsilon)
    rows = []
    for index, row in enumerate(batch.queries @ batch.keys.T):
        result = minimize_on_simplex(Scores(row), reg, cfg)
        if not result.converged:
            raise NumericalFailure(f"row {index} did not converge within the iteration budget")
        rows.append(result.distribution.weights)
    return TransportPlan(np.vstack(rows))


def _same_outcome(batch, epsilon, cfg=None):
    try:
        expected = _row_by_row(batch, epsilon, cfg)
    except (NumericalFailure, ValueError) as error:
        with pytest.raises(type(error)) as raised:
            solve_full_eot(batch, epsilon, cfg)
        assert str(raised.value) == str(error)
        return error
    assert solve_full_eot(batch, epsilon, cfg).entries.tobytes() == expected.entries.tobytes()
    return None


def test_full_eot_equals_the_row_by_row_solve():
    rng = np.random.default_rng(8)
    for _ in range(30):
        assert _same_outcome(_random_batch(rng), float(rng.choice([0.5, 1.0, 2.0]))) is None


def test_full_eot_capped_budget_names_the_lowest_failing_row():
    rng = np.random.default_rng(9)
    batch = QueryKeyBatch(rng.uniform(-1, 1, (6, 4)), rng.uniform(-1, 1, (5, 4)))
    reg = RegularizerSpec.shannon(0.5)
    scores = batch.queries @ batch.keys.T
    needed = sorted(minimize_on_simplex(Scores(row), reg).iterations for row in scores)
    assert needed[0] < needed[-1]
    # Some rows converge within the cap and some do not.
    for cap in (needed[0], needed[2], needed[-1] - 1):
        error = _same_outcome(batch, 0.5, SolverConfig(max_iterations=cap))
        assert error is not None and "did not converge" in str(error)
    assert _same_outcome(batch, 0.5, SolverConfig(max_iterations=needed[-1])) is None


def test_full_eot_projected_gradient_failure_is_the_row_by_row_failure():
    # Row scores [0, -800, 3] drive projected gradient onto the boundary,
    # where the entropic gradient is infinite.
    keys = [[0.0], [-800.0], [3.0]]
    cfg = SolverConfig(method=PROJECTED_GRADIENT)
    error = _same_outcome(QueryKeyBatch([[0.001], [1.0]], keys), 0.25, cfg)
    assert error is not None and "boundary" in str(error)
    # A lower row that runs out of iterations fails first, although the
    # boundary is reached at an earlier iteration.
    capped = SolverConfig(method=PROJECTED_GRADIENT, max_iterations=5, tolerance=1e-15)
    error = _same_outcome(QueryKeyBatch([[0.001], [1.0]], keys), 0.25, capped)
    assert str(error) == "row 0 did not converge within the iteration budget"


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul")
def test_full_eot_non_finite_scores_fail_in_row_order():
    keys = [[1e200], [1.0]]
    error = _same_outcome(QueryKeyBatch([[0.5], [1e200]], keys), 1.0)
    assert isinstance(error, ValueError) and "finite" in str(error)
    capped = SolverConfig(max_iterations=1, tolerance=1e-15)
    error = _same_outcome(QueryKeyBatch([[0.5], [1e200]], keys), 1.0, capped)
    assert str(error) == "row 0 did not converge within the iteration budget"
