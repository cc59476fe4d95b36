"""Domain types, validation rules, and the elementary functionals."""

import numpy as np
import pytest

from vattn import (
    RegularizerSpec,
    Scores,
    SimplexDistribution,
    UtilityVector,
    QueryKeyBatch,
    kl_divergence,
    objective_value,
    shannon_entropy,
    softmax,
)
from vattn.core import objective_rows, regularizer_value


# ---------------------------------------------------------------- types


def test_scores_reject_non_finite():
    with pytest.raises(ValueError):
        Scores([1.0, np.nan])
    with pytest.raises(ValueError):
        Scores([np.inf, 0.0])
    with pytest.raises(ValueError):
        Scores([])


def test_scores_immutable():
    s = Scores([1.0, 2.0])
    with pytest.raises(ValueError):
        s.values[0] = 3.0


def test_constructors_copy_the_callers_arrays():
    # Mutating an array after a type is built from it changes nothing.
    scores, weights = np.array([1.0, 2.0]), np.array([0.25, 0.75])
    queries, keys = np.ones((2, 3)), np.zeros((4, 3))
    built = (
        Scores(scores).values,
        SimplexDistribution(weights).weights,
        *vars(QueryKeyBatch(queries, keys)).values(),
    )
    for array in (scores, weights, queries, keys):
        array += 1.0
    assert [a.tolist() for a in built] == [
        [1.0, 2.0],
        [0.25, 0.75],
        np.ones((2, 3)).tolist(),
        np.zeros((4, 3)).tolist(),
    ]
    assert not any(a.flags.writeable for a in built)


def test_simplex_validation():
    SimplexDistribution([0.5, 0.5])
    with pytest.raises(ValueError):
        SimplexDistribution([0.6, 0.6])
    with pytest.raises(ValueError):
        SimplexDistribution([1.1, -0.1])
    # near the validation boundary: 9e-13 off passes, 1e-11 off fails
    SimplexDistribution([0.5, 0.5 + 9e-13])
    with pytest.raises(ValueError):
        SimplexDistribution([0.5, 0.5 + 1e-11])


def test_simplex_renormalized_is_forgiving_within_1e9():
    w = np.array([0.3, 0.3, 0.4]) * (1.0 + 3e-10)
    p = SimplexDistribution.renormalized(w)
    assert abs(p.weights.sum() - 1.0) < 1e-15
    with pytest.raises(ValueError):
        SimplexDistribution.renormalized(np.array([0.3, 0.3, 0.4]) * (1.0 + 3e-9))
    with pytest.raises(ValueError):
        SimplexDistribution.renormalized([-0.5, 1.5])  # negative entry


def test_regularizer_requires_exactly_its_fields():
    RegularizerSpec.shannon(1.0)
    RegularizerSpec.l2()
    RegularizerSpec.tsallis(1.5)
    RegularizerSpec.alibi(0.5, 2, 1.0)
    RegularizerSpec.kl_prior([0.25, 0.75], 1.0)
    with pytest.raises(ValueError):
        RegularizerSpec("shannon")  # missing temperature
    with pytest.raises(ValueError):
        RegularizerSpec("l2", temperature=1.0)  # extraneous field
    with pytest.raises(ValueError):
        RegularizerSpec("tsallis", alpha=1.0)  # alpha must exceed 1
    with pytest.raises(ValueError):
        RegularizerSpec.shannon(0.0)
    with pytest.raises(ValueError):
        RegularizerSpec.alibi(-0.1, 2, 1.0)
    with pytest.raises(ValueError):
        RegularizerSpec.alibi(0.1, 0, 1.0)  # positions are 1-based
    with pytest.raises(ValueError):
        RegularizerSpec.kl_prior([1.0, 0.0], 1.0)  # prior must be positive
    with pytest.raises(ValueError):
        RegularizerSpec("bogus")


def test_query_key_batch_shape_rules():
    QueryKeyBatch([[1.0, 2.0]], [[3.0, 4.0], [5.0, 6.0]])
    with pytest.raises(ValueError):
        QueryKeyBatch([[1.0, 2.0]], [[3.0], [5.0]])
    with pytest.raises(ValueError):
        QueryKeyBatch([[np.nan, 2.0]], [[3.0, 4.0]])


def test_utility_vector_requires_finite():
    UtilityVector([1.0, -2.0])
    with pytest.raises(ValueError):
        UtilityVector([1.0, np.inf])


# ---------------------------------------------------------- entropy / KL


def test_entropy_uniform_is_log_m():
    p = SimplexDistribution.uniform(4)
    assert abs(shannon_entropy(p) - np.log(4)) < 1e-15


def test_entropy_one_hot_is_zero():
    # exercises the 0 log 0 = 0 branch
    assert shannon_entropy(SimplexDistribution([1.0, 0.0, 0.0])) == 0.0


def test_entropy_mixed_value():
    p = SimplexDistribution([0.5, 0.25, 0.25])
    assert abs(shannon_entropy(p) - 1.0397207708399179) < 1e-15


def test_entropy_bounds():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        m = int(rng.integers(1, 17))
        p = SimplexDistribution(rng.dirichlet(np.ones(m)))
        h = shannon_entropy(p)
        assert -1e-15 <= h <= np.log(m) + 1e-12


def test_kl_identity_is_zero():
    p = SimplexDistribution.uniform(3)
    assert abs(kl_divergence(p, p)) < 1e-12


def test_kl_values():
    one_hot = SimplexDistribution([1.0, 0.0])
    half = SimplexDistribution([0.5, 0.5])
    assert abs(kl_divergence(one_hot, half) - 0.6931471805599453) < 1e-15
    skew = SimplexDistribution([0.9, 0.1])
    assert abs(kl_divergence(half, skew) - 0.5108256237659907) < 1e-15


def test_kl_rejects_zero_reference():
    p = SimplexDistribution([0.5, 0.5])
    q = SimplexDistribution([1.0, 0.0])
    with pytest.raises(ValueError):
        kl_divergence(p, q)


def test_kl_nonnegative_on_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        m = int(rng.integers(2, 9))
        p = SimplexDistribution(rng.dirichlet(np.ones(m)))
        q = SimplexDistribution(0.9 * rng.dirichlet(np.ones(m)) + 0.1 / m)
        assert kl_divergence(p, q) >= -1e-13


# ------------------------------------------------------------- objective


def test_objective_shannon_zero_scores():
    p = SimplexDistribution.uniform(2)
    s = Scores([0.0, 0.0])
    value = objective_value(p, s, RegularizerSpec.shannon(1.0))
    assert abs(value + np.log(2)) < 1e-15


def test_objective_l2_value():
    value = objective_value(
        SimplexDistribution([1.0, 0.0]), Scores([1.0, 0.0]), RegularizerSpec.l2()
    )
    assert abs(value - (-0.5)) < 1e-15


def test_objective_kl_prior_equal_to_prior_drops_penalty():
    rng = np.random.default_rng(3)
    p = SimplexDistribution(rng.dirichlet(np.ones(4)) * 0.9 + 0.1 / 4)
    s = Scores(rng.uniform(-5, 5, 4))
    value = objective_value(p, s, RegularizerSpec.kl_prior(p, 1.3))
    assert abs(value - (-float(p.weights @ s.values))) < 1e-14


def test_objective_rejects_length_mismatch():
    with pytest.raises(ValueError):
        objective_value(
            SimplexDistribution([0.5, 0.5]), Scores([1.0, 2.0, 3.0]), RegularizerSpec.l2()
        )
    with pytest.raises(ValueError):
        objective_value(
            SimplexDistribution([0.5, 0.5]),
            Scores([1.0, 2.0]),
            RegularizerSpec.kl_prior([0.2, 0.3, 0.5], 1.0),
        )


def test_objective_shannon_consistent_with_entropy_path():
    # two code paths: the x log x accumulation vs -<p,s> - tau H(p)
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(1, 17))
        p = SimplexDistribution(rng.dirichlet(np.ones(m)))
        s = Scores(rng.uniform(-5, 5, m))
        tau = float(rng.uniform(0.1, 3.0))
        via_rows = objective_value(p, s, RegularizerSpec.shannon(tau))
        via_entropy = -float(p.weights @ s.values) - tau * shannon_entropy(p)
        assert abs(via_rows - via_entropy) < 1e-12


def test_objective_rows_matches_scalar_path():
    rng = np.random.default_rng(9)
    s = Scores(rng.uniform(-5, 5, 6))
    candidates = rng.dirichlet(np.ones(6), size=50)
    for reg in (
        RegularizerSpec.shannon(0.7),
        RegularizerSpec.l2(),
        RegularizerSpec.tsallis(2.5),
        RegularizerSpec.alibi(0.3, 4, 1.1),
        RegularizerSpec.kl_prior(0.9 * rng.dirichlet(np.ones(6)) + 0.1 / 6, 0.8),
    ):
        batch = objective_rows(candidates, s, reg)
        for row, expected in zip(candidates, batch):
            got = objective_value(SimplexDistribution(row), s, reg)
            assert abs(got - expected) < 1e-12


def test_tsallis_objective_near_alpha_one_is_the_shannon_limit():
    # p^a - p cancels near a = 1 (relative error ~1e-16 / (a - 1)); the
    # penalty there is summed from p expm1((a - 1) log p).
    rng = np.random.default_rng(12)
    s = Scores(rng.uniform(-1.0, 1.0, 16))
    head = softmax(Scores(s.values[:15]), 1.0).distribution.weights
    p = SimplexDistribution(np.append(head, 0.0))  # with an exact zero
    limit = objective_value(p, s, RegularizerSpec.shannon(1.0))
    assert abs(objective_value(p, s, RegularizerSpec.tsallis(1.0 + 1e-12)) - limit) <= 1e-10
    assert abs(objective_value(p, s, RegularizerSpec.tsallis(1.0 + 1e-9)) - limit) <= 1e-8


def test_tsallis_objective_keeps_its_bits_from_alpha_1_1():
    rng = np.random.default_rng(13)
    for m in (1, 2, 3, 16):
        s = Scores(rng.uniform(-5.0, 5.0, m))
        rows = rng.dirichlet(np.ones(m), size=5)
        rows[0] = np.eye(m)[0]
        for alpha in (1.1, 1.5, 2.0, 3.0):
            old = np.sum(rows**alpha - rows, axis=1) / (alpha * (alpha - 1.0)) - rows @ s.values
            batch = objective_rows(rows, s, RegularizerSpec.tsallis(alpha))
            for row, expected, value in zip(rows, old, batch):
                p = SimplexDistribution(row)
                single = objective_value(p, s, RegularizerSpec.tsallis(alpha))
                assert single == float(-np.dot(row, s.values)) + float(
                    np.sum(row**alpha - row) / (alpha * (alpha - 1.0))
                )
                assert value.hex() == expected.hex()


def test_regularizer_value_alibi_penalty_term():
    # gamma * sum p_j |i - j| on top of the entropy term, 1-based positions
    p = SimplexDistribution([0.2, 0.3, 0.5])
    reg = RegularizerSpec.alibi(2.0, 1, 1.0)
    plain = RegularizerSpec.shannon(1.0)
    penalty = regularizer_value(p, reg) - regularizer_value(p, plain)
    assert abs(penalty - 2.0 * (0.2 * 0 + 0.3 * 1 + 0.5 * 2)) < 1e-14
