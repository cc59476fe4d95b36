"""Closed-form solvers: worked examples, invariants, and degenerate cases."""

import math
import warnings

import numpy as np
import pytest

from vattn import (
    RegularizerSpec,
    Scores,
    SimplexDistribution,
    alibi_softmax,
    entmax,
    lse,
    primal_value,
    prior_softmax,
    softmax,
    solve,
    sparsemax,
)
from vattn.core import objective_rows, objective_value


def _sup(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# ---------------------------------------------------------------- softmax


def test_softmax_symmetry():
    r = softmax(Scores([0.0, 0.0, 0.0]), 1.0)
    assert _sup(r.distribution.weights, [1 / 3, 1 / 3, 1 / 3]) < 1e-15
    assert r.support_size == 3


def test_softmax_two_to_one_ratio():
    r = softmax(Scores([np.log(2), 0.0]), 1.0)
    assert _sup(r.distribution.weights, [2 / 3, 1 / 3]) < 1e-14
    assert abs(r.potential - np.log(3)) < 1e-14


def test_softmax_extreme_scores_stay_finite():
    r = softmax(Scores([1000.0, 0.0]), 1.0)
    w = r.distribution.weights
    assert np.all(np.isfinite(w))
    assert abs(w.sum() - 1.0) < 1e-15
    assert w[0] > 1.0 - 1e-12


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = int(rng.integers(2, 17))
        s = rng.uniform(-5, 5, m)
        c = float(rng.uniform(-10, 10))
        t = float(rng.uniform(0.5, 2.0))
        assert (
            _sup(
                softmax(Scores(s), t).distribution.weights,
                softmax(Scores(s + c), t).distribution.weights,
            )
            < 1e-12
        )


def test_softmax_temperature_identity():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = int(rng.integers(2, 17))
        s = rng.uniform(-5, 5, m)
        t = float(rng.uniform(0.25, 4.0))
        assert (
            _sup(
                softmax(Scores(s), t).distribution.weights,
                softmax(Scores(s / t), 1.0).distribution.weights,
            )
            < 1e-12
        )


def test_softmax_rejects_bad_temperature():
    with pytest.raises(ValueError):
        softmax(Scores([1.0]), 0.0)
    with pytest.raises(ValueError):
        softmax(Scores([1.0]), -1.0)


# -------------------------------------------------------------- sparsemax


def test_sparsemax_single_support():
    r = sparsemax(Scores([1.0, 0.0, -1.0]))
    assert np.array_equal(r.distribution.weights, [1.0, 0.0, 0.0])
    assert r.support_size == 1


def test_sparsemax_two_support():
    r = sparsemax(Scores([0.5, 0.2, -1.0]))
    assert _sup(r.distribution.weights, [0.65, 0.35, 0.0]) < 1e-15
    assert r.distribution.weights[2] == 0.0  # exact zero, not a denormal
    assert r.support_size == 2


def test_sparsemax_idempotent_on_simplex_points():
    r = sparsemax(Scores([0.3, 0.7]))
    assert _sup(r.distribution.weights, [0.3, 0.7]) < 1e-15


def test_sparsemax_tie_stability():
    r = sparsemax(Scores([0.4, 0.4, -2.0]))
    w = r.distribution.weights
    assert w[0] == w[1]
    assert w[2] == 0.0


def test_sparsemax_support_monotonicity():
    rng = np.random.default_rng(2)
    for _ in range(300):
        m = int(rng.integers(2, 17))
        s = rng.uniform(-5, 5, m)
        before = sparsemax(Scores(s)).distribution.weights
        j = int(rng.integers(m))
        bumped = s.copy()
        bumped[j] += 0.1
        after = sparsemax(Scores(bumped)).distribution.weights
        if before[j] > 0.0:
            assert after[j] > 0.0


def test_sparsemax_large_offset_scores():
    # shift robustness: a large common offset must not degrade the sum;
    # the weights themselves are limited by the input quantization ulp(1e9)
    r = sparsemax(Scores(np.array([0.5, 0.2, -1.0]) + 1e9))
    assert _sup(r.distribution.weights, [0.65, 0.35, 0.0]) < 1e-6
    assert abs(r.distribution.weights.sum() - 1.0) < 1e-12


# ----------------------------------------------------------------- entmax


def test_entmax_symmetry_any_alpha():
    for alpha in (1.5, 2.0, 3.0):
        r = entmax(Scores([2.5, 2.5, 2.5]), alpha)
        assert _sup(r.distribution.weights, [1 / 3, 1 / 3, 1 / 3]) < 1e-12


def test_entmax_two_equals_sparsemax():
    # at alpha = 2 the regularizer differs from the L2 penalty by a constant
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = int(rng.integers(2, 17))
        s = rng.uniform(-5, 5, m)
        assert (
            _sup(
                entmax(Scores(s), 2.0).distribution.weights,
                sparsemax(Scores(s)).distribution.weights,
            )
            < 1e-10
        )


def test_entmax_single_support_threshold():
    r = entmax(Scores([10.0, 0.0]), 1.5)
    assert np.array_equal(r.distribution.weights, [1.0, 0.0])


def test_entmax_shannon_limit():
    rng = np.random.default_rng(4)
    for _ in range(100):
        m = int(rng.integers(2, 17))
        s = rng.uniform(-5, 5, m)
        assert (
            _sup(
                entmax(Scores(s), 1.0 + 1e-4).distribution.weights,
                softmax(Scores(s), 1.0).distribution.weights,
            )
            < 1e-3
        )


def test_entmax_mass_residual_below_tolerance():
    rng = np.random.default_rng(5)
    for _ in range(300):
        m = int(rng.integers(2, 17))
        alpha = float(rng.uniform(1.2, 4.0))
        w = entmax(Scores(rng.uniform(-5, 5, m)), alpha).distribution.weights
        assert abs(float(w.sum()) - 1.0) < 1e-12


def test_entmax_rejects_alpha_at_or_below_one():
    with pytest.raises(ValueError):
        entmax(Scores([1.0, 2.0]), 1.0)
    with pytest.raises(ValueError):
        entmax(Scores([1.0, 2.0]), 0.5)


# ------------------------------------------------------------------ alibi


def test_alibi_zero_gamma_is_softmax():
    rng = np.random.default_rng(6)
    for _ in range(50):
        m = int(rng.integers(2, 17))
        s = rng.uniform(-5, 5, m)
        t = float(rng.uniform(0.5, 2.0))
        i = int(rng.integers(1, m + 1))
        assert (
            _sup(
                alibi_softmax(Scores(s), i, 0.0, t).distribution.weights,
                softmax(Scores(s), t).distribution.weights,
            )
            < 1e-15
        )


def test_alibi_symmetric_distance_penalty():
    r = alibi_softmax(Scores([0.0, 0.0, 0.0]), 2, 1.0, 1.0)
    expected = [0.21194155761708544, 0.5761168847658291, 0.21194155761708544]
    assert _sup(r.distribution.weights, expected) < 1e-14


def test_alibi_large_gamma_collapses_to_query_position():
    r = alibi_softmax(Scores([0.0, 0.0, 0.0]), 1, 100.0, 1.0)
    w = r.distribution.weights
    assert w[0] > 1.0 - 1e-12
    assert w[1] < 1e-12 and w[2] < 1e-12


def test_alibi_validates_arguments():
    s = Scores([0.0, 0.0])
    with pytest.raises(ValueError):
        alibi_softmax(s, 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        alibi_softmax(s, 1, -1.0, 1.0)


# ---------------------------------------------------------- prior softmax


def test_prior_uniform_recovers_softmax():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(2, 17))
        s = rng.uniform(-5, 5, m)
        t = float(rng.uniform(0.5, 2.0))
        assert (
            _sup(
                prior_softmax(Scores(s), SimplexDistribution.uniform(m), t).distribution.weights,
                softmax(Scores(s), t).distribution.weights,
            )
            < 1e-12
        )


def test_prior_softmax_zero_evidence_returns_prior():
    prior = SimplexDistribution([0.8, 0.2])
    r = prior_softmax(Scores([0.0, 0.0]), prior, 1.0)
    assert _sup(r.distribution.weights, [0.8, 0.2]) < 1e-15


def test_prior_softmax_uniform_prior_example():
    r = prior_softmax(Scores([np.log(2), 0.0]), SimplexDistribution([0.5, 0.5]), 1.0)
    assert _sup(r.distribution.weights, [2 / 3, 1 / 3]) < 1e-14


def test_prior_softmax_rejects_zero_prior_entries():
    with pytest.raises(ValueError):
        prior_softmax(Scores([0.0, 0.0]), SimplexDistribution([1.0, 0.0]), 1.0)


# ------------------------------------------------------- lse and duality


def test_lse_symmetry():
    for m in (1, 2, 5, 16):
        for t in (0.5, 1.0, 2.0):
            assert abs(lse(Scores(np.zeros(m)), t) - t * np.log(m)) < 1e-14


def test_lse_shift_property():
    rng = np.random.default_rng(8)
    for _ in range(100):
        m = int(rng.integers(1, 17))
        s = rng.uniform(-5, 5, m)
        c = float(rng.uniform(-20, 20))
        t = float(rng.uniform(0.5, 2.0))
        assert abs(lse(Scores(s + c), t) - lse(Scores(s), t) - c) < 1e-12


def test_lse_example_value():
    assert abs(lse(Scores([np.log(2), 0.0]), 1.0) - np.log(3)) < 1e-14


def test_lse_bounds():
    rng = np.random.default_rng(9)
    for _ in range(200):
        m = int(rng.integers(1, 17))
        s = rng.uniform(-5, 5, m)
        t = float(rng.uniform(0.25, 4.0))
        value = lse(Scores(s), t)
        assert value >= s.max() - 1e-12
        assert value <= s.max() + t * np.log(m) + 1e-12


def test_primal_value_uniform_case():
    assert abs(primal_value(Scores([0.0, 0.0]), 1.0) + np.log(2)) < 1e-14


def test_primal_value_example():
    assert abs(primal_value(Scores([np.log(2), 0.0]), 1.0) + np.log(3)) < 1e-14


def test_strong_duality_random():
    rng = np.random.default_rng(10)
    for _ in range(200):
        s = Scores(rng.uniform(-5, 5, 5))
        t = 0.7
        assert abs(primal_value(s, t) + lse(s, t)) < 1e-10


# ------------------------------------------------------------- dispatch


def test_solve_dispatches_to_each_solver():
    rng = np.random.default_rng(11)
    s = Scores(rng.uniform(-5, 5, 6))
    prior = SimplexDistribution(0.9 * rng.dirichlet(np.ones(6)) + 0.1 / 6)
    pairs = [
        (RegularizerSpec.shannon(0.8), softmax(s, 0.8)),
        (RegularizerSpec.l2(), sparsemax(s)),
        (RegularizerSpec.tsallis(1.5), entmax(s, 1.5)),
        (RegularizerSpec.alibi(0.4, 3, 1.2), alibi_softmax(s, 3, 0.4, 1.2)),
        (RegularizerSpec.kl_prior(prior, 0.9), prior_softmax(s, prior, 0.9)),
    ]
    for reg, direct in pairs:
        dispatched = solve(s, reg)
        assert _sup(dispatched.distribution.weights, direct.distribution.weights) == 0.0
        assert dispatched.support_size == direct.support_size


def test_solve_tsallis_2_matches_sparsemax():
    rng = np.random.default_rng(12)
    for _ in range(50):
        s = Scores(rng.uniform(-5, 5, 8))
        assert (
            _sup(
                solve(s, RegularizerSpec.tsallis(2.0)).distribution.weights,
                sparsemax(s).distribution.weights,
            )
            < 1e-10
        )


def test_solve_kl_uniform_matches_softmax():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = int(rng.integers(2, 17))
        s = Scores(rng.uniform(-5, 5, m))
        reg = RegularizerSpec.kl_prior(SimplexDistribution.uniform(m), 1.3)
        assert (
            _sup(
                solve(s, reg).distribution.weights,
                softmax(s, 1.3).distribution.weights,
            )
            < 1e-12
        )


# --------------------------------------------------- solver-wide contracts


def _all_regularizers(rng, m):
    return [
        RegularizerSpec.shannon(float(rng.uniform(0.5, 2.0))),
        RegularizerSpec.l2(),
        RegularizerSpec.tsallis(float(rng.choice([1.5, 2.0, 3.0]))),
        RegularizerSpec.alibi(
            float(rng.uniform(0.0, 2.0)), int(rng.integers(1, m + 1)), float(rng.uniform(0.5, 2.0))
        ),
        RegularizerSpec.kl_prior(
            SimplexDistribution(0.9 * rng.dirichlet(np.ones(m)) + 0.1 / m),
            float(rng.uniform(0.5, 2.0)),
        ),
    ]


def test_every_result_is_a_valid_distribution():
    rng = np.random.default_rng(14)
    for _ in range(100):
        m = int(rng.integers(1, 17))
        s = Scores(rng.uniform(-5, 5, m))
        for reg in _all_regularizers(rng, m):
            r = solve(s, reg)
            w = r.distribution.weights
            assert np.all(w >= 0.0)
            assert abs(float(w.sum()) - 1.0) <= 1e-12
            assert r.support_size == int(np.count_nonzero(w > 0.0))
            if reg.kind in ("shannon", "alibi", "kl_prior"):
                assert r.potential is not None
            else:
                assert r.potential is None


def test_closed_forms_beat_random_simplex_points():
    rng = np.random.default_rng(15)
    for _ in range(100):
        m = int(rng.integers(2, 17))
        s = Scores(rng.uniform(-5, 5, m))
        for reg in _all_regularizers(rng, m):
            best = objective_value(solve(s, reg).distribution, s, reg)
            sampled = objective_rows(rng.dirichlet(np.ones(m), size=1000), s, reg)
            assert best <= float(sampled.min()) + 1e-9


def test_single_key_returns_exactly_one():
    rng = np.random.default_rng(16)
    s = Scores([3.7])
    for reg in _all_regularizers(rng, 1):
        assert solve(s, reg).distribution.weights[0] == 1.0


# --------------------------------------- softmax and lse at extreme scores


@pytest.mark.parametrize(
    "scores, t, weights, potential",
    [
        # s / tau overflows: the max-shift was inf - inf.
        ([1e308, 0.0], 0.5, [1.0, 0.0], 1e308),
        ([1e308, 1e308], 0.5, [0.5, 0.5], 1e308),
        ([2.0, 0.0], 1e-308, [1.0, 0.0], 2.0),
        # The spread overflows: the shifted quotient is below -DBL_MAX.
        ([1e308, -1e308], 1.0, [1.0, 0.0], 1e308),
        ([0.0, -1e308], 0.5, [1.0, 0.0], 0.0),
    ],
)
def test_softmax_and_lse_overflow_safely_without_warnings(scores, t, weights, potential):
    s = Scores(scores)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = softmax(s, t)
        value = lse(s, t)
    assert np.array_equal(result.distribution.weights, weights)
    assert result.potential == value == potential


def test_softmax_spread_beyond_dbl_max_at_a_huge_temperature():
    # (s - max s) / tau is -2 here, although s - max s alone overflows.
    s = Scores([1e308, -1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = softmax(s, 1e308)
    expected = np.array([1.0, math.exp(-2.0)]) / (1.0 + math.exp(-2.0))
    assert _sup(result.distribution.weights, expected) < 1e-15
    assert abs(result.potential / (1e308 * (1.0 + math.log1p(math.exp(-2.0)))) - 1.0) < 1e-15


def test_softmax_and_lse_keep_their_bits_on_finite_inputs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(1, 20))
        values = rng.uniform(-5.0, 5.0, m) * 10.0 ** rng.uniform(-3.0, 3.0)
        t = float(10.0 ** rng.uniform(-3.0, 3.0))
        z = values / t
        e = np.exp(z - z.max())
        top = float(values.max())
        potential = top + t * float(np.log(np.sum(np.exp((values - top) / t))))
        result = softmax(Scores(values), t)
        assert result.distribution.weights.tobytes() == (e / e.sum()).tobytes()
        assert result.potential.hex() == potential.hex() == lse(Scores(values), t).hex()
