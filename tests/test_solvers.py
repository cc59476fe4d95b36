"""Closed-form solvers: worked examples, invariants, and degenerate cases."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from vattn import (
    NumericalFailure,
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
from vattn.core import _check_alpha, objective_rows, objective_value
from vattn.solvers import ENTMAX_MASS_ATOL, ENTMAX_MAX_BISECTIONS, SolveResult, _result


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


@pytest.mark.parametrize(
    "scores, moderate",
    [
        # The spread overflows, or only m times it does.
        ([1e308, -1e308, 0.0], [1e308, 1e308 - 1e300, 1e308 - 1e300]),
        ([1e308, 0.0], [1e308, 1e308 - 1e300]),
        ([1e308, 1e308, -1e308], [1e308, 1e308, 1e308 - 1e300]),
        ([1.0, 0.5, -1e308], [1.0, 0.5, -10.0]),
        ([0.25, 1.0, 0.5, -1.7e308, -1e308], [0.25, 1.0, 0.5, -9.0, -3.0]),
    ],
)
def test_sparsemax_at_an_overflowing_spread_without_warnings(scores, moderate):
    # Entries more than 2 below the top get no weight, so the result has
    # the bits of the same row with those entries nearer the top.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = sparsemax(Scores(scores)).distribution.weights
        expected = sparsemax(Scores(moderate)).distribution.weights
    assert w.tobytes() == expected.tobytes()


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


# ------------------------------------ entmax: bits, stalls and overflow


# The plain bisection, which evaluates every entry at every step, kept
# verbatim: entmax must return its bits wherever it solved.
def _reference_entmax(s: Scores, alpha: float) -> SolveResult:
    """Tsallis-regularized weights p_j = [(alpha-1)(s_j - theta)]_+^(1/(alpha-1)).

    The threshold theta lives in [max(s) - 1/(alpha-1), max(s)], across
    which the total mass falls monotonically from >= 1 to 0.  Bisection
    runs in the variable y = log of the top weight, a monotone
    reparameterization of that bracket: near alpha = 1 the threshold
    itself sits at magnitude 1/(alpha-1) where float spacing alone exceeds
    the mass tolerance, while in y the mass stays resolvable to ~1e-16.
    The search keeps the best candidate seen and stops once the mass
    residual |sum p - 1| drops below 1e-12.  Interpolates softmax
    (alpha -> 1) and sparsemax (alpha = 2).
    """
    a = _check_alpha(alpha)
    m = len(s)
    if m == 1:
        return _result(np.ones(1), None)
    v = s.values - s.values.max()  # threshold search is shift-equivariant

    def weights_at(y: float) -> np.ndarray:
        # x = (alpha-1)(s - theta) with the top entry pinned to exp((alpha-1) y),
        # so the top weight is exactly exp(y) and mass is increasing in y.
        x = np.maximum(np.exp((a - 1.0) * y) + (a - 1.0) * v, 0.0)
        return x ** (1.0 / (a - 1.0))

    lo, hi = -np.log(m) - 1.0, 0.0  # mass(lo) <= 1/e < 1 <= mass(hi)
    best_w: np.ndarray | None = None
    best_residual = np.inf
    budget = ENTMAX_MAX_BISECTIONS

    def consider(w: np.ndarray) -> float:
        nonlocal best_w, best_residual
        mass = float(w.sum())
        residual = abs(mass - 1.0)
        if residual < best_residual:
            best_w, best_residual = w, residual
        return mass

    def bisect(evaluate, lo, hi):
        # Mass is increasing in the search variable; keeps the best
        # candidate seen and stops on tolerance or a collapsed bracket.
        nonlocal budget
        while budget > 0 and best_residual >= ENTMAX_MASS_ATOL:
            mid = 0.5 * (lo + hi)
            if not (lo < mid < hi):
                break
            budget -= 1
            if consider(evaluate(mid)) >= 1.0:
                hi = mid
            else:
                lo = mid
        return lo, hi

    consider(weights_at(hi))
    consider(weights_at(lo))
    lo, hi = bisect(weights_at, lo, hi)

    if best_residual >= ENTMAX_MASS_ATOL:
        # Stiff corner of alpha > 2: the last entry to enter the support
        # contributes x^(1/(alpha-1)) with a near-vertical tangent, so its
        # weight jumps over the tolerance between adjacent floats of y (the
        # solution's x can even be smaller than the rounding error of
        # computing x at all).  Re-bisect with that entry's weight g as the
        # variable: its own mass contribution is then exact, and the other
        # entries respond smoothly through
        # theta = s_stiff - g^(alpha-1)/(alpha-1).
        upper = weights_at(hi)
        stiff = int(np.argmin(np.where(upper > 0.0, upper, np.inf)))
        base = (a - 1.0) * (v - v[stiff])

        def weights_at_g(g: float) -> np.ndarray:
            x = np.maximum(base + g ** (a - 1.0), 0.0)
            w = x ** (1.0 / (a - 1.0))
            w[stiff] = g
            return w

        # g = 0 recovers the sub-unit mass of the lower endpoint, so the
        # bracket [0, upper weight] straddles the unit-mass solution.
        consider(weights_at_g(0.0))
        bisect(weights_at_g, 0.0, float(upper[stiff]))

    if best_residual >= ENTMAX_MASS_ATOL:
        raise NumericalFailure(
            f"entmax(alpha={a}) threshold search stalled at mass residual {best_residual:.3e}"
        )
    return _result(best_w, None)


GUARD_ALPHAS = (1.00001, 1.0001, 1.2, 1.5, 1.7, 2.0, 2.5, 3.0, 4.0, 10.0)


def _guard_rows():
    rng = np.random.default_rng(2019)
    for m, draws in ((2, 12), (3, 12), (7, 12), (16, 12), (1000, 4), (10**5, 1)):
        for alpha in GUARD_ALPHAS:
            for k in range(draws):
                x = rng.uniform(-5.0, 5.0, m)
                if k % 4 == 1:
                    x = np.round(x)  # ties
                elif k % 4 == 2:
                    x[rng.integers(m)] += 50.0  # one dominant score
                yield Scores(x), alpha
    yield Scores(rng.uniform(-5.0, 5.0, 10**6)), 1.5


def test_entmax_keeps_the_plain_bisections_bits(monkeypatch):
    # Only the stiff-corner stage calls np.argmin: count the rows that enter it.
    calls = []
    argmin = np.argmin
    monkeypatch.setattr(np, "argmin", lambda *args: calls.append(args) or argmin(*args))
    stiff = stalled = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s, alpha in _guard_rows():
            before = len(calls)
            try:
                expected = _reference_entmax(s, alpha).distribution.weights
            except NumericalFailure:
                expected = None
            stiff += len(calls) > before
            weights = entmax(s, alpha).distribution.weights
            if expected is None:
                stalled += 1
                assert abs(float(weights.sum()) - 1.0) < ENTMAX_MASS_ATOL
            else:
                assert weights.tobytes() == expected.tobytes(), (len(s), alpha)
    assert stiff > 0 and stalled > 0


def test_entmax_evaluates_a_fraction_of_the_plain_bisections_steps(monkeypatch):
    # Every weight evaluation exponentiates one scalar, the top entry's x.
    # The plain bisection takes ~44 per 16-key row at alpha 1.5 and 2; the
    # replay takes ~10, and rows solved at y = 0 take 3 either way.
    calls = []
    exp = np.exp

    def counting_exp(x, *args, **kwargs):
        if isinstance(x, float):
            calls.append(x)
        return exp(x, *args, **kwargs)

    rng = np.random.default_rng(16)
    rows = [(Scores(rng.uniform(-5.0, 5.0, 16)), a) for a in (1.5, 2.0, 3.0) for _ in range(32)]
    monkeypatch.setattr(np, "exp", counting_exp)
    evaluations = []
    for s, alpha in rows:
        before = len(calls)
        entmax(s, alpha)
        evaluations.append(len(calls) - before)
    assert np.median(evaluations) <= 20


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("alpha", [1.00001, 1.000001])
def test_entmax_near_softmax_does_not_stall(alpha, seed):
    # The plain bisection stalled here at mass residuals of 1e-12 to 5e-11.
    s = Scores(np.random.default_rng(seed).uniform(-5.0, 5.0, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = entmax(s, alpha).distribution.weights
    assert abs(float(w.sum()) - 1.0) < ENTMAX_MASS_ATOL
    assert _sup(w, softmax(s, 1.0).distribution.weights) < 1e-4


@pytest.mark.parametrize("m", [2, 3, 16])
def test_entmax_ties_at_a_huge_alpha(m):
    # x of the tied entries underflows, and the plain bisection stalled.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = entmax(Scores(np.full(m, 1.0)), 1e6).distribution.weights
    assert _sup(w, np.full(m, 1.0 / m)) < 1e-12


@pytest.mark.parametrize(
    "scores, alpha, weights",
    [
        ([1e308, -1e308], 1.5, [1.0, 0.0]),  # s - max(s) overflows
        ([1e305, -1e305], 1e6, [1.0, 0.0]),  # (alpha - 1)(s - max(s)) overflows
        # ... and again in the stiff-corner stage, which the ties reach
        ([1e305, 1e305, -1e305], 1e6, [0.5, 0.5, 0.0]),
    ],
)
def test_entmax_gaps_past_dbl_max_without_warnings(scores, alpha, weights):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = entmax(Scores(scores), alpha).distribution.weights
    assert _sup(w, weights) < 1e-12


def _kinds(rng, m):
    prior = SimplexDistribution.renormalized(0.9 * rng.dirichlet(np.ones(m)) + 0.1 / m)
    return {
        "shannon": RegularizerSpec.shannon(0.7),
        "l2": RegularizerSpec.l2(),
        "tsallis": RegularizerSpec.tsallis(1.5),
        "alibi": RegularizerSpec.alibi(0.3, 17, 0.7),
        "kl_prior": RegularizerSpec.kl_prior(prior, 0.7),
    }


@pytest.mark.parametrize("m", [1, 16, 300])
def test_solve_outputs_are_read_only(m):
    # Results adopt the arrays the solvers make instead of copying them;
    # each is still frozen.
    rng = np.random.default_rng(m)
    s = Scores(rng.uniform(-5.0, 5.0, m))
    for kind, reg in _kinds(rng, m).items():
        weights = solve(s, reg).distribution.weights
        assert not weights.flags.writeable, kind
        with pytest.raises(ValueError):
            weights[0] = 0.5


# Peak traced allocation of one solve at m = 1e6, in rows of 8 MB: the
# result row, its working rows, and the boolean masks of the checks.
PEAK_ROWS = {"shannon": 1.25, "l2": 3.25, "tsallis": 4.0, "alibi": 2.25, "kl_prior": 2.25}


def test_solve_peak_allocation_at_a_million_keys():
    m = 10**6
    rng = np.random.default_rng(0)
    s = Scores(rng.uniform(-5.0, 5.0, m))
    peaks = {}
    for kind, reg in _kinds(rng, m).items():
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            solve(s, reg)
            peaks[kind] = (tracemalloc.get_traced_memory()[1] - start) / (8 * m)
        finally:
            tracemalloc.stop()
    assert all(peaks[kind] <= PEAK_ROWS[kind] for kind in PEAK_ROWS), peaks
