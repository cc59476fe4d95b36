"""Closed-form solvers: worked examples, invariants, and degenerate cases."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import vattn.core
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
from vattn import solvers
from vattn.core import (
    ALIBI,
    _check_alpha,
    _check_gamma,
    _check_positive_real,
    _check_query_position,
    key_distances,
    objective_rows,
    objective_value,
)
from vattn.solvers import (
    ENTMAX_MASS_ATOL,
    ENTMAX_MAX_BISECTIONS,
    SolveResult,
    _SPARSEMAX_CANDIDATE_MIN_KEYS,
    _result,
)


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


class _CountingMaximum:
    """numpy, recording the length of every array given to ``maximum``,
    and to ``sort`` in ``sorted``."""

    def __init__(self):
        self.lengths = []
        self.sorted = []

    def __getattr__(self, name):
        return getattr(np, name)

    def maximum(self, x, *args, **kwargs):
        self.lengths.append(np.size(x))
        return np.maximum(x, *args, **kwargs)

    def sort(self, x, *args, **kwargs):
        self.sorted.append(np.size(x))
        return np.sort(x, *args, **kwargs)


# The sort-and-threshold over the whole sorted row, kept verbatim from
# before sparsemax sorted only its candidates: sparsemax must keep its bits.
def _reference_sparsemax(s: Scores) -> np.ndarray:
    u = np.sort(s.values)[::-1]
    top = float(u[0])
    finite = math.isfinite((top - float(u[-1])) * u.size)

    def clipped(x):
        return 2.0 * np.maximum(0.5 * x - 0.5 * top, -1.0)

    if finite:
        u -= top
    else:
        u = clipped(u)
    cssv = np.cumsum(u)
    u *= np.arange(1, u.size + 1)
    u += 1.0
    rho = int(np.count_nonzero(u > cssv))
    theta = (cssv[rho - 1] - 1.0) / rho
    v = s.values - top if finite else clipped(s.values)
    v -= theta
    return np.maximum(v, 0.0, out=v)


def _sparsemax_rows(m, rng):
    """(name, row, whether the candidate filter must shrink the sort)."""
    x = rng.uniform(-5.0, 5.0, m)
    yield "uniform", x, True
    yield "tied", np.round(x), True
    yield "tied eighths", np.round(x * 8.0) / 8.0, True
    dominant = x.copy()
    dominant[rng.integers(m)] += 50.0
    yield "dominant", dominant, True
    yield "offset 1e6", x + 1e6, True
    yield "offset 1e15", x * 1e3 + 1e15, True
    # One top score, then tied blocks just inside 1 below it (in the
    # support, with tiny weights), at 1 below it, and on and past the
    # candidate margin 1 + delta below it.
    delta = (m * m + 2 * m + 2) * np.finfo(float).eps * 10.0
    margin = rng.uniform(-5.0, 2.0, m)
    edges = [3.0 + 2.0**-20, 3.0, 3.0 - 0.5 * delta, 3.0 - delta, 3.0 - 2.0 * delta]
    margin[: 5 * (m // 16)] = np.repeat(edges, m // 16)
    margin[-1] = 4.0
    yield "margin ties", margin, True
    yield "all candidates", rng.uniform(-0.4, 0.4, m), False
    # Spreads far below 1 leave every entry a candidate; far above 1 the
    # margin delta, which grows with the spread, can take most of them.
    for exponent in (-8.0, -3.0, 2.0, 8.0, 100.0, 300.0):
        filtered = {-8.0: False, -3.0: False, 2.0: True}.get(exponent)
        yield f"spread 1e{exponent:g}", x * 10.0**exponent, filtered
    # The largest spread whose m-fold product stays finite, and past it
    # the clipped path, which sorts every entry.
    limit = np.finfo(float).max / (2.0 * m)
    yield "finite limit", np.clip(x * 0.2 * limit, -0.5 * limit, 0.5 * limit), None
    yield "clipped", x * 1e307, False
    # Blocks tied on the candidate cut and one ulp either side of it.
    top, eps = float(x.max()), float(np.finfo(float).eps)
    cut_delta = (m * m + 2 * m + 2) * eps * max(top - float(x.min()), 1.0)
    cut = top - (1.0 + cut_delta + 2.0 * eps * abs(top))
    ties = x.copy()
    inner = np.setdiff1d(np.arange(m), [x.argmax(), x.argmin()])[: 3 * (m // 16)]
    ties[inner] = np.repeat([np.nextafter(cut, -np.inf), cut, np.nextafter(cut, np.inf)], m // 16)
    yield "cut ties", ties, True


@pytest.mark.parametrize(
    "m", [_SPARSEMAX_CANDIDATE_MIN_KEYS + k for k in (-1, 0, 1)] + [2048, 4096, 10**5, 2 * 10**5]
)
def test_sparsemax_candidates_keep_the_full_sorts_bits(monkeypatch, m):
    # The weights are also computed only at the sorted entries: the last
    # np.maximum, which makes them, spans exactly what was sorted.
    rng = np.random.default_rng(m)
    shim = _CountingMaximum()
    for name, x, filtered in _sparsemax_rows(m, rng):
        s = Scores(x)
        shim.lengths.clear()
        shim.sorted.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            monkeypatch.setattr("vattn.solvers.np", shim)
            w = sparsemax(s).distribution.weights
            monkeypatch.undo()
            expected = _reference_sparsemax(s)
        assert w.tobytes() == expected.tobytes(), name
        assert shim.lengths[-1] == shim.sorted[0], name
        if m < _SPARSEMAX_CANDIDATE_MIN_KEYS or filtered is False:
            assert shim.sorted == [m], name
        elif filtered:
            assert shim.sorted[0] < m // 2, name


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


# The full-row ALiBi, which evaluates every key, kept verbatim: the windowed
# one must return its bits, or raise its exception, on every input.
def _reference_alibi_softmax(
    s: Scores, query_position: int, gamma: float, temperature: float
) -> SolveResult:
    i = _check_query_position(query_position)
    g = _check_gamma(gamma)
    t = _check_positive_real(temperature)
    penalized = key_distances(i, len(s))
    with np.errstate(over="ignore"):  # an overflowing penalty: a logit of -inf
        np.subtract(s.values, np.multiply(penalized, g, out=penalized), out=penalized)
    return solvers._softmax(penalized, t, ALIBI)


def _alibi_outcome(solve_alibi, s, position, gamma, t):
    # The weight bytes, potential and support size, or the exception's type
    # and message; every warning raised as an exception.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve_alibi(s, position, gamma, t)
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return type(error).__name__, str(error)
    weights = result.distribution.weights
    return weights.tobytes(), result.potential.hex(), result.support_size


ALIBI_GAMMAS = (0.0, 1e-300, 1e-3, 1.0, 1e300, 1.7e308)
ALIBI_TEMPERATURES = (1e-300, 1e-100, 1e-3, 1.0, 1e3, 1e100, 1e300)


@pytest.mark.parametrize("m", [1, 16, 1000, 10**5, 10**6])
def test_alibi_window_keeps_the_full_rows_bits(m):
    rng = np.random.default_rng([m, 41])
    x = rng.uniform(-5.0, 5.0, m)
    temperatures = ALIBI_TEMPERATURES if m < 10**6 else (1e-300, 1.0, 1e300)
    windows = set()
    for scale in (1.0, 1e300):
        s = Scores(x * scale)
        for position in sorted({1, max(1, m // 2), m, m + 5, 10**15}):
            for gamma in ALIBI_GAMMAS:
                for t in temperatures:
                    lo, hi = solvers._alibi_window(s.values, position, gamma, t)
                    windows.add(hi - lo < m)
                    expected = _alibi_outcome(_reference_alibi_softmax, s, position, gamma, t)
                    got = _alibi_outcome(alibi_softmax, s, position, gamma, t)
                    assert got == expected, (scale, position, gamma, t)
    assert windows == ({False} if m == 1 else {False, True})


@pytest.mark.parametrize("m", [10**4, 10**5])
def test_alibi_window_edges_keep_the_full_rows_bits(m):
    # Keys at the window's edge whose shifted logits lie just above or
    # below -746, the query at either end, inside and past the row.
    rng = np.random.default_rng([m, 42])
    windows = set()
    for position in (1, m // 3, m, m + 5, m + 2000):
        for t in (0.5, 1.0, 2.0):
            for gamma in (1.0, 1.0 + 1e-12, 1.0 - 1e-12, 4.0):
                x = rng.uniform(-5.0, 5.0, m)
                nearest = min(position, m)
                x[nearest - 1] = 5.0
                lo, hi = solvers._alibi_window(x, position, gamma, t)
                windows.add(hi - lo < m)
                for edge in (lo - 1, lo, hi - 1, hi):  # just outside and inside
                    if 0 <= edge < m:
                        # The penalized logit lands within 1e-9 of the
                        # top's minus 746 tau, on either side.
                        d = abs(position - (edge + 1))
                        x[edge] = 5.0 + gamma * d - 746.0 * t + rng.uniform(-1e-9, 1e-9)
                s = Scores(x)
                expected = _alibi_outcome(_reference_alibi_softmax, s, position, gamma, t)
                assert _alibi_outcome(alibi_softmax, s, position, gamma, t) == expected
    assert True in windows


def test_alibi_windows_every_overflow_alike():
    # Penalties that overflow at far keys (the guarded path) or at every
    # key (the ValueError): the window stands down on both.
    for m in (16, 10**5):
        s = Scores(np.full(m, -1.7e308))
        for position, gamma in ((m + 5, 1.7e308), (1, 1.7e308), (1, 1e308), (m // 2, 1e305)):
            for t in (1e-300, 1.0, 1e300):
                assert solvers._alibi_window(s.values, position, gamma, t) == (0, m)
                expected = _alibi_outcome(_reference_alibi_softmax, s, position, gamma, t)
                assert _alibi_outcome(alibi_softmax, s, position, gamma, t) == expected
    with pytest.raises(ValueError, match="the alibi penalty overflows at every key"):
        alibi_softmax(Scores(np.full(10**5, -1.7e308)), 10**5 + 5, 1.7e308, 1.0)


class _Recorded:
    """A numpy function or ufunc that records the size of its first argument,
    called or reduced."""

    def __init__(self, function, sizes):
        self.function, self.sizes = function, sizes

    def __call__(self, x, *args, **kwargs):
        self.sizes.append(np.size(x))
        return self.function(x, *args, **kwargs)

    def reduce(self, x, *args, **kwargs):
        self.sizes.append(np.size(x))
        return self.function.reduce(x, *args, **kwargs)


class _NumpySpy:
    """numpy, with the sizes given to the named functions recorded."""

    def __init__(self, *names):
        self.sizes = []
        self._recorded = {name: _Recorded(getattr(np, name), self.sizes) for name in names}

    def __getattr__(self, name):
        return self._recorded.get(name) or getattr(np, name)


def test_alibi_exponentiates_only_its_window(monkeypatch):
    m = 10**6
    s = Scores(np.random.default_rng(43).uniform(-5.0, 5.0, m))
    lo, hi = solvers._alibi_window(s.values, m // 2, 2.0, 0.5)
    assert 0 < hi - lo <= 400
    spy = _NumpySpy("exp")
    monkeypatch.setattr(solvers, "np", spy)
    result = alibi_softmax(s, m // 2, 2.0, 0.5)
    monkeypatch.undo()
    assert spy.sizes and max(spy.sizes) <= hi - lo
    expected = _reference_alibi_softmax(s, m // 2, 2.0, 0.5)
    assert result.distribution.weights.tobytes() == expected.distribution.weights.tobytes()


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


# ------------------------------------ results checked over written entries


def _outcome_of(build):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            built = build()
    except ValueError as error:
        return str(error)
    return built.distribution.weights.tobytes(), built.support_size


@pytest.mark.parametrize(
    "written",
    [
        [0.5, np.nan, 0.5],
        [0.5, 0.75, -0.25],
        [1.0, -0.0, 0.0],
        [0.25, 0.75 + 2e-12, 0.0],
        [0.25, 0.75 - 2e-12, 0.0],
        [0.25, 0.75 + 1e-13, 0.0],
        [np.inf, 0.0, 0.0],
        [0.5, 0.5, 1e-320],
    ],
)
def test_a_result_checked_over_its_candidates_decides_as_the_whole_row(written):
    written = np.array(written)
    keys = np.array([3, 600, 1500])
    row = np.zeros(2048)
    row[keys] = written
    expected = _outcome_of(
        lambda: SolveResult(SimplexDistribution(row), None, int(np.count_nonzero(row)))
    )
    assert _outcome_of(lambda: solvers._result(row.copy(), None, written.copy())) == expected
    window = row.copy()
    assert _outcome_of(lambda: solvers._result(window, None, window[3:1501])) == expected


@pytest.mark.parametrize("solve_sparse", [sparsemax, lambda s: entmax(s, 1.5)])
def test_sparse_forms_reduce_no_full_row_after_the_scatter(monkeypatch, solve_sparse):
    m = 10**6
    s = Scores(np.random.default_rng(45).uniform(-5.0, 5.0, m))
    expected = solve_sparse(s)
    spy = _NumpySpy("minimum", "maximum", "add", "count_nonzero")
    monkeypatch.setattr(solvers, "np", spy)
    monkeypatch.setattr(vattn.core, "np", spy)
    result = solve_sparse(s)
    monkeypatch.undo()
    assert spy.sizes and max(spy.sizes) < m // 2
    assert result.distribution.weights.tobytes() == expected.distribution.weights.tobytes()
    assert result.support_size == int(np.count_nonzero(expected.distribution.weights))


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


def _long_spread_row(m, low):
    # Scores in [-1, 1] and one entry at ``low``; its twin puts that entry
    # 10 below the top, where the spread is moderate and the row filtered.
    x = np.random.default_rng(m).uniform(-1.0, 1.0, m)
    moderate = x.copy()
    x[m // 3], moderate[m // 3] = low, -10.0
    return x, moderate


@pytest.mark.parametrize(
    "scores, moderate",
    [
        # The spread overflows, or only m times it does.
        ([1e308, -1e308, 0.0], [1e308, 1e308 - 1e300, 1e308 - 1e300]),
        ([1e308, 0.0], [1e308, 1e308 - 1e300]),
        ([1e308, 1e308, -1e308], [1e308, 1e308, 1e308 - 1e300]),
        ([1.0, 0.5, -1e308], [1.0, 0.5, -10.0]),
        ([0.25, 1.0, 0.5, -1.7e308, -1e308], [0.25, 1.0, 0.5, -9.0, -3.0]),
        _long_spread_row(2048, -1.7e308),
        _long_spread_row(10**5, -1e304),
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
        potential = top + t * float(np.log(e.sum()))
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


# Alpha 1.5 takes the exact sort, not the bisection: 1.25 and 1.75 stand in.
GUARD_ALPHAS = (1.00001, 1.0001, 1.2, 1.25, 1.7, 1.75, 2.0, 2.5, 3.0, 4.0, 10.0)


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
    yield Scores(rng.uniform(-5.0, 5.0, 10**6)), 1.75


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


def test_entmax_at_a_large_alpha_bisects_once(monkeypatch):
    # At alpha 10 entries enter the support with a near-vertical tangent,
    # the regula falsi steps stall, and some replays end above the
    # tolerance.  Such a replay leaves the plain bisection's bracket and
    # budget to the stiff-corner stage, which bisecting again would only
    # reproduce: that took a mean of 9.7 and up to 132 evaluations on these
    # rows.
    calls = []
    exp = np.exp

    def counting_exp(x, *args, **kwargs):
        if isinstance(x, float):
            calls.append(x)
        return exp(x, *args, **kwargs)

    rng = np.random.default_rng([16, 10])
    rows = []
    for k in range(600):
        x = rng.uniform(-5.0, 5.0, 16)
        if k % 3 == 1:
            x = np.round(x)  # ties
        elif k % 3 == 2:
            x[rng.integers(16)] += 50.0  # one dominant score
        rows.append(Scores(x))
    monkeypatch.setattr(np, "exp", counting_exp)
    evaluations = []
    for s in rows:
        before = len(calls)
        entmax(s, 10.0)
        evaluations.append(len(calls) - before)
    assert np.mean(evaluations) <= 7.0 and max(evaluations) <= 70


def _probe_rows():
    # The top score leads the next by just under 1/(alpha-1): the root lies
    # just below y = 0, where the probes after the regula falsi steps
    # straddle it.
    for m in (128, 200, 1000):
        rng = np.random.default_rng([m, 23])
        for alpha in (1.25, 1.75, 2.0, 3.0, 10.0):
            for u in range(-13, -5):
                x = rng.uniform(-5.0, 5.0, m)
                x[rng.integers(m)] = x.max() + 1.0 / (alpha - 1.0) - 10.0**u
                yield Scores(x), alpha


def _near_softmax_rows():
    for m in (16, 1000):
        rng = np.random.default_rng([m, 5])
        for alpha in (1.00001, 1.00003):
            for k in range(6):
                x = rng.uniform(-5.0, 5.0, m)
                if k % 3 == 1:
                    x = np.round(x)  # ties
                elif k % 3 == 2:
                    x[rng.integers(m)] += 50.0  # one dominant score
                yield Scores(x), alpha


def _single_key_rows():
    for alpha in (1.0 + 1e-12, *GUARD_ALPHAS, 1.5, 1e3, 1e6):
        yield Scores([3.7]), alpha


@pytest.mark.parametrize(
    "rows, log_domain", [(_probe_rows, False), (_near_softmax_rows, True), (_single_key_rows, False)]
)
def test_entmax_keeps_the_plain_bisections_bits_without_special_cases(monkeypatch, rows, log_domain):
    # No single-key shortcut and no alpha below which the replay is skipped;
    # and no weight evaluation above y = 0.  Its exp argument (alpha-1) y is
    # the only positive float passed to np.exp outside the log-domain stage,
    # which rows near softmax reach.
    positive = []
    exp = np.exp

    def recording_exp(x, *args, **kwargs):
        if isinstance(x, float) and x > 0.0:
            positive.append(x)
        return exp(x, *args, **kwargs)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s, alpha in rows():
            try:
                expected = _reference_entmax(s, alpha).distribution.weights
            except NumericalFailure:
                expected = None
            monkeypatch.setattr(np, "exp", recording_exp)
            weights = entmax(s, alpha).distribution.weights
            monkeypatch.undo()
            if expected is None:
                assert abs(float(weights.sum()) - 1.0) < ENTMAX_MASS_ATOL
            else:
                assert weights.tobytes() == expected.tobytes(), (len(s), alpha)
    assert log_domain or positive == []


# entmax's alpha-1.5 sort over the whole row, without its two cuts.
def _reference_entmax15(s: Scores) -> np.ndarray:
    v = s.values
    x = np.maximum(0.5 * v - 0.5 * float(v.max()), -2.0)
    z = np.sort(x)[::-1]
    d = z[:-1] - z[1:]
    g = np.cumsum(np.arange(1.0, z.size) * d)
    f = d * g
    f[1:] += d[1:] * g[:-1]
    rho = 1 + int(np.count_nonzero(np.cumsum(f) < 1.0))
    support = z[:rho]
    mu = float(support.sum()) / rho
    tau = mu - math.sqrt((1.0 - float(((support - mu) ** 2).sum())) / rho)
    return np.maximum(x - tau, 0.0) ** 2


@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_entmax_large_rows_evaluate_only_the_candidates(monkeypatch, alpha):
    # At alpha 2 every stage-1 evaluation, and the fill of the result,
    # covers only the entries positive at y = 0, here 10-20% of the row.
    # At alpha 1.5 the sort and the weights cover only the entries above
    # both cuts, here under 2% of the row, and the cuts change no bit.
    m = 10**5
    rng = np.random.default_rng([m, 18])
    rows = [Scores(rng.uniform(-5.0, 5.0, m)) for _ in range(4)]
    shim = _CountingMaximum()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in rows:
            shim.lengths.clear()
            shim.sorted.clear()
            monkeypatch.setattr("vattn.solvers.np", shim)
            weights = entmax(s, alpha).distribution.weights
            monkeypatch.undo()
            if alpha == 2.0:
                assert shim.lengths and max(shim.lengths) < m // 4
            else:
                assert len(shim.sorted) == 1 and shim.sorted[0] < m // 50
                assert shim.lengths == shim.sorted
                assert weights.tobytes() == _reference_entmax15(s).tobytes()


@pytest.mark.parametrize("m", [1, 2, 3, 16, 64, 256, 1000, 1023])
def test_entmax15_short_rows_sort_only_the_candidates_and_keep_the_whole_sorts_bits(
    monkeypatch, m
):
    # Short rows take the cuts too: the sort covers the entries within
    # 2 + 8 eps of the top, and the weights keep the bytes of sorting the
    # whole row, on uniform rows, on rows whose every entry is a candidate,
    # on tied rows and on a dominant score over a plateau.
    rng = np.random.default_rng([m, 19])
    x = rng.uniform(-5.0, 5.0, m)
    plateau = np.full(m, -1.9)
    plateau[0] = 0.0
    rows = [x, 0.1 * x, np.round(x), plateau]
    shim = _CountingMaximum()
    for row in rows:
        s = Scores(row)
        shim.sorted.clear()
        monkeypatch.setattr("vattn.solvers.np", shim)
        weights = entmax(s, 1.5).distribution.weights
        monkeypatch.undo()
        candidates = int(np.count_nonzero(row - row.max() > -2.0 - 8.0 * np.finfo(float).eps))
        assert shim.sorted == [candidates]
        assert weights.tobytes() == _reference_entmax15(s).tobytes()


class _CountingStiffCorner(_CountingMaximum):
    """Also records, at each call of ``argmin``, which only the stiff-corner
    stage makes, how many arrays ``maximum`` had been given."""

    def __init__(self):
        super().__init__()
        self.stiff = []

    def argmin(self, *args, **kwargs):
        self.stiff.append(len(self.lengths))
        return np.argmin(*args, **kwargs)


def _stiff_corner_rows():
    # Rows of at least 128 keys whose replay ends above the tolerance:
    # about half the U(-5, 5) rows at alpha 10, m = 128 and 200.
    for m in (128, 200):
        rng = np.random.default_rng([m, 10])
        for _ in range(20):
            yield Scores(rng.uniform(-5.0, 5.0, m)), 10.0
    yield Scores(np.random.default_rng([10**5, 6, 10]).uniform(-5.0, 5.0, 10**5)), 6.0


def test_entmax_stiff_corner_of_large_rows_reads_the_candidates(monkeypatch):
    # The stiff corner takes its upper weights from stage 1's candidate
    # buffer: until it starts, no array as long as the row reaches
    # np.maximum, and the weights keep the plain bisection's bits.
    shim = _CountingStiffCorner()
    reached = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s, alpha in _stiff_corner_rows():
            try:
                expected = _reference_entmax(s, alpha).distribution.weights
            except NumericalFailure:
                expected = None
            shim.lengths.clear()
            shim.stiff.clear()
            monkeypatch.setattr("vattn.solvers.np", shim)
            weights = entmax(s, alpha).distribution.weights
            monkeypatch.undo()
            if shim.stiff:
                reached += 1
                assert max(shim.lengths[: shim.stiff[0]]) < len(s)
            if expected is None:
                assert abs(float(weights.sum()) - 1.0) < ENTMAX_MASS_ATOL
            else:
                assert weights.tobytes() == expected.tobytes(), (len(s), alpha)
    assert reached >= 20


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
PEAK_ROWS = {"shannon": 1.25, "l2": 1.5, "tsallis": 3.05, "alibi": 2.25, "kl_prior": 2.25}


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
