"""Property sweeps over the whole input domain an entry point accepts.

Each case must solve: a simplex output, no warning, and no
``NumericalFailure`` partway through.
"""

import decimal
import fractions
import functools
import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest

from test_solvers import _alibi_outcome, _reference_alibi_softmax, _reference_entmax
from vattn import (
    NumericalFailure,
    QueryKeyBatch,
    RegularizerSpec,
    Scores,
    SimplexDistribution,
    alibi_softmax,
    attention_matrix,
    entmax,
    grid_search_simplex,
    lse,
    primal_value,
    prior_softmax,
    softmax,
    sparsemax,
)
from vattn import FisherMatrix, JacobianMatrix, SolveResult, fisher_matrix, oracle, solve, solvers
from vattn.core import (
    SIMPLEX_SUM_ATOL,
    _check_positive_real,
    _row_sums,
    key_distances,
    objective_rows,
    objective_value,
)
from vattn.gradient import _EIGENVALUE_ATOL, _MATRIX_ATOL
from vattn.solvers import ENTMAX_MASS_ATOL

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None, database=None)
@hypothesis.given(
    unit=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64),
    levels=st.integers(0, 3),
    scale_exponent=st.floats(-8.0, 300.0),
    alpha_exponent=st.floats(-12.0, 6.0),
)
def test_entmax_solves_every_row(unit, levels, scale_exponent, alpha_exponent):
    x = np.array(unit)
    if levels:
        x = np.round(x * levels) / levels  # at most 2 * levels + 1 distinct scores
    s = Scores(x * 10.0**scale_exponent)
    alpha = 1.0 + 10.0**alpha_exponent  # from 1 + 1e-12 to about 1e6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = entmax(s, alpha).distribution.weights
    assert w.shape == x.shape and np.all(w >= 0.0)
    assert abs(float(w.sum()) - 1.0) <= ENTMAX_MASS_ATOL


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None, database=None)
@hypothesis.given(
    m=st.one_of(st.integers(1, 64), st.sampled_from([128, 300, 1000])),
    shape=st.sampled_from(["uniform", "tied", "dominant"]),
    alpha=st.one_of(
        st.sampled_from([1.25, 1.75, 2.0, 3.0]), st.floats(1.0001, 10.0).filter(lambda a: a != 1.5)
    ),
    scale=st.floats(0.01, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_entmax_returns_the_plain_bisections_bits(m, shape, alpha, scale, seed):
    # Homing in first and replaying the bisection must not change a bit
    # wherever the plain bisection solves (alpha 1.5 sorts instead).  A
    # dominant score puts the root at y = 0; ties put several entries on
    # one threshold.
    rng = np.random.default_rng(seed)
    x = rng.uniform(-scale, scale, m)
    if shape == "tied":
        x = np.round(x / scale * 3.0) * scale / 3.0
    elif shape == "dominant":
        x[rng.integers(m)] += 10.0 * scale + 50.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = entmax(Scores(x), alpha).distribution.weights
        try:
            expected = _reference_entmax(Scores(x), alpha).distribution.weights
        except NumericalFailure:  # solved by the later stages alone
            assert abs(float(w.sum()) - 1.0) <= ENTMAX_MASS_ATOL
            return
    assert w.tobytes() == expected.tobytes()


def _decimal_entmax15(v: np.ndarray) -> np.ndarray:
    """Entmax at alpha 1.5 in 50-digit decimal arithmetic: in half units
    x = (s - max(s)) / 2, x_(k) is in the support while
    sum_{i<=k} (x_(i) - x_(k))^2 < 1 (summed here as
    k x_(k)^2 - 2 x_(k) sum_{i<k} x_(i) + sum_{i<k} x_(i)^2), and on the support of size rho
    p_j = (x_j - tau)_+^2 with tau = mu - sqrt((1 - q) / rho), mu its
    mean and q its sum of squared deviations.  Entries at or below
    x = -1 have weight 0, as the top weight is at most 1."""
    with decimal.localcontext() as context:
        context.prec = 50
        top = decimal.Decimal(float(v.max()))
        x = {j: (decimal.Decimal(float(a)) - top) / 2 for j, a in enumerate(v)}
        x = {j: a for j, a in x.items() if a > -1}
        z = sorted(x.values(), reverse=True)
        rho, first, second = len(z), 0, 0  # running sums of z and z^2
        for k, a in enumerate(z):
            if k * a * a - 2 * a * first + second >= 1:
                rho = k
                break
            first, second = first + a, second + a * a
        mu = sum(z[:rho]) / rho
        tau = mu - ((1 - sum((a - mu) ** 2 for a in z[:rho])) / rho).sqrt()
        w = np.zeros(v.size)
        for j, a in x.items():
            w[j] = float(max(a - tau, 0) ** 2)
        return w


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None, database=None)
@hypothesis.given(
    m=st.one_of(st.integers(1, 64), st.sampled_from([1023, 1024, 4096, 10**5])),
    shape=st.sampled_from(["uniform", "tied", "plateau"]),
    scale_exponent=st.one_of(
        st.sampled_from([-8.0, 0.0, 300.0]), st.floats(-2.0, 2.0), st.floats(-8.0, 300.0)
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_entmax_at_alpha_one_and_a_half_matches_a_decimal_reference(
    m, shape, scale_exponent, seed
):
    # The sort path, its two cuts (at 4096 and 1e5 keys and small scales
    # more than 1024 entries pass the first) and its candidate-only
    # writes: the same support, the unit mass, and every weight within a
    # few ulps of 1 of the exact one.
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, m)
    if shape == "tied":
        x = np.round(x * 4.0) / 4.0
    elif shape == "plateau":  # one dominant score over equal ones
        x = np.full(m, rng.uniform(-1.0, 1.0))
        x[rng.integers(m)] += rng.uniform(0.0, 3.0)
    s = Scores(x * 10.0**scale_exponent)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = entmax(s, 1.5).distribution.weights
    exact = _decimal_entmax15(s.values)
    assert np.array_equal(w > 0.0, exact > 0.0)
    assert abs(float(w.sum()) - 1.0) <= ENTMAX_MASS_ATOL
    assert float(np.max(np.abs(w - exact))) <= 4.0 * np.finfo(float).eps


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None, database=None)
@hypothesis.given(
    n=st.integers(1, 64),
    m=st.integers(1, 64),
    scale_exponent=st.one_of(st.sampled_from([300.0, 308.0]), st.floats(-8.0, 300.0)),
    mixed=st.booleans(),
    tau_exponent=st.one_of(st.just(-8.0), st.floats(-8.0, 8.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_attention_matrix_has_the_row_wise_softmax_bits(
    n, m, scale_exponent, mixed, tau_exponent, seed
):
    # keys = I makes the similarity matrix exactly the queries.  At scale
    # 1e300 and tau 1e-8 a row's spread over tau overflows, at 1e308 its
    # quotients too, and the row takes the guarded path; mixed batches
    # draw each row's scale from 1e-8 up, so such rows sit beside rows
    # that take the plain one.
    rng = np.random.default_rng(seed)
    exponents = rng.uniform(-8.0, scale_exponent, (n, 1)) if mixed else scale_exponent
    queries = rng.uniform(-1.0, 1.0, (n, m)) * 10.0**exponents
    t = 10.0**tau_exponent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = attention_matrix(QueryKeyBatch(queries, np.eye(m)), t).entries
        rows = [softmax(Scores(row), t).distribution.weights for row in queries]
    assert plan.tobytes() == np.vstack(rows).tobytes()


# The other closed forms over m from 1 to 64 and at 128 and 1000, scores
# at scales 1e-8 to 1e300, temperatures 1e-8 to 1e8, and tied rows (at
# most seven distinct scores).  Every case solves without a warning: a
# NumericalFailure, or any other error, fails the sweep.
ROWS = dict(
    m=st.one_of(st.integers(1, 64), st.sampled_from([128, 1000])),
    scale_exponent=st.one_of(st.just(300.0), st.floats(-8.0, 300.0)),
    tied=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
TAU_EXPONENT = st.one_of(st.sampled_from([-8.0, 8.0]), st.floats(-8.0, 8.0))


def _row(m, scale_exponent, tied, rng) -> Scores:
    x = rng.uniform(-1.0, 1.0, m)
    if tied:
        x = np.round(x * 3.0) / 3.0
    return Scores(x * 10.0**scale_exponent)


def _assert_simplex(result, m):
    w = result.distribution.weights
    assert w.shape == (m,) and np.all(w >= 0.0)
    assert abs(float(w.sum()) - 1.0) <= SIMPLEX_SUM_ATOL


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None, database=None)
@hypothesis.given(tau_exponent=TAU_EXPONENT, **ROWS)
def test_softmax_lse_and_primal_value_solve_every_row(
    m, scale_exponent, tied, seed, tau_exponent
):
    s = _row(m, scale_exponent, tied, np.random.default_rng(seed))
    t = 10.0**tau_exponent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = softmax(s, t)
        value = lse(s, t)
        primal = primal_value(s, t)
    _assert_simplex(result, m)
    # The top score's shifted term is exp(0) = 1, so the sum is at least
    # 1 and its log at least 0: the bound holds in floating point too.
    assert float(s.values.max()) <= value
    assert math.isfinite(primal)


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None, database=None)
@hypothesis.given(**ROWS)
def test_sparsemax_solves_every_row(m, scale_exponent, tied, seed):
    s = _row(m, scale_exponent, tied, np.random.default_rng(seed))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = sparsemax(s)
    _assert_simplex(result, m)


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None, database=None)
@hypothesis.given(
    tau_exponent=TAU_EXPONENT,
    gamma_exponent=st.one_of(st.none(), st.floats(-8.0, 8.0)),
    **ROWS,
)
def test_alibi_softmax_solves_every_row(m, scale_exponent, tied, seed, tau_exponent, gamma_exponent):
    rng = np.random.default_rng(seed)
    s = _row(m, scale_exponent, tied, rng)
    position = int(rng.integers(1, m + 1))
    gamma = 0.0 if gamma_exponent is None else 10.0**gamma_exponent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = alibi_softmax(s, position, gamma, 10.0**tau_exponent)
    _assert_simplex(result, m)


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None, database=None)
@hypothesis.given(
    m=st.one_of(st.integers(1, 64), st.sampled_from([1000, 5000, 20000])),
    scale_exponent=st.one_of(
        st.sampled_from([0.0, 300.0]), st.floats(-3.0, 3.0), st.floats(-300.0, 300.0)
    ),
    tied=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    tau_exponent=st.one_of(
        st.sampled_from([-300.0, 300.0]), st.floats(-3.0, 3.0), st.floats(-300.0, 300.0)
    ),
    gamma_exponent=st.one_of(
        st.none(), st.just(math.log10(1.7e308)), st.floats(-3.0, 3.0), st.floats(-300.0, 300.0)
    ),
    reach=st.one_of(st.none(), st.floats(1e-4, 0.5)),
    position=st.one_of(st.sampled_from(["first", "middle", "last", "past", "far"]), st.integers(1, 10**6)),
)
def test_alibi_window_keeps_the_full_rows_bits_everywhere(
    m, scale_exponent, tied, seed, tau_exponent, gamma_exponent, reach, position
):
    # The windowed ALiBi against the full-row reference, bit for bit, or the same
    # exception, on rows where the window engages and where it stands down.
    # Given ``reach``, gamma puts the cut at that share of the farthest key.
    s = _row(m, scale_exponent, tied, np.random.default_rng(seed))
    ends = {"first": 1, "middle": max(1, m // 2), "last": m, "past": m + 5, "far": 10**15}
    i = ends.get(position, position)
    gamma = 0.0 if gamma_exponent is None else min(10.0**gamma_exponent, 1.7e308)
    t = 10.0**tau_exponent
    if reach is not None:
        gamma = min(746.0 * t / (reach * max(i - 1, m - i, 1)), 1.7e308)
    expected = _alibi_outcome(_reference_alibi_softmax, s, i, gamma, t)
    assert _alibi_outcome(alibi_softmax, s, i, gamma, t) == expected


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None, database=None)
@hypothesis.given(
    tau_exponent=TAU_EXPONENT,
    concentration=st.sampled_from([0.01, 0.1, 1.0, 10.0]),
    **ROWS,
)
def test_prior_softmax_solves_every_row(m, scale_exponent, tied, seed, tau_exponent, concentration):
    # A sparse Dirichlet draw can hold tiny or exactly zero prior weights;
    # a zero is rejected when the prior is validated, before any solve.
    rng = np.random.default_rng(seed)
    s = _row(m, scale_exponent, tied, rng)
    prior = SimplexDistribution(rng.dirichlet(np.full(m, concentration)))
    t = 10.0**tau_exponent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if prior.weights.min() == 0.0:
            with pytest.raises(ValueError, match="strictly positive"):
                prior_softmax(s, prior, t)
            return
        result = prior_softmax(s, prior, t)
    _assert_simplex(result, m)


# The entropic closed forms where a penalty overflows.  A logit of -inf
# has weight 0 and the others are weighed as usual; a penalty that
# overflows at every key leaves no weight defined.
DBL_MAX = sys.float_info.max


def _float_softmax(logits: np.ndarray, t: float) -> np.ndarray:
    # exp((v - top) / tau) over the finite logits, normalized, with each gap
    # taken exactly as a rational: the library halves the gaps instead.
    top = fractions.Fraction(float(logits[np.isfinite(logits)].max()))
    terms = []
    for v in logits.tolist():
        gap = (fractions.Fraction(v) - top) / fractions.Fraction(t) if math.isfinite(v) else -1000
        terms.append(math.exp(gap) if gap > -1000 else 0.0)
    return np.array(terms) / math.fsum(terms)


def _assert_overflow_outcome(call, logits: np.ndarray, t: float):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if np.isneginf(logits).all():
            with pytest.raises(ValueError, match="penalty overflows at every key"):
                call()
            return None
        result = call()
    w, potential = result.distribution.weights, result.potential
    assert result.support_size == np.count_nonzero(w)
    finite = np.isfinite(logits)
    expected = softmax(Scores(logits[finite]), t)
    if finite.all():
        assert w.tobytes() == expected.distribution.weights.tobytes()
        assert potential == expected.potential  # inf where tau * log(sum) overflows
    else:  # the -inf logits add nothing to the potential
        assert np.all(w[~finite] == 0.0)
        assert np.max(np.abs(w - _float_softmax(logits, t))) <= 1e-15
        gap = abs(potential - expected.potential)
        assert potential == expected.potential or gap <= 1e-15 * (abs(expected.potential) + t)
    return w.tobytes()


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None, database=None)
@hypothesis.given(
    m=st.sampled_from([1, 2, 7, 16, 1000]),
    gamma=st.sampled_from([0.0, 1.0, 1e300, 1e308, DBL_MAX]),
    where=st.sampled_from(["first", "last", "past", "far"]),
    t=st.sampled_from([1e-300, 1.0, 1e306, DBL_MAX]),
    scale=st.sampled_from([5.0, 1e300]),
    smallest=st.sampled_from([0.0, 100.0, 300.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_overflowing_penalties_weigh_only_the_finite_logits(
    m, gamma, where, t, scale, smallest, seed
):
    rng = np.random.default_rng(seed)
    s = Scores(rng.uniform(-scale, scale, m))
    position = {"first": 1, "last": m, "past": m + 1, "far": 10**15}[where]
    with np.errstate(over="ignore"):
        logits = s.values - gamma * key_distances(position, m)
    reg = RegularizerSpec.alibi(gamma, position, t)
    found = _assert_overflow_outcome(lambda: alibi_softmax(s, position, gamma, t), logits, t)
    assert _assert_overflow_outcome(lambda: solve(s, reg), logits, t) == found
    # A prior with about half its entries from 1 down to 10**-smallest.
    prior = rng.dirichlet(np.ones(m))
    tiny = rng.random(m) < 0.5
    prior[tiny] = 10.0 ** -rng.uniform(0.0, smallest, int(tiny.sum()))
    prior = SimplexDistribution(prior / prior.sum())
    with np.errstate(over="ignore"):
        logits = s.values + t * np.log(prior.weights)
    reg = RegularizerSpec.kl_prior(prior, t)
    found = _assert_overflow_outcome(lambda: prior_softmax(s, prior, t), logits, t)
    assert _assert_overflow_outcome(lambda: solve(s, reg), logits, t) == found


# The softmax family as it was before entries below exp's underflow cut
# were skipped: every shifted entry exponentiated, and the potential taken
# from the weights' own normalizer.  Every entry point must keep these bits.
def _guarded_gap(v, top, t):
    with np.errstate(over="ignore"):
        return 2.0 * ((0.5 * v - 0.5 * top) / t)


def _reference_exp(v, t, top, plain):
    if plain:
        e = v / t
        e -= top / t
    else:
        e = _guarded_gap(v, top, t)
    return np.exp(e, out=e)


def _reference_rows(v, t, top, plain):
    e = _reference_exp(v, t, top, plain)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _reference_softmax(v, t):
    top, bottom = float(v.max()), float(v.min())
    plain = math.isfinite(bottom / t - top / t)
    potential = top + t * float(np.log(_reference_exp(v, t, top, plain).sum()))
    return _reference_rows(v, t, top, plain), potential


def _reference_attention(scores, t):
    top, bottom = scores.max(axis=1, keepdims=True), scores.min(axis=1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        plain = np.isfinite(bottom / t - top / t)[:, 0]
        weights = _reference_rows(scores, t, top, True)
    if not plain.all():
        weights[~plain] = _reference_rows(scores[~plain], t, top[~plain], False)
    return weights


# Shifted quotients by class: ordinary, subnormal exp (-745.2, -708),
# at or just around the cut -746, and far below it.
GAPS = ((-30.0, 0.0), (-745.2, -708.0), (-746.5, -745.5), (-1e6, -746.0))


def _gapped_row(rng, m, weights, t, guarded):
    # A top score of 0 and entries at the drawn gaps below it, times tau;
    # a guarded row is scaled so that its quotients or its spread overflow.
    kinds = rng.choice(len(GAPS), m, p=np.asarray(weights) / sum(weights))
    low, high = np.array(GAPS).T
    x = rng.uniform(low[kinds], high[kinds]) * t
    x[rng.random(m) < 0.05] = -746.0 * t
    x[rng.integers(m)] = 0.0
    if guarded:
        x = x / np.abs(x).max() * 1.5e308 if np.abs(x).max() > 0.0 else x + 1e308
        x[rng.integers(m)] = 1e308
    return x + rng.choice([0.0, 1.0, -1e3])


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None, database=None)
@hypothesis.given(
    m=st.one_of(st.integers(1, 64), st.sampled_from([1000, 2049])),
    weights=st.lists(st.integers(0, 4), min_size=4, max_size=4).filter(any),
    tau_exponent=st.one_of(st.sampled_from([-300.0, -8.0, 0.0]), st.floats(-3.0, 3.0)),
    guarded=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_softmax_family_keeps_its_bits_past_the_exp_cut(
    m, weights, tau_exponent, guarded, seed
):
    rng = np.random.default_rng(seed)
    t = 10.0**tau_exponent
    x = _gapped_row(rng, m, weights, t, guarded)
    s = Scores(x)
    position, gamma = int(rng.integers(1, m + 1)), float(10.0 ** rng.uniform(-3.0, 3.0))
    penalized = x - gamma * key_distances(position, m)
    # Prior entries of 1e-300 lower their shifted quotients by 690.8.
    prior = rng.dirichlet(np.ones(m))
    prior[rng.random(m) < 0.3] = 1e-300
    prior = SimplexDistribution(prior / prior.sum())
    effective = np.log(prior.weights) * t + x
    n = int(rng.integers(1, 9))
    rows = [_gapped_row(rng, m, weights, t, guarded and k % 2) for k in range(1, n)]
    queries = np.vstack([x] + rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = softmax(s, t)
        value, primal = lse(s, t), primal_value(s, t)
        alibi = alibi_softmax(s, position, gamma, t).distribution.weights
        posterior = prior_softmax(s, prior, t).distribution.weights
        plan = attention_matrix(QueryKeyBatch(queries, np.eye(m)), t).entries
        expected, potential = _reference_softmax(x, t)
        expected_primal = objective_value(
            SimplexDistribution(expected), s, RegularizerSpec.shannon(t)
        )
        expected_plan = _reference_attention(queries @ np.eye(m), t)
    assert result.distribution.weights.tobytes() == expected.tobytes()
    assert result.potential.hex() == value.hex() == potential.hex()
    assert primal.hex() == expected_primal.hex()
    assert alibi.tobytes() == _reference_softmax(penalized, t)[0].tobytes()
    assert posterior.tobytes() == _reference_softmax(effective, t)[0].tobytes()
    assert plan.tobytes() == expected_plan.tobytes()


def _decimal_lse(v, t):
    """tau * log sum exp(s / tau) in 50-digit decimal arithmetic, shifted by
    the top score; terms below exp(-800), under 1e-347 of the top one, are
    dropped."""
    with decimal.localcontext() as context:
        context.prec = 50
        top, tau = decimal.Decimal(float(v.max())), decimal.Decimal(t)
        gaps = ((decimal.Decimal(float(a)) - top) / tau for a in v)
        return top + tau * sum(g.exp() for g in gaps if g > -800).ln()


def _potential_rows(rng):
    # Rows at scales 1e-3 to 1e12 and tau 1e-3 to 1e3, half of them at a
    # scale near tau, where many terms count, and half shifted to a top
    # score of 0; then rows whose shifted quotients lie around and below
    # the exp cut, alone or with one score at -1.7e308, whose quotient by
    # tau <= 0.32 overflows, so the row takes the overflow guard.
    for _ in range(1000):
        m, t = int(rng.integers(1, 33)), float(10.0 ** rng.uniform(-3.0, 3.0))
        near = min(max(t * 10.0 ** rng.uniform(-1.0, 2.0), 1e-3), 1e12)
        scale = near if rng.random() < 0.5 else 10.0 ** rng.uniform(-3.0, 12.0)
        x = rng.uniform(-5.0, 5.0, m) * scale
        yield x - x.max() * float(rng.integers(2)), t
    for guarded in (False, True):
        for _ in range(200):
            m = int(rng.integers(2, 65))
            t = float(10.0 ** rng.uniform(-3.0, -0.5 if guarded else 3.0))
            weights = rng.integers(0, 5, 4)
            weights[rng.integers(4)] += 1
            x = _gapped_row(rng, m, weights, t, False)
            if guarded:
                x[rng.integers(m)] = -1.7e308
            yield x, t


# Worst error of the potential on ``_potential_rows``, in ulps of
# max(|lse|, tau): log's argument is at least 1, so the error of
# tau * log(sum) scales with tau even where the potential is near 0.
# With its own exp of (s - top) / tau, apart from the weights', the
# potential read 2.27 here and at most 3.20 under five other seeds; from
# the weights' normalizer, exp(s / tau - top / tau), it reads the same.
POTENTIAL_ULPS = 4.0


def test_lse_and_the_potential_match_a_decimal_reference():
    rng = np.random.default_rng(27)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, t in _potential_rows(rng):
            s = Scores(x)
            value = lse(s, t)
            assert softmax(s, t).potential.hex() == value.hex()
            exact = _decimal_lse(x, t)
            unit = math.ulp(max(abs(float(exact)), t))
            worst = max(worst, float(abs(decimal.Decimal(value) - exact)) / unit)
    assert worst <= POTENTIAL_ULPS, worst


@pytest.mark.parametrize("length", range(1, 70))
def test_exp_is_positive_zero_at_and_below_the_cut(length):
    # The exp cut rests on this: every x <= -746 has exp(x) = +0.0, in
    # numpy's vector body and its tails, at any alignment.
    rng = np.random.default_rng(length)
    x = -746.0 - np.abs(rng.standard_cauchy(length)) * 10.0 ** rng.uniform(0.0, 300.0, length)
    x[rng.random(length) < 0.3] = -746.0
    x[rng.random(length) < 0.1] = -np.inf
    buffer = np.empty(length + 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for offset in range(8):
            view = buffer[offset : offset + length]
            view[:] = x
            assert np.exp(view).tobytes() == bytes(8 * length)
            assert np.exp(view, out=view).tobytes() == bytes(8 * length)


CHUNK = oracle._GRID_CHUNK_ROWS
# Signed zeros, subnormals and values near the double range's ends.
_EDGE_ENTRIES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e308, -1e308, -1.7e308, 1.7e308]


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None, database=None)
@hypothesis.given(
    rows=st.one_of(st.integers(1, 40), st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK])),
    width=st.integers(1, 3),
    edge_share=st.sampled_from([0.0, 0.3, 1.0]),
    layout=st.sampled_from(["C", "F", "strided"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_sums_have_the_bits_of_np_sum(rows, width, edge_share, layout, seed):
    rng = np.random.default_rng(seed)
    q = rng.uniform(-1.0, 1.0, (rows, width)) * 10.0 ** rng.uniform(-320.0, 308.0, (rows, width))
    edge = rng.random((rows, width)) < edge_share
    q[edge] = rng.choice(_EDGE_ENTRIES, int(edge.sum()))
    q[rng.random(rows) < 0.1] = -0.0  # these rows sum to +0.0
    if layout == "F":
        q = np.asfortranarray(q)
    elif layout == "strided":
        q = np.repeat(q, 2, axis=1)[:, ::2]
    with np.errstate(over="ignore", invalid="ignore"):
        assert _row_sums(q).tobytes() == np.sum(q, axis=1).tobytes()


@functools.cache
def _reference_grid(m, resolution):
    # The grid and its entropy terms as one whole-array evaluation builds them.
    r = resolution
    if m == 1:
        points = np.ones((1, 1))
    elif m == 2:
        i = np.arange(r + 1, dtype=np.float64)
        points = np.column_stack([i, r - i]) / r
    else:
        counts = np.arange(r + 1, 0, -1)
        i = np.repeat(np.arange(r + 1, dtype=np.float64), counts)
        j = np.arange(i.size, dtype=np.float64) - np.repeat(np.cumsum(counts) - counts, counts)
        points = np.column_stack([i, j, r - i - j]) / r
    terms = np.where(points > 0.0, points, 1.0)
    return points, np.sum(np.log(terms) * points, axis=1)


# Grids of a chunk's size -1, 0 and +1 points, m=2 grids whose two middle
# points (tied under equal scores) straddle a chunk boundary, and m=3 grids
# over one and several chunk boundaries.
_GRID_SIZES = [(1, 100), (2, 100), (2, CHUNK - 2), (2, CHUNK - 1), (2, CHUNK), (2, 2 * CHUNK - 1)]
_GRID_SIZES += [(3, 100), (3, 180), (3, 400), (3, 2000)]


def _grid_regularizer(choice, m, rng):
    t = float(10.0 ** rng.uniform(-2.0, 2.0))
    if choice == "shannon":
        return RegularizerSpec.shannon(t)
    if choice == "l2":
        return RegularizerSpec.l2()
    if choice.startswith("tsallis"):
        return RegularizerSpec.tsallis(float(choice.split()[1]))
    if choice == "alibi":
        return RegularizerSpec.alibi(float(rng.uniform(0.0, 3.0)), int(rng.integers(1, m + 1)), t)
    if choice == "overflowing alibi":  # NaN objectives: -inf entropy plus +inf locality
        return RegularizerSpec.alibi(1.7e308, 1, 1.7e308)
    return RegularizerSpec.kl_prior(0.9 * rng.dirichlet(np.ones(m)) + 0.1 / m, t)


@hypothesis.settings(derandomize=True, max_examples=120, deadline=None, database=None)
@hypothesis.given(
    size=st.sampled_from(_GRID_SIZES),
    kind=st.sampled_from(
        ["shannon", "l2", "tsallis 1.5", "tsallis 2", "tsallis 3", "tsallis 1.05"]
        + ["alibi", "overflowing alibi", "kl_prior"]
    ),
    scores=st.sampled_from(["uniform", "equal", "large"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_grid_search_picks_the_whole_grids_argmin(size, kind, scores, seed):
    m, resolution = size
    rng = np.random.default_rng(seed)
    x = {
        "uniform": lambda: rng.uniform(-5.0, 5.0, m),
        "equal": lambda: np.full(m, 2.0 ** int(rng.integers(-3, 4))),
        "large": lambda: rng.uniform(-1e300, 1e300, m),
    }[scores]()
    s, reg = Scores(x), _grid_regularizer(kind, m, rng)
    points, xlogx = _reference_grid(m, resolution)
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflowing alibi's
        found = grid_search_simplex(s, reg, resolution)
        objectives = objective_rows(points, s, reg)
    best = int(np.argmin(objectives))
    assert found.distribution.weights.tobytes() == points[best].tobytes()
    assert found.objective.hex() == float(objectives[best]).hex()
    assert found.iterations == len(points)


@hypothesis.settings(derandomize=True, max_examples=120, deadline=None, database=None)
@hypothesis.given(
    size=st.sampled_from(_GRID_SIZES),
    kind=st.sampled_from(
        ["shannon", "l2", "tsallis 1.5", "tsallis 2", "tsallis 3", "tsallis 1.05"]
        + ["alibi", "overflowing alibi", "kl_prior"]
    ),
    scores=st.sampled_from(["uniform", "equal", "large"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_grid_search_with_the_screen_forced_off_is_bit_identical(size, kind, scores, seed):
    # The screen only skips chunks: evaluating every chunk finds the same
    # point, objective and iteration count, and the same warnings.
    m, resolution = size
    rng = np.random.default_rng(seed)
    x = {
        "uniform": lambda: rng.uniform(-5.0, 5.0, m),
        "equal": lambda: np.full(m, 2.0 ** int(rng.integers(-3, 4))),
        "large": lambda: rng.uniform(-1e300, 1e300, m),
    }[scores]()
    s, reg = Scores(x), _grid_regularizer(kind, m, rng)

    def search():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            found = grid_search_simplex(s, reg, resolution)
        weights = found.distribution.weights.tobytes()
        return weights, found.objective.hex(), found.iterations, [str(w.message) for w in caught]

    screened = search()
    with mock.patch.object(oracle, "_screen", lambda *args: None):
        assert search() == screened


@pytest.mark.parametrize("kind", ["shannon", "l2", "tsallis 1.5", "tsallis 2", "tsallis 3"])
def test_grid_search_takes_the_first_of_minima_tied_across_a_chunk_boundary(kind):
    # Under equal scores the two middle points of the m=2 grid, one each
    # side of the first chunk boundary, have the same objective bits.
    resolution = 2 * CHUNK - 1
    s = Scores([1.0, 1.0])
    reg = _grid_regularizer(kind, 2, np.random.default_rng(0))
    points, xlogx = _reference_grid(2, resolution)
    objectives = objective_rows(points, s, reg)
    assert objectives[CHUNK - 1] == objectives[CHUNK] == objectives.min()
    found = grid_search_simplex(s, reg, resolution)
    assert found.distribution.weights.tobytes() == points[CHUNK - 1].tobytes()


@pytest.mark.parametrize("kind", ["shannon", "l2", "tsallis 1.05", "tsallis 1.5", "tsallis 2", "tsallis 3"])
def test_grid_search_m3_takes_the_first_of_minima_tied_across_chunks(kind):
    # Under equal scores the m=3 grid's minima near the uniform point are
    # one point's permutations, which at these resolutions straddle a chunk
    # boundary: the screen keeps both chunks, and the first minimum of the
    # whole grid is found, whichever chunk holds it.
    for resolution in (241, 242, 419, 1000):
        points, _ = _reference_grid(3, resolution)
        for value in (1.0, -0.25, 0.3, 7.0, 1e-3):
            s = Scores(np.full(3, value))
            reg = _grid_regularizer(kind, 3, np.random.default_rng(0))
            objectives = objective_rows(points, s, reg)
            best = int(np.argmin(objectives))
            found = grid_search_simplex(s, reg, resolution)
            assert found.distribution.weights.tobytes() == points[best].tobytes()
            assert found.objective.hex() == float(objectives[best]).hex()


# ------------------------------------------- validated types, pass by pass
#
# The types check their invariants in fewer passes than the sequences
# below, which they must match decision for decision: the accepted bytes,
# or the exception's type and message.  Under simplefilter("error") a new
# warning is an exception too, so it shows as a different outcome.


def _outcome(build, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return build(*args)
        except Exception as error:  # noqa: BLE001 - the outcome is the error
            return type(error), str(error)


def _reference_weights(values) -> bytes:
    # The check sequence one pass at a time: shape, finite, nonnegative, sum.
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"weights must be a one-dimensional vector, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError("weights must have at least one entry")
    if not np.isfinite(arr).all():
        raise ValueError("weights must be finite (no NaN or Inf entries)")
    if arr.min() < 0.0:
        raise ValueError("simplex entries must be nonnegative")
    total = float(arr.sum())
    if abs(total - 1.0) > SIMPLEX_SUM_ATOL:
        raise ValueError(
            f"simplex entries must sum to 1 within {SIMPLEX_SUM_ATOL}, got sum {total!r}"
        )
    return arr.tobytes()


def _weights_bytes(values) -> bytes:
    return SimplexDistribution(values).weights.tobytes()


def _sum_edges():
    # The last sums accepted on each side of 1 and the first ulp past them.
    edges = []
    for side in (1.0, -1.0):
        total = 1.0 + side * SIMPLEX_SUM_ATOL
        while abs(total - 1.0) > SIMPLEX_SUM_ATOL:
            total = math.nextafter(total, 1.0)
        while abs(math.nextafter(total, side * 2.0) - 1.0) <= SIMPLEX_SUM_ATOL:
            total = math.nextafter(total, side * 2.0)
        edges += [total, math.nextafter(total, side * 2.0)]
    return edges


SUM_EDGES = _sum_edges()
_ODD_ENTRIES = [
    np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2e-308, 1e308, 1.7e308, -1e308,
    -1e-300, 2.0, 1.0,
]


def _row_summing_to(rng, m: int, total: float) -> np.ndarray:
    # m nonnegative entries whose np.sum is exactly ``total``, if found.
    w = rng.dirichlet(np.ones(m)) * total
    for _ in range(64):
        gap = total - float(w.sum())
        if gap == 0.0:
            break
        w[-1] = max(w[-1] + gap, 0.0) if abs(gap) > 1e-18 else math.nextafter(w[-1], gap * 2.0)
    return w


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None, database=None)
@hypothesis.given(
    m=st.one_of(st.integers(1, 40), st.sampled_from([127, 128, 1000])),
    shape=st.sampled_from(["valid", "edge sum", "odd entries", "random", "matrix", "empty"]),
    as_list=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_simplex_distribution_decides_as_the_check_sequence(m, shape, as_list, seed):
    rng = np.random.default_rng(seed)
    if shape == "valid":
        w = rng.dirichlet(np.full(m, 0.3))
        w[rng.random(m) < 0.2] = 0.0  # exact zeros: renormalized below
        w = w / w.sum() if w.sum() > 0.0 else np.eye(m)[0]
    elif shape == "edge sum":
        w = _row_summing_to(rng, m, SUM_EDGES[int(rng.integers(len(SUM_EDGES)))])
    elif shape == "odd entries":
        w = rng.dirichlet(np.ones(m))
        picks = rng.random(m) < 0.3
        w[picks] = rng.choice(_ODD_ENTRIES, int(picks.sum()))
    elif shape == "random":
        w = rng.uniform(-0.1, 1.0, m) * 10.0 ** rng.uniform(-310.0, 308.0)
    elif shape == "matrix":
        w = rng.dirichlet(np.ones(m))[np.newaxis, :]
    else:
        w = np.empty((0,) * int(rng.integers(1, 3)))
    values = w.tolist() if as_list else w
    assert _outcome(_weights_bytes, values) == _outcome(_reference_weights, values)


@pytest.mark.parametrize("m", [1, 2, 4, 16])
@pytest.mark.parametrize("total", SUM_EDGES)
def test_simplex_distribution_at_the_sum_tolerance(m, total):
    # Rows of m equal powers-of-two shares of ``total`` sum to it exactly:
    # the two accepted edges pass and the ulp past each is refused.
    w = np.full(m, total / m)
    assert float(w.sum()) == total
    outcome = _outcome(_weights_bytes, w)
    assert outcome == _outcome(_reference_weights, w)
    assert isinstance(outcome, bytes) == (abs(total - 1.0) <= SIMPLEX_SUM_ATOL)


def test_simplex_distribution_refuses_infinity_after_an_overflowing_prefix():
    # The finiteness test comes before any sum, so these rows raise it and
    # warn nothing, where a sum of them would overflow first.
    for row in ([1e308, 1e308, np.inf], [1.7e308] * 9 + [np.inf], [np.inf, 1e308, 1e308]):
        assert _outcome(_weights_bytes, row) == (
            ValueError,
            "weights must be finite (no NaN or Inf entries)",
        )


def _reference_fisher(entries, temperature) -> bytes:
    # FisherMatrix's checks with eigvalsh deciding positive semidefiniteness.
    e = np.array(entries, dtype=np.float64)
    if e.ndim != 2:
        raise ValueError(f"Fisher matrix must be a two-dimensional matrix, got shape {e.shape}")
    if e.size < 1:
        raise ValueError("Fisher matrix must have at least one entry")
    if not np.isfinite(e).all():
        raise ValueError("Fisher matrix must be finite (no NaN or Inf entries)")
    if e.shape[0] != e.shape[1]:
        raise ValueError("Fisher matrix must be a square matrix")
    scale = max(1.0, float(np.abs(e).max()))
    if float(np.max(np.abs(e - e.T))) > _MATRIX_ATOL * scale:
        raise ValueError("Fisher matrix must be symmetric")
    if float(np.max(np.abs(e.sum(axis=1)))) > _MATRIX_ATOL * scale:
        raise ValueError("Fisher matrix rows must sum to 0")
    _check_positive_real(temperature)
    if -float(np.linalg.eigvalsh(e)[0]) > _EIGENVALUE_ATOL * scale:
        raise ValueError("Fisher matrix must be positive semidefinite")
    return e.tobytes()


def _fisher_bytes(entries, temperature) -> bytes:
    return FisherMatrix(entries, temperature).entries.tobytes()


def _near_boundary_matrix(rng, m: int, least: float) -> np.ndarray:
    # Symmetric, rows summing to 0, least eigenvalue ``least`` on the
    # complement of the ones vector, the others in (0, 3].
    basis = np.linalg.qr(np.column_stack([np.ones(m), rng.standard_normal((m, m - 1))]))[0]
    rest = basis[:, 1:]
    spectrum = rng.uniform(0.0, 3.0, m - 1)
    spectrum[0] = least
    e = (rest * spectrum) @ rest.T
    return (e + e.T) / 2.0


def _laplacian(rng, m: int, coupling: float) -> np.ndarray:
    # A weighted graph Laplacian (positive semidefinite, Gershgorin bound 0),
    # with one pair's edge weight replaced by -coupling.
    weights = np.triu(rng.uniform(0.0, 1.0, (m, m)) * (rng.random((m, m)) < 0.5), 1)
    weights[0, m - 1] = -coupling
    weights = weights + weights.T
    return np.diag(weights.sum(axis=1)) - weights


def _tight_matrix(rng, m: int, least: float) -> np.ndarray:
    # Blocks [[a, -a], [-a, a]] down the diagonal (a zero row if m is odd):
    # at a < 0 both the least eigenvalue and Gershgorin's bound are 2a.
    e = np.zeros((m, m))
    scale = 10.0 ** rng.uniform(0.0, 3.0)
    for k in range(m // 2):
        a = least / 2.0 * scale if k == 0 else rng.uniform(0.0, scale)
        e[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[a, -a], [-a, a]]
    return e


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None, database=None)
@hypothesis.given(
    m=st.integers(2, 24),
    family=st.sampled_from(["eigenvalue", "tight", "laplacian", "library", "library scaled"]),
    share=st.sampled_from([-10.0, -2.0, -1.0, -0.99, -0.5, -0.49, -0.01, 0.0, 0.5, 1.0, 2.0]),
    tau_exponent=st.floats(-4.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_fisher_matrix_decides_as_eigvalsh(m, family, share, tau_exponent, seed):
    # ``share`` places the least eigenvalue (or the coupling that lowers the
    # Gershgorin bound) in units of the eigenvalue tolerance.
    rng = np.random.default_rng(seed)
    t = 10.0**tau_exponent
    if family == "eigenvalue":
        e = _near_boundary_matrix(rng, m, share * _EIGENVALUE_ATOL)
    elif family == "tight":
        e = _tight_matrix(rng, m, share * _EIGENVALUE_ATOL)
    elif family == "laplacian":
        e = _laplacian(rng, m, -share * _EIGENVALUE_ATOL)
    else:
        p = softmax(Scores(rng.uniform(-5.0, 5.0, m) * 10.0 ** rng.uniform(0.0, 3.0)), 1.0)
        w = p.distribution.weights
        e = (np.diag(w) - np.outer(w, w)) / (t * t)
        if family == "library scaled":
            e[0, 0] += share * _EIGENVALUE_ATOL * max(1.0, float(np.abs(e).max()))
    assert _outcome(_fisher_bytes, e, t) == _outcome(_reference_fisher, e, t)


@pytest.mark.parametrize("m", [1, 2, 16, 300, 1000])
def test_library_fisher_matrices_decide_as_eigvalsh(m, monkeypatch):
    # The library's own matrices certify by Gershgorin's bound, eigvalsh
    # uncalled, and eigvalsh would accept each of them too.
    rng = np.random.default_rng(m)
    eigvalsh = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
    cases = [
        (rng.dirichlet(np.full(m, 0.5)), 0.3),
        (softmax(Scores(rng.uniform(-1e3, 1e3, m)), 0.7).distribution.weights, 1e-3),
        (np.full(m, 1.0 / m), 1e3),
    ]
    built = []
    for w, t in cases:
        p = SimplexDistribution(w / w.sum())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            built.append((fisher_matrix(p, t).entries, t))
    assert not calls
    for e, t in built:
        assert e.tobytes() == _reference_fisher(e, t)
    if m > 1:  # symmetric within the tolerance, not exactly: eigvalsh decides
        e, t = built[0]
        skewed = e.copy()
        skewed[0, 1] = math.nextafter(skewed[0, 1], 1.0)
        calls.clear()
        assert _outcome(_fisher_bytes, skewed, t) == _outcome(_reference_fisher, skewed, t)
        assert len(calls) == 2


def test_solve_result_and_the_matrices_still_check_their_inputs():
    p = SimplexDistribution([0.25, 0.75])
    with pytest.raises(ValueError, match="support_size must count the strictly positive entries"):
        SolveResult(p, None, 1)
    assert SolveResult(p, None, 2).support_size == 2
    with pytest.raises(ValueError, match="Jacobian rows must sum to 0"):
        JacobianMatrix([[1.0, -0.5], [-0.5, 1.0]], 1.0)
    with pytest.raises(ValueError, match="Fisher matrix must be positive semidefinite"):
        FisherMatrix([[-1.0, 1.0], [1.0, -1.0]], 1.0)


@pytest.mark.parametrize("m", [1, 16, 1000, 10**6])
def test_solve_counts_the_support_once(m):
    # support_size comes from ``_result``'s check, over the entries the
    # solver wrote: each closed form's result must be the one the public
    # constructors build, on dense rows and on rows whose weights underflow.
    rng = np.random.default_rng(m)
    x = rng.uniform(-5.0, 5.0, m)
    prior = rng.dirichlet(np.ones(m)) * 0.9 + 0.1 / m
    tiny = rng.dirichlet(np.ones(m))
    tiny[rng.random(m) < 0.3] = 1e-300
    regs = [
        RegularizerSpec.shannon(0.5),
        RegularizerSpec.shannon(1e-3),
        RegularizerSpec.l2(),
        *(RegularizerSpec.tsallis(alpha) for alpha in (1.5, 2.0, 3.0)),
        RegularizerSpec.alibi(1.0, max(1, m // 2), 0.5),
        RegularizerSpec.alibi(2.0, m + 5, 0.01),
        RegularizerSpec.kl_prior(prior / prior.sum(), 0.5),
        RegularizerSpec.kl_prior(tiny / tiny.sum(), 1e-3),
    ]
    dense = set()
    for reg in regs:
        result = solve(Scores(x), reg)
        weights = result.distribution.weights
        public = SolveResult(
            SimplexDistribution(weights), result.potential, int(np.count_nonzero(weights))
        )
        assert public.distribution.weights.tobytes() == weights.tobytes()
        assert (public.potential, public.support_size) == (result.potential, result.support_size)
        dense.add(result.support_size == m)
    assert dense == ({True} if m == 1 else {False, True})


def _reference_exp_cut(x: np.ndarray) -> np.ndarray:
    out = np.exp(x)
    out[x <= solvers._EXP_CUT] = 0.0
    return out


@pytest.mark.parametrize("length", [1, 2, 7, 9, 10, 11, 19, 20, 21, 63, 100, 1001, 4099])
def test_exp_cut_gathered_or_masked_is_the_plain_exp(length):
    # Survivor counts on both sides of the gather share, as one window or
    # scattered, in views at every offset from an 8-entry boundary.
    rng = np.random.default_rng(length)
    crossover = solvers._GATHER_BELOW * length
    counts = {0, 1, length, int(crossover) - 1, int(crossover), math.ceil(crossover), length // 2}
    buffer = np.empty(length + 8)
    for count in sorted(c for c in counts if 0 <= c <= length):
        for layout in ("window", "scattered"):
            x = -746.0 - rng.uniform(0.0, 1e3, length)
            x[rng.random(length) < 0.2] = -np.inf
            alive = (
                np.arange(length) < count
                if layout == "window"
                else rng.permutation(length) < count
            )
            x[alive] = rng.uniform(-745.9, 5.0, count)
            expected = _reference_exp_cut(x)
            for offset in range(8):
                view = buffer[offset : offset + length]
                view[:] = x
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert solvers._exp_cut(view) is view
                assert view.tobytes() == expected.tobytes(), (count, layout, offset)
    for low in (-1000.0, -10000.0):  # rows of a plan: 75% and 7.5% survive
        rows = rng.uniform(low, 0.0, (7, 13))
        assert solvers._exp_cut(rows.copy()).tobytes() == _reference_exp_cut(rows).tobytes()
