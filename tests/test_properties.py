"""Property sweeps over the whole input domain an entry point accepts.

Each case must solve: a simplex output, no warning, and no
``NumericalFailure`` partway through.
"""

import functools
import math
import warnings

import numpy as np
import pytest

from test_solvers import _reference_entmax
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
from vattn import oracle
from vattn.core import SIMPLEX_SUM_ATOL, _row_sums, key_distances, objective_rows, objective_value
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
    alpha=st.one_of(st.sampled_from([1.5, 2.0, 3.0]), st.floats(1.0001, 10.0)),
    scale=st.floats(0.01, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_entmax_returns_the_plain_bisections_bits(m, shape, alpha, scale, seed):
    # Homing in first and replaying the bisection must not change a bit
    # wherever the plain bisection solves.  A dominant score puts the root
    # at y = 0; ties put several entries on one threshold.
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


# The softmax family as it was before entries below exp's underflow cut
# were skipped: every shifted entry exponentiated.  Every entry point
# must keep these bits.
def _guarded_gap(v, top, t):
    with np.errstate(over="ignore"):
        return 2.0 * ((0.5 * v - 0.5 * top) / t)


def _reference_rows(v, t, top, plain):
    if plain:
        e = v / t
        e -= top / t
    else:
        e = _guarded_gap(v, top, t)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _reference_softmax(v, t):
    top, bottom = float(v.max()), float(v.min())
    if math.isfinite((bottom - top) / t):
        gap = v - top
        gap /= t
    else:
        gap = _guarded_gap(v, top, t)
    potential = top + t * float(np.log(np.exp(gap, out=gap).sum()))
    return _reference_rows(v, t, top, math.isfinite(bottom / t - top / t)), potential


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
        objectives = objective_rows(points, s, reg, xlogx=xlogx)
    best = int(np.argmin(objectives))
    kept = oracle._last_grid[1]
    assert kept.points.tobytes() == points.tobytes()
    assert kept.xlogx.tobytes() == xlogx.tobytes()
    assert found.distribution.weights.tobytes() == points[best].tobytes()
    assert found.objective.hex() == float(objectives[best]).hex()
    assert found.iterations == len(points)


@pytest.mark.parametrize("kind", ["shannon", "l2", "tsallis 1.5", "tsallis 2", "tsallis 3"])
def test_grid_search_takes_the_first_of_minima_tied_across_a_chunk_boundary(kind):
    # Under equal scores the two middle points of the m=2 grid, one each
    # side of the first chunk boundary, have the same objective bits.
    resolution = 2 * CHUNK - 1
    s = Scores([1.0, 1.0])
    reg = _grid_regularizer(kind, 2, np.random.default_rng(0))
    points, xlogx = _reference_grid(2, resolution)
    objectives = objective_rows(points, s, reg, xlogx=xlogx)
    assert objectives[CHUNK - 1] == objectives[CHUNK] == objectives.min()
    found = grid_search_simplex(s, reg, resolution)
    assert found.distribution.weights.tobytes() == points[CHUNK - 1].tobytes()
