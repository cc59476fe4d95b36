"""Property sweeps over the whole input domain an entry point accepts.

Each case must solve: a simplex output, no warning, and no
``NumericalFailure`` partway through.
"""

import warnings

import numpy as np
import pytest

from test_solvers import _reference_entmax
from vattn import NumericalFailure, QueryKeyBatch, Scores, attention_matrix, entmax, softmax
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
