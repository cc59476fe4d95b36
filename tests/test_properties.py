"""Property sweeps over the whole input domain an entry point accepts.

Each case must solve: a simplex output, no warning, and no
``NumericalFailure`` partway through.
"""

import warnings

import numpy as np
import pytest

from vattn import Scores, entmax
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
