"""Backward-pass identities and the finite-difference certifications."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import vattn.gradient
from vattn import (
    Scores,
    SimplexDistribution,
    UtilityVector,
    ValueSet,
    advantage_gradient,
    chain_rule_gradient,
    envelope_check,
    finite_difference_gradient,
    finite_difference_hessian,
    fisher_matrix,
    gradcheck_report,
    lse,
    lse_hessian_check,
    marginal_utility,
    natural_gradient_identity_check,
    softmax,
    softmax_jacobian,
)
from vattn.core import NumericalFailure
from vattn.gradient import _weight_covariance


def _sup(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _random_triple(rng):
    m = int(rng.integers(2, 17))
    s = Scores(rng.uniform(-5, 5, m))
    t = float(rng.uniform(0.25, 4.0))
    p = softmax(s, t).distribution
    u = UtilityVector(rng.uniform(-3, 3, m))
    return p, u, t


# ----------------------------------------------------------------- jacobian


def test_jacobian_uniform_two():
    jac = softmax_jacobian(SimplexDistribution([0.5, 0.5]), 1.0)
    assert _sup(jac.entries, [[0.25, -0.25], [-0.25, 0.25]]) < 1e-15


def test_jacobian_saturated_limit():
    eps = 1e-9
    jac = softmax_jacobian(SimplexDistribution([1.0 - eps, eps]), 1.0)
    assert float(np.max(np.abs(jac.entries))) < 10 * eps


def test_jacobian_ones_kernel():
    rng = np.random.default_rng(0)
    for _ in range(100):
        p, _, t = _random_triple(rng)
        jac = softmax_jacobian(p, t)
        assert float(np.max(np.abs(jac.entries @ np.ones(len(p))))) < 1e-12


@pytest.mark.parametrize(
    "p, t",
    [
        (softmax(Scores([1000.0, 0.0, 0.0]), 1.0).distribution, 1.0),  # exactly one-hot
        (softmax(Scores([3.0, 3.0, -900.0, 0.5]), 0.7).distribution, 0.7),
        (SimplexDistribution([1.0, 0.0]), 2.5),
    ],
)
def test_jacobian_and_fisher_accept_saturated_distributions(p, t):
    # diag p - p p^T is defined where softmax underflowed to exact zeros;
    # both matrices once raised "distribution must be strictly positive".
    assert np.any(p.weights == 0.0)
    covariance = _weight_covariance(p.weights)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jac = softmax_jacobian(p, t)
        fim = fisher_matrix(p, t)
    assert jac.entries.tobytes() == (covariance / t).tobytes()
    assert fim.entries.tobytes() == (covariance / (t * t)).tobytes()


def test_jacobian_matches_finite_differences_of_softmax():
    rng = np.random.default_rng(1)
    s = Scores(rng.uniform(-2, 2, 4))
    t = 1.3
    jac = softmax_jacobian(softmax(s, t).distribution, t)
    h = 1e-6
    for j in range(4):
        probe = np.zeros(4)
        probe[j] = h
        hi = softmax(Scores(s.values + probe), t).distribution.weights
        lo = softmax(Scores(s.values - probe), t).distribution.weights
        assert _sup((hi - lo) / (2 * h), jac.entries[:, j]) < 1e-8


# ----------------------------------------------------------- marginal utility


def test_marginal_utility_zero_gradient():
    u = marginal_utility([0.0, 0.0], ValueSet([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(u.values, [0.0, 0.0])


def test_marginal_utility_basis_case():
    u = marginal_utility([-1.0, 0.0], ValueSet([[1.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(u.values, [1.0, 0.0])


def test_marginal_utility_example():
    u = marginal_utility([1.0, -1.0], ValueSet([[2.0, 0.0], [0.0, 3.0]]))
    assert np.array_equal(u.values, [-2.0, 3.0])


def test_marginal_utility_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        marginal_utility([1.0, 2.0, 3.0], ValueSet([[1.0, 0.0], [0.0, 1.0]]))


# ------------------------------------------------------------ advantage form


def test_constant_utilities_give_zero_gradient():
    # dyadic weights sum to exactly 1, so the baseline cancels exactly
    p = SimplexDistribution([0.25, 0.25, 0.5])
    report = advantage_gradient(p, UtilityVector([2.0, 2.0, 2.0]), 1.0)
    assert np.array_equal(report.score_gradient, [0.0, 0.0, 0.0])
    assert report.expected_utility == 2.0


def test_advantage_uniform_example():
    report = advantage_gradient(SimplexDistribution([0.5, 0.5]), UtilityVector([1.0, 0.0]), 1.0)
    assert abs(report.expected_utility - 0.5) < 1e-15
    assert _sup(report.score_gradient, [-0.25, 0.25]) < 1e-15


def test_advantage_skewed_example():
    report = advantage_gradient(SimplexDistribution([0.9, 0.1]), UtilityVector([0.0, 1.0]), 2.0)
    assert abs(report.expected_utility - 0.1) < 1e-15
    assert _sup(report.score_gradient, [0.045, -0.045]) < 1e-15


def test_chain_rule_equals_advantage_form():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        p, u, t = _random_triple(rng)
        report = advantage_gradient(p, u, t)
        assert _sup(report.score_gradient, chain_rule_gradient(p, u, t)) < 1e-12
        assert abs(float(report.score_gradient.sum())) < 1e-10
        assert abs(float(p.weights @ report.advantage)) < 1e-10


def test_chain_rule_degenerate_single_key():
    p = SimplexDistribution([1.0])
    assert np.array_equal(chain_rule_gradient(p, UtilityVector([5.0]), 1.0), [0.0])


def test_advantage_sign_semantics():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p, u, t = _random_triple(rng)
        report = advantage_gradient(p, u, t)
        above = report.advantage > 0.0
        assert np.all(report.score_gradient[above] < 0.0)


# ------------------------------------------------------------------- fisher


def test_fisher_uniform_two():
    fim = fisher_matrix(SimplexDistribution([0.5, 0.5]), 1.0)
    assert _sup(fim.entries, [[0.25, -0.25], [-0.25, 0.25]]) < 1e-15


def test_fisher_is_jacobian_over_temperature():
    rng = np.random.default_rng(4)
    for _ in range(100):
        p, _, t = _random_triple(rng)
        fim = fisher_matrix(p, t)
        jac = softmax_jacobian(p, t)
        assert _sup(fim.entries, jac.entries / t) < 1e-13


def test_fisher_uniform_three_eigenvalues():
    fim = fisher_matrix(SimplexDistribution([1 / 3, 1 / 3, 1 / 3]), 1.0)
    eigenvalues = np.linalg.eigvalsh(fim.entries)
    assert _sup(eigenvalues, [0.0, 1 / 3, 1 / 3]) < 1e-12


def test_fisher_psd_and_kernel():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p, _, t = _random_triple(rng)
        fim = fisher_matrix(p, t)
        assert float(np.linalg.eigvalsh(fim.entries)[0]) >= -1e-10
        assert float(np.max(np.abs(fim.entries @ np.ones(len(p))))) < 1e-12


# ------------------------------------------------------- natural gradient


def test_natural_gradient_identity_random():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        p, u, t = _random_triple(rng)
        assert natural_gradient_identity_check(p, u, t) < 1e-12


def test_natural_gradient_constant_utilities_exact_zero():
    p = SimplexDistribution([0.25, 0.25, 0.5])
    assert natural_gradient_identity_check(p, UtilityVector([3.0, 3.0, 3.0]), 1.0) == 0.0


# -------------------------------------------------------- finite differences


def test_fd_gradient_linear_function():
    c = np.array([1.5, -2.0, 0.25])
    grad = finite_difference_gradient(lambda x: float(c @ x), np.array([0.3, 0.1, -0.7]), 1e-5)
    assert _sup(grad, c) < 1e-10


def test_fd_gradient_quadratic():
    x = np.array([0.5, -1.5, 2.0])
    grad = finite_difference_gradient(lambda v: 0.5 * float(v @ v), x, 1e-5)
    assert _sup(grad, x) < 1e-8


def test_fd_gradient_of_lse_is_softmax():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(-5, 5, 5)
        grad = finite_difference_gradient(lambda v: lse(Scores(v), 1.0), x, 1e-5)
        assert _sup(grad, softmax(Scores(x), 1.0).distribution.weights) < 1e-7


def test_fd_gradient_rejects_bad_step_and_nonfinite():
    with pytest.raises(ValueError):
        finite_difference_gradient(lambda v: 0.0, np.zeros(2), 0.0)
    with pytest.raises(NumericalFailure):
        finite_difference_gradient(lambda v: float("nan"), np.zeros(2), 1e-5)


def test_fd_hessian_of_quadratic():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    hess = finite_difference_hessian(
        lambda v: 0.5 * float(v @ A @ v), np.array([0.2, -0.4]), 1e-4
    )
    assert _sup(hess, A) < 1e-6


# ------------------------------------------------ derivative certifications


def test_lse_hessian_check_random():
    rng = np.random.default_rng(8)
    for _ in range(20):
        s = Scores(rng.uniform(-5, 5, 4))
        assert lse_hessian_check(s, 1.0, 1e-4) < 1e-6


def test_lse_hessian_zero_scores_closed_form():
    m, t = 4, 1.0
    s = Scores(np.zeros(m))
    numeric = finite_difference_hessian(lambda x: lse(Scores(x), t), s.values, 1e-4)
    closed = (np.eye(m) / m - np.ones((m, m)) / m**2) / t
    assert _sup(numeric, closed) < 1e-6


def test_envelope_check_random():
    rng = np.random.default_rng(9)
    for _ in range(20):
        s = Scores(rng.uniform(-5, 5, 5))
        assert envelope_check(s, 0.5, 1e-5) < 1e-7


def test_stencil_checks_at_large_scores_difference_the_shifted_row():
    # Differenced as given, this row read 1.7e-2 and 1.4e-5: round-off of
    # |s| ~ 1e6 over the step, not a wrong derivative.
    row = np.array([1e6, 1e6 + 0.3, 1e6 - 0.5, 1e6 + 1.0])
    shifted = Scores(row - row.max())
    assert lse_hessian_check(Scores(row), 1.0, 1e-4) < 1e-6
    assert envelope_check(Scores(row), 1.0, 1e-5) < 1e-7
    assert lse_hessian_check(Scores(row), 1.0, 1e-4) == lse_hessian_check(shifted, 1.0, 1e-4)
    assert envelope_check(Scores(row), 1.0, 1e-5) == envelope_check(shifted, 1.0, 1e-5)


def test_envelope_constant_scores():
    s = Scores(np.zeros(4))
    grad = finite_difference_gradient(lambda x: lse(Scores(x), 1.0), s.values, 1e-5)
    assert _sup(grad, np.full(4, 0.25)) < 1e-7


# ------------------------------------------------- gradcheck at large scores


def _check_residuals(report):
    return [(c.name, c.residual, c.tolerance, c.passed) for c in report.per_check]


def test_gradcheck_at_large_scores_checks_the_shifted_row():
    # The ulp of |s| ~ 1e6 over the stencil's step once read 2.9e-6,
    # 1.4e-5 and 4.3e-4 against tolerances of 1e-7, 1e-7 and 1e-6.
    row = np.array([1e6, 1e6 + 0.3, 1e6 - 0.5, 1e6 + 1.0])
    u = UtilityVector([0.5, -1.0, 0.25, 2.0])
    report = gradcheck_report(Scores(row), 1.0, utilities=u)
    assert report.cases_passed == report.cases_run == 6
    assert report.max_residual < 1e-8
    shifted = gradcheck_report(Scores(row - row.max()), 1.0, utilities=u)
    assert _check_residuals(report) == _check_residuals(shifted)


@pytest.mark.parametrize("row", [[1e308, -1e308], [1e308, 1e308, -1e308], [-1e300, 1e300, 0.0]])
def test_gradcheck_at_extreme_scores_passes_without_warnings(row):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = gradcheck_report(Scores(row), 0.5)
    assert report.cases_passed == report.cases_run


@pytest.mark.parametrize("t", [1e-160, 1e-310])
def test_backward_forms_at_tiny_temperatures_are_finite_or_rejected(t):
    # A temperature whose reciprocal (or the reciprocal of its square)
    # overflows is rejected by name before anything is divided by it.
    p = softmax(Scores([0.0, 1.0, 0.5]), 1.0).distribution
    u = UtilityVector([1.0, -2.0, 0.5])
    calls = {
        "advantage_gradient": lambda: advantage_gradient(p, u, t).score_gradient,
        "chain_rule_gradient": lambda: chain_rule_gradient(p, u, t),
        "softmax_jacobian": lambda: softmax_jacobian(p, t).entries,
        "fisher_matrix": lambda: fisher_matrix(p, t).entries,
        "natural_gradient_identity_check": lambda: natural_gradient_identity_check(p, u, t),
    }
    rejected = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, call in calls.items():
            try:
                assert np.isfinite(call()).all(), name
            except ValueError as error:
                rejected[name] = str(error)
    too_small = {name for name, message in rejected.items() if f"{t!r} is too small" in message}
    squared = {"fisher_matrix", "natural_gradient_identity_check"}
    assert too_small == (set(calls) if t == 1e-310 else squared)


@pytest.mark.parametrize("t", [1e-2, 1e-4, 1e-6, 1e-10, 1e-20, 1e-100, 1e-150])
def test_backward_types_accept_correct_results_at_small_temperatures(t):
    # The entries grow as 1/t (1/t^2 for the Fisher matrix), and so does the
    # rounding of their sums: the types check them at the entries' scale.
    # Checked against absolute bounds, fisher_matrix at 1e-4,
    # softmax_jacobian at 1e-6 and advantage_gradient at 1e-10 raised.
    p = softmax(Scores([0.0, 1.0, 0.5]), 1.0).distribution
    u = UtilityVector([1.0, -2.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jacobian = softmax_jacobian(p, t).entries
        fisher = fisher_matrix(p, t).entries
        gradient = advantage_gradient(p, u, t).score_gradient
        chain = chain_rule_gradient(p, u, t)
    covariance = _weight_covariance(p.weights)
    assert jacobian.tobytes() == (covariance / t).tobytes()
    assert fisher.tobytes() == (covariance / (t * t)).tobytes()
    assert np.max(np.abs(gradient - chain)) <= 1e-12 * np.max(np.abs(chain))


def test_advantage_gradient_centers_large_utilities():
    # The centering check is measured at the advantages' scale too.
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = softmax(Scores(rng.uniform(-5.0, 5.0, 16)), 1.0).distribution
        u = UtilityVector(rng.uniform(-1.0, 1.0, 16) * 1e8)
        report = advantage_gradient(p, u, 1.0)
        chain = chain_rule_gradient(p, u, 1.0)
        assert np.max(np.abs(report.score_gradient - chain)) <= 1e-12 * np.max(np.abs(chain))


def test_overflowing_backward_products_are_rejected_without_warnings():
    # The product overflows: the validated type rejects it, and numpy's
    # overflow warning does not come first.
    p = softmax(Scores([1.0, 2.0]), 1.0).distribution
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="utilities must be finite"):
            marginal_utility([1e308], ValueSet([[1.0], [2.0]]))
        with pytest.raises(ValueError, match="score_gradient must be finite"):
            advantage_gradient(p, UtilityVector([1e308, -1e308]), 1e-10)


def test_an_overflowing_chain_rule_product_is_rejected_without_warnings():
    # -J^T u overflows where the advantage form rejects too: the same error,
    # and numpy's overflow warning does not come first.
    p = softmax(Scores([1.0, 2.0]), 1.0).distribution
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="score_gradient must be finite"):
            chain_rule_gradient(p, UtilityVector([1e308, -1e308]), 1e-10)


def test_an_overflowing_fisher_product_is_rejected_without_warnings():
    # -tau F u overflows where the advantage form stays finite, at
    # [-3.9e219, 3.9e219]: the identity check rejects the Fisher side, by
    # name, instead of returning an infinite residual.
    p = softmax(Scores([1.0, 2.0]), 1.0).distribution
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="Fisher product -tau F u must be finite"):
            natural_gradient_identity_check(p, UtilityVector([1e120, -1e120]), 1e-100)


@pytest.mark.parametrize(
    "call",
    [
        lambda h: finite_difference_gradient(lambda v: 0.0, np.zeros(2), h),
        lambda h: finite_difference_hessian(lambda v: 0.0, np.zeros(2), h),
        lambda h: lse_hessian_check(Scores([1.0, 2.0]), 1.0, h),
        lambda h: envelope_check(Scores([1.0, 2.0]), 1.0, h),
    ],
    ids=["gradient", "hessian", "lse_hessian_check", "envelope_check"],
)
def test_an_infinite_step_is_rejected_by_name(call):
    # And finite steps whose divisor 2h, h*h or 4h*h overflows or underflows.
    for h in (math.inf, 1e308, 1e200, 1e-170):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="step h must be a positive finite real"):
                call(h)


@pytest.mark.parametrize("t", [5e-8, 1e-11, 1e-100])
def test_gradcheck_rejects_temperatures_it_cannot_certify(t):
    # Below tau = 5e-8 the widened Hessian tolerance reaches 1 (below 1e-11
    # the gradient one too), and any weights in [0, 1] would pass.
    with pytest.raises(ValueError, match="too small for gradcheck"):
        gradcheck_report(Scores([0.0, 1.0, 0.5]), t, utilities=UtilityVector([1.0, -2.0, 0.5]))
    assert gradcheck_report(Scores([0.0, 1.0, 0.5]), 6e-8).passed


# --------------------------------------- one matrix per result, same bits


def test_weight_covariance_has_the_bits_of_diag_minus_outer():
    # Including softmax outputs with underflowed weights, where a -0.0
    # would change the bytes.
    rng = np.random.default_rng(5)
    for m, scale in ((1, 5.0), (16, 5.0), (512, 5.0), (512, 1000.0)):
        w = softmax(Scores(rng.uniform(-scale, scale, m)), 0.7).distribution.weights
        assert _weight_covariance(w).tobytes() == (np.diag(w) - np.outer(w, w)).tobytes()


def test_backward_results_are_read_only_and_still_checked(monkeypatch):
    p = softmax(Scores([0.0, 1.0, 0.5]), 1.0).distribution
    report = advantage_gradient(p, UtilityVector([1.0, -2.0, 0.5]), 1.0)
    results = [softmax_jacobian(p, 0.5).entries, fisher_matrix(p, 0.5).entries]
    for array in results + [report.score_gradient, report.advantage]:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.5
    # The adopted matrices still go through every check of their type.
    skewed = np.array([[0.1, -0.1, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    monkeypatch.setattr(vattn.gradient, "_weight_covariance", lambda w: skewed.copy())
    for call in (softmax_jacobian, fisher_matrix):
        with pytest.raises(ValueError, match="symmetric"):
            call(p, 0.5)


# Peak traced allocation of one call at m = 512, in matrices of 2 MB: the
# result and the symmetry check's difference, which its absolute value
# overwrites.
def test_jacobian_and_fisher_peak_allocation():
    m = 512
    p = softmax(Scores(np.random.default_rng(0).uniform(-5.0, 5.0, m)), 0.7).distribution
    peaks = {}
    for name, call in (("jacobian", softmax_jacobian), ("fisher", fisher_matrix)):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            call(p, 0.7)
            peaks[name] = (tracemalloc.get_traced_memory()[1] - start) / (8 * m * m)
        finally:
            tracemalloc.stop()
    assert all(peak <= 3.0 for peak in peaks.values()), peaks
