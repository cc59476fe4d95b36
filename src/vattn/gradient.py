"""Backward-pass identities for softmax attention.

The softmax Jacobian, marginal utilities, the advantage form of the score
gradient, the Fisher information matrix of the weight distribution, and
central-difference checks tying the log-sum-exp potential's derivatives to
all of the above.  These are explicit formulas plus finite differences; no
autodiff is involved anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import solvers
from .core import (
    NumericalFailure,
    Scores,
    SimplexDistribution,
    UtilityVector,
    ValueSet,
    _Adopt,
    _array,
    _check_finite,
    _check_lengths,
    _check_positive_real,
    _distribution,
    _frozen,
    _number,
)

__all__ = [
    "JacobianMatrix",
    "FisherMatrix",
    "GradientReport",
    "softmax_jacobian",
    "marginal_utility",
    "advantage_gradient",
    "chain_rule_gradient",
    "fisher_matrix",
    "natural_gradient_identity_check",
    "lse_hessian_check",
    "envelope_check",
    "finite_difference_gradient",
    "finite_difference_hessian",
]

_MATRIX_ATOL = 1e-12
_EIGENVALUE_ATOL = 1e-10
_GRADIENT_SUM_ATOL = 1e-10
# The derivatives the stencil checks compare are shift-invariant, but the
# stencil's round-off is not (at |s| ~ 1e6, ulp(s) / h exceeds the
# tolerances): scores beyond this magnitude are differenced shifted by
# their maximum, smaller ones (the suites' |s| <= 5 rows) as given.
_SHIFT_ABOVE = 16.0
_DOUBLE_MAX = float(np.finfo(np.float64).max)


def _stencil_scores(s: Scores) -> Scores:
    top = float(s.values.max())
    if max(top, -float(s.values.min())) <= _SHIFT_ABOVE:
        return s
    with np.errstate(over="ignore"):  # a gap past -DBL_MAX has weight 0 either way
        return Scores(np.maximum(s.values - top, -np.finfo(np.float64).max))


def _divisor(temperature, squared: bool = False) -> float:
    """The validated temperature, rejected when the reciprocal of t (or of
    t * t) overflows: the weight covariance, whose entries are at most 1
    in magnitude, is divided by it, and past that point overflows too."""
    t = _check_positive_real(temperature)
    scale = t * t if squared else t
    if not (scale > 0.0 and math.isfinite(1.0 / scale)):
        name = "temperature**2" if squared else "temperature"
        raise ValueError(f"temperature {t!r} is too small: 1 / {name} overflows")
    return t


def _weight_covariance(w: np.ndarray) -> np.ndarray:
    """diag(p) - p p^T, the matrix behind both the Jacobian and the Fisher
    metric; continuous in p, so it extends to saturated (underflowed)
    softmax outputs.  One array, with the bits of 0 - w_i w_j (+0.0, not
    -0.0, at a zero weight) off the diagonal and w_i - w_i^2 on it."""
    covariance = np.multiply.outer(w, w)
    np.subtract(0.0, covariance, out=covariance)
    covariance.flat[:: w.size + 1] += w
    return covariance


def _exceeds(residual: float, atol: float, e: np.ndarray) -> bool:
    # residual > atol * max(1, max |e|): entries and their rounding grow as 1/t or 1/t^2.
    return residual > atol and residual > atol * float(np.abs(e).max())


def _freeze_covariance(
    matrix, name: str, gershgorin: bool = False
) -> tuple[np.ndarray, float, bool]:
    """The checks a Jacobian and a Fisher matrix share: finite, square,
    symmetric, rows summing to 0, a valid temperature.  Stores both frozen
    and returns the entries, the scale M = max(1, max|e|) of their
    tolerances, and, when ``gershgorin`` is set, whether the entries are
    exactly symmetric and Gershgorin's bound certifies them (see
    ``FisherMatrix``).  One pass of |e| serves the finiteness test (its
    maximum.reduce propagates NaN, and a finite largest magnitude makes
    every entry finite), the scale, and Gershgorin's row sums; its buffer
    then holds the asymmetry."""
    e = _array(matrix.entries, name, 2)
    magnitudes = np.abs(e)
    largest = float(np.maximum.reduce(magnitudes, axis=None))
    if not math.isfinite(largest):
        _check_finite(e, name)
    e.flags.writeable = False
    if e.shape[0] != e.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    scale = max(1.0, largest)
    certified = gershgorin and _gershgorin_certifies(e, magnitudes, scale)
    asymmetry = np.subtract(e, e.T, out=magnitudes)
    skew = float(np.maximum.reduce(np.abs(asymmetry, out=asymmetry), axis=None))
    if skew > _MATRIX_ATOL * scale:
        raise ValueError(f"{name} must be symmetric")
    if _largest_sum(e, 1) > _MATRIX_ATOL * scale:
        raise ValueError(f"{name} rows must sum to 0")
    object.__setattr__(matrix, "entries", e)
    object.__setattr__(matrix, "temperature", _check_positive_real(matrix.temperature))
    return e, scale, certified and skew == 0.0


def _largest_sum(e: np.ndarray, axis: int) -> float:
    # max |sum of e along axis|
    sums = np.add.reduce(e, axis=axis)
    return float(np.maximum.reduce(np.abs(sums, out=sums)))


def _gershgorin_certifies(e: np.ndarray, magnitudes: np.ndarray, scale: float) -> bool:
    """Whether min_i (e_ii - sum_{j != i} |e_ij|), computed as
    min_i (e_ii + |e_ii| - sum_j |e_ij|), is at least -A M / 2 (see
    ``FisherMatrix``), given |e| and M; False, undecided, where a row sum
    could overflow."""
    if not scale * e.shape[0] < 0.5 * _DOUBLE_MAX:
        return False
    diagonal = e.diagonal()
    floor = diagonal + np.abs(diagonal)  # 2 e_ii or 0, exactly
    floor -= np.add.reduce(magnitudes, axis=1)
    return float(np.minimum.reduce(floor)) >= -0.5 * _EIGENVALUE_ATOL * scale


@dataclass(frozen=True)
class JacobianMatrix:
    """d p_k / d s_j = (1/tau) p_k (delta_kj - p_j); symmetric, rows and
    columns in the kernel of the ones vector."""

    entries: np.ndarray
    temperature: float

    def __post_init__(self):
        e, scale, _ = _freeze_covariance(self, "Jacobian")
        if _largest_sum(e, 0) > _MATRIX_ATOL * scale:
            raise ValueError("Jacobian columns must sum to 0")


@dataclass(frozen=True)
class FisherMatrix:
    """(1/tau^2)(diag(p) - p p^T): the metric of the softmax statistical
    manifold; positive semidefinite with the ones vector in its kernel.

    Positive semidefinite means that eigvalsh's least eigenvalue is at
    least -A M, A = ``_EIGENVALUE_ATOL``, M = max(1, max|e|).  An exactly
    symmetric matrix (the one eigvalsh reads) is accepted first when
    Gershgorin's bound on its eigenvalues, g = min_i (e_ii - sum_{j != i}
    |e_ij|), computes to at least -A M / 2.  It then passes the eigvalsh
    test too: its rows give ||e||_2 <= ||e||_inf <= (2 + A) M, the computed
    g is within (m + 2) u ||e||_inf of g, and eigvalsh's least eigenvalue
    within p(m) u ||e||_2 of the true one (Weyl's inequality on LAPACK's
    backward error), u = 2^-53.  With p(m) <= m both stay below 5e-13 M at
    m = 1000, far under the other half of the tolerance, 5e-11 M.  On the
    library's own matrices row i's bound is p_i (1 - sum p) / tau^2, about 0.
    """

    entries: np.ndarray
    temperature: float

    def __post_init__(self):
        e, scale, certified = _freeze_covariance(self, "Fisher matrix", gershgorin=True)
        if certified:
            return
        if -float(np.linalg.eigvalsh(e)[0]) > _EIGENVALUE_ATOL * scale:
            raise ValueError("Fisher matrix must be positive semidefinite")


@dataclass(frozen=True)
class GradientReport:
    """Score gradient in advantage form.

    ``advantage[j] = u_j - expected_utility`` and
    ``score_gradient[j] = -(p_j / tau) * advantage[j]``; the gradient
    entries sum to zero because the expected utility acts as a baseline.
    """

    score_gradient: np.ndarray
    advantage: np.ndarray
    expected_utility: float

    def __post_init__(self):
        g = _frozen(self.score_gradient, "score_gradient")
        a = _frozen(self.advantage, "advantage")
        _check_lengths(g, a, "score_gradient", "advantage")
        if _exceeds(abs(float(g.sum())), _GRADIENT_SUM_ATOL, g):
            raise ValueError("score gradient entries must sum to 0")
        expected = float(_number(self.expected_utility, "expected_utility"))
        if not math.isfinite(expected):
            raise ValueError("expected_utility must be finite")
        object.__setattr__(self, "score_gradient", g)
        object.__setattr__(self, "advantage", a)
        object.__setattr__(self, "expected_utility", expected)


def softmax_jacobian(p: SimplexDistribution, temperature: float) -> JacobianMatrix:
    """Jacobian of the softmax map at the distribution it produced, zeros included."""
    t = _divisor(temperature)
    w = _distribution(p).weights
    covariance = _weight_covariance(w)
    covariance /= t
    return JacobianMatrix(_Adopt(covariance), t)


def marginal_utility(context_gradient, values: ValueSet) -> UtilityVector:
    """u_j = -<grad_c L, v_j>: the per-key reward for extra weight.

    ``context_gradient`` is the loss gradient with respect to the mixed
    output vector; its length must match the value dimension.
    """
    g = _frozen(context_gradient, "context gradient")
    _check_lengths(g, values.values.T, "context gradient", "value dimension")
    # A product that overflows comes out inf or nan, which UtilityVector
    # rejects with a ValueError; numpy's warning would only say it first.
    with np.errstate(over="ignore", invalid="ignore"):
        return UtilityVector(-(values.values @ g))


def advantage_gradient(
    p: SimplexDistribution, u: UtilityVector, temperature: float
) -> GradientReport:
    """Score gradient dL/ds_j = -(p_j / tau)(u_j - E_p[u]) in closed form."""
    t = _divisor(temperature)
    _check_lengths(p, u, "distribution", "utilities")
    w = p.weights
    # Entries that overflow come out inf or nan, which GradientReport rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        expected = float(w @ u.values)
        advantage = u.values - expected
        centered = abs(float(w @ advantage))
        gradient = -(w / t) * advantage
    if _exceeds(centered, _GRADIENT_SUM_ATOL, advantage):
        raise NumericalFailure("advantage failed to center under the distribution")
    return GradientReport(_Adopt(gradient), _Adopt(advantage), expected)


def chain_rule_gradient(
    p: SimplexDistribution, u: UtilityVector, temperature: float
) -> np.ndarray:
    """The same score gradient computed the long way, as -J^T u through the
    explicit softmax Jacobian; must agree with ``advantage_gradient`` to
    machine precision, and rejects a product that overflows as it does."""
    t = _divisor(temperature)
    _check_lengths(p, u, "distribution", "utilities")
    jacobian = _weight_covariance(p.weights) / t
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below, not warned
        gradient = -(jacobian.T @ u.values)
    _check_finite(gradient, "score_gradient")
    return gradient


def fisher_matrix(p: SimplexDistribution, temperature: float) -> FisherMatrix:
    """Fisher information of the score-parameterized weights, zeros included."""
    t = _divisor(temperature, squared=True)
    w = _distribution(p).weights
    covariance = _weight_covariance(w)
    covariance /= t * t
    return FisherMatrix(_Adopt(covariance), t)


def natural_gradient_identity_check(
    p: SimplexDistribution, u: UtilityVector, temperature: float
) -> float:
    """Sup-norm residual of grad_s L = -tau * F(s) u.

    The left side comes from the advantage closed form, the right side from
    the Fisher matrix applied to the utilities; the two code paths share
    nothing but p, u, and tau.  A side that overflows is rejected with a
    ``ValueError`` that names it, without a warning.
    """
    t = _divisor(temperature, squared=True)
    lhs = advantage_gradient(p, u, t).score_gradient
    fisher = _weight_covariance(p.weights) / (t * t)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below, not warned
        rhs = -t * (fisher @ u.values)
    _check_finite(rhs, "Fisher product -tau F u")
    return float(np.max(np.abs(lhs - rhs)))


def finite_difference_gradient(
    f: Callable[[np.ndarray], float], x, h: float
) -> np.ndarray:
    """Central differences (f(x + h e_j) - f(x - h e_j)) / 2h per coordinate."""
    h = _check_positive_real(h, "step h")
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty(x.size)
    for j in range(x.size):
        probe = np.zeros(x.size)
        probe[j] = h
        hi = float(f(x + probe))
        lo = float(f(x - probe))
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NumericalFailure(f"function not finite near coordinate {j}")
        grad[j] = (hi - lo) / (2.0 * h)
    return grad


def finite_difference_hessian(
    f: Callable[[np.ndarray], float], x, h: float
) -> np.ndarray:
    """Central second differences; the off-diagonal uses the 4-point stencil."""
    h = _check_positive_real(h, "step h")
    x = np.asarray(x, dtype=np.float64)
    m = x.size
    hess = np.empty((m, m))
    f0 = float(f(x))
    for j in range(m):
        ej = np.zeros(m)
        ej[j] = h
        hess[j, j] = (float(f(x + ej)) - 2.0 * f0 + float(f(x - ej))) / (h * h)
        for k in range(j + 1, m):
            ek = np.zeros(m)
            ek[k] = h
            mixed = (
                float(f(x + ej + ek))
                - float(f(x + ej - ek))
                - float(f(x - ej + ek))
                + float(f(x - ej - ek))
            ) / (4.0 * h * h)
            hess[j, k] = mixed
            hess[k, j] = mixed
    if not np.all(np.isfinite(hess)):
        raise NumericalFailure("function not finite in the stencil neighborhood")
    return hess


def lse_hessian_check(s: Scores, temperature: float, h: float) -> float:
    """Sup-norm distance between the finite-difference Hessian of the
    log-sum-exp potential and tau times the Fisher matrix at softmax(s).

    For smooth regimes the residual is O(h^2); at the default h = 1e-4 it
    sits comfortably below 1e-6, at large scores too (``_stencil_scores``).
    """
    t = _check_positive_real(temperature)
    s = _stencil_scores(s)
    numeric = finite_difference_hessian(lambda x: solvers.lse(Scores(x), t), s.values, h)
    target = _weight_covariance(solvers.softmax(s, t).distribution.weights) / t
    return float(np.max(np.abs(numeric - target)))


def envelope_check(s: Scores, temperature: float, h: float) -> float:
    """Sup-norm distance between the finite-difference gradient of the
    primal value function and the negated softmax distribution.

    The optimal-value landscape has gradient -p*(s); the residual is O(h^2)
    and sits below 1e-7 at the default h = 1e-5, at large scores too.
    """
    t = _check_positive_real(temperature)
    s = _stencil_scores(s)
    numeric = finite_difference_gradient(
        lambda x: solvers.primal_value(Scores(x), t), s.values, h
    )
    target = -solvers.softmax(s, t).distribution.weights
    return float(np.max(np.abs(numeric - target)))
