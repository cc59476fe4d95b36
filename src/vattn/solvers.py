"""Closed-form minimizers of -<p, s> + Omega(p) over the probability simplex.

One solver per regularizer kind, plus the log-sum-exp potential whose
gradient is the softmax distribution and the primal value function that
equals its negative.  All exponentials are max-shifted; sparse solvers
report off-support entries as exact 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ALIBI,
    KL_PRIOR,
    L2,
    SHANNON,
    TSALLIS,
    NumericalFailure,
    RegularizerSpec,
    Scores,
    SimplexDistribution,
    _check_alpha,
    _check_gamma,
    _check_positive_real,
    _check_positive_distribution,
    _check_query_position,
    key_distances,
    objective_value,
)

__all__ = [
    "ENTMAX_MASS_ATOL",
    "ENTMAX_MAX_BISECTIONS",
    "SolveResult",
    "softmax",
    "sparsemax",
    "entmax",
    "alibi_softmax",
    "prior_softmax",
    "lse",
    "primal_value",
    "solve",
]

ENTMAX_MASS_ATOL = 1e-12
ENTMAX_MAX_BISECTIONS = 200


@dataclass(frozen=True)
class SolveResult:
    """A solved distribution, its dual potential when one exists, and the
    number of strictly positive entries."""

    distribution: SimplexDistribution
    potential: float | None
    support_size: int

    def __post_init__(self):
        if self.support_size != int(np.count_nonzero(self.distribution.weights > 0.0)):
            raise ValueError("support_size must count the strictly positive entries")


def _result(weights: np.ndarray, potential: float | None) -> SolveResult:
    dist = SimplexDistribution(weights)
    return SolveResult(dist, potential, int(np.count_nonzero(dist.weights > 0.0)))


def _shifted_gap(v: np.ndarray, top: float, t: float) -> np.ndarray:
    # (v - top) / t where the plain expressions would overflow: halving
    # first keeps the difference finite, and an entry whose true value
    # lies below -DBL_MAX comes out -inf, whose exp is exactly 0.
    with np.errstate(over="ignore"):
        return 2.0 * ((0.5 * v - 0.5 * top) / t)


def softmax(s: Scores, temperature: float) -> SolveResult:
    """exp(s_j / tau) / sum_l exp(s_l / tau), computed max-shifted.

    The attached potential is ``lse(s, temperature)``; the distribution is
    the gradient of that potential.  Scores whose quotients by tau, or
    their spread, overflow take an overflow-safe path.
    """
    t = _check_positive_real(temperature)
    v = s.values
    top, bottom = float(v.max()), float(v.min())
    z_top = top / t
    if math.isfinite(bottom / t - z_top):  # s / tau and its max-shift are finite
        e = np.exp(v / t - z_top)
    else:
        e = np.exp(_shifted_gap(v, top, t))
    return _result(e / e.sum(), _lse(v, t, top, bottom))


def sparsemax(s: Scores) -> SolveResult:
    """Euclidean projection of the scores onto the simplex.

    Sort-and-threshold: with scores sorted descending, the support is the
    largest k with 1 + k * s_(k) > sum_{r<=k} s_(r), the threshold is
    theta = (sum_{r<=k} s_(r) - 1) / k, and p_j = max(0, s_j - theta).
    Equal scores receive equal mass, so ties need no special handling.
    """
    # The projection is invariant under common shifts; shifting keeps the
    # cumulative sums O(m) so theta stays accurate for large raw scores.
    v = s.values - s.values.max()
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u)
    k = np.arange(1, u.size + 1)
    rho = int(np.count_nonzero(1.0 + k * u > cssv))
    theta = (cssv[rho - 1] - 1.0) / rho
    return _result(np.maximum(v - theta, 0.0), None)


def entmax(s: Scores, alpha: float) -> SolveResult:
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


def alibi_softmax(
    s: Scores, query_position: int, gamma: float, temperature: float
) -> SolveResult:
    """Softmax over distance-penalized logits s_j - gamma * |i - j|.

    Positions are 1-based and the penalty is symmetric around the query
    position; this solves the entropy objective augmented with a linear
    locality cost.
    """
    i = _check_query_position(query_position)
    g = _check_gamma(gamma)
    penalized = Scores(s.values - g * key_distances(i, len(s)))
    return softmax(penalized, temperature)


def prior_softmax(s: Scores, prior: SimplexDistribution, temperature: float) -> SolveResult:
    """Posterior weights p_j proportional to prior_j * exp(s_j / tau).

    Computed in the log domain as softmax of s_j + tau * log(prior_j): the
    additive log-prior is the multiplicative Bayes update on the evidence
    exp(s_j / tau).  A uniform prior recovers plain softmax.
    """
    t = _check_positive_real(temperature)
    if len(prior) != len(s):
        raise ValueError(f"length mismatch: prior {len(prior)} vs scores {len(s)}")
    prior = _check_positive_distribution(prior)
    effective = Scores(s.values + t * np.log(prior.weights))
    return softmax(effective, t)


def lse(s: Scores, temperature: float) -> float:
    """tau * log sum_l exp(s_l / tau), max-shifted for stability.

    This is the dual potential of the entropy-regularized problem: its
    gradient is the softmax distribution and its value is the negative of
    ``primal_value``.
    """
    t = _check_positive_real(temperature)
    v = s.values
    return _lse(v, t, float(v.max()), float(v.min()))


def _lse(v: np.ndarray, t: float, top: float, bottom: float) -> float:
    if math.isfinite((bottom - top) / t):  # the shifted quotients are finite
        gap = (v - top) / t
    else:
        gap = _shifted_gap(v, top, t)
    return top + t * float(np.log(np.sum(np.exp(gap))))


def primal_value(s: Scores, temperature: float) -> float:
    """Minimum of -<p, s> - tau * H(p) over the simplex.

    Evaluated as the entropy objective at the softmax solution; strong
    duality makes this equal to ``-lse(s, temperature)``.
    """
    dist = softmax(s, temperature).distribution
    return objective_value(dist, s, RegularizerSpec.shannon(temperature))


def solve(s: Scores, reg: RegularizerSpec) -> SolveResult:
    """Dispatch to the closed form matching the regularizer kind."""
    kind = reg.kind
    if kind == SHANNON:
        return softmax(s, reg.temperature)
    if kind == L2:
        return sparsemax(s)
    if kind == TSALLIS:
        return entmax(s, reg.alpha)
    if kind == ALIBI:
        return alibi_softmax(s, reg.query_position, reg.gamma, reg.temperature)
    if kind == KL_PRIOR:
        return prior_softmax(s, reg.prior, reg.temperature)
    raise ValueError(f"unknown regularizer kind {kind!r}")
