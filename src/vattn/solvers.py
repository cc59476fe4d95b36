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
    _check_lengths,
    _check_positive_real,
    _check_positive_distribution,
    _check_query_position,
    _Adopt,
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
# entmax restricts its bisection to candidate entries only while they
# number at least this many (see ``entmax``).
_ENTMAX_CANDIDATE_MIN_KEYS = 128


@dataclass(frozen=True)
class SolveResult:
    """A solved distribution, its dual potential when one exists, and the
    number of strictly positive entries."""

    distribution: SimplexDistribution
    potential: float | None
    support_size: int

    def __post_init__(self):
        if self.support_size != int(np.count_nonzero(self.distribution.weights)):  # w >= 0
            raise ValueError("support_size must count the strictly positive entries")


def _result(weights: np.ndarray, potential: float | None) -> SolveResult:
    dist = SimplexDistribution(_Adopt(weights))
    return SolveResult(dist, potential, int(np.count_nonzero(weights)))


def _shifted_gap(v: np.ndarray, top, t: float) -> np.ndarray:
    # (v - top) / t where the plain expressions would overflow: halving
    # first keeps the difference finite, and an entry whose true value
    # lies below -DBL_MAX comes out -inf, whose exp is exactly 0.
    with np.errstate(over="ignore"):
        return 2.0 * ((0.5 * v - 0.5 * top) / t)


def _softmax_rows(v: np.ndarray, t: float, top, plain: bool) -> np.ndarray:
    """Softmax along the last axis of ``v``, whose max there is ``top`` (a float or an (n, 1)
    column), as a new array: v / t - top / t if ``plain`` (finite), else ``_shifted_gap``."""
    if plain:
        e = v / t
        e -= top / t
    else:
        e = _shifted_gap(v, top, t)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax(s: Scores, temperature: float) -> SolveResult:
    """exp(s_j / tau) / sum_l exp(s_l / tau), computed max-shifted.

    The attached potential is ``lse(s, temperature)``; the distribution is
    the gradient of that potential.  Scores whose quotients by tau, or
    their spread, overflow take an overflow-safe path.
    """
    t = _check_positive_real(temperature)
    v = s.values
    top, bottom = float(v.max()), float(v.min())
    potential = _lse(v, t, top, bottom)  # first, so its buffer is freed first
    return _result(_softmax_rows(v, t, top, math.isfinite(bottom / t - top / t)), potential)


def sparsemax(s: Scores) -> SolveResult:
    """Euclidean projection of the scores onto the simplex.

    Sort-and-threshold: with scores sorted descending, the support is the
    largest k with 1 + k * s_(k) > sum_{r<=k} s_(r), the threshold is
    theta = (sum_{r<=k} s_(r) - 1) / k, and p_j = max(0, s_j - theta).
    Equal scores receive equal mass, so ties need no special handling.
    """
    # The projection is invariant under common shifts; shifting keeps the
    # cumulative sums O(m) so theta stays accurate for large raw scores.
    # Sorting first gives the spread for free; a shift keeps the order.
    u = np.sort(s.values)[::-1]
    top = float(u[0])
    finite = math.isfinite((top - float(u[-1])) * u.size)

    def clipped(x):
        # The shift, the products k * u or the sums would overflow.  theta
        # is at least max(s) - 1, so entries more than 2 below the top get
        # no weight whatever their value: they are clipped to -2, and the
        # halved difference stays finite.
        return 2.0 * np.maximum(0.5 * x - 0.5 * top, -1.0)

    if finite:
        u -= top
    else:
        u = clipped(u)
    cssv = np.cumsum(u)
    u *= np.arange(1, u.size + 1)  # 1 + k * u, in place
    u += 1.0
    rho = int(np.count_nonzero(u > cssv))
    theta = (cssv[rho - 1] - 1.0) / rho
    # Made once theta is known, in the cumulative sums' row and after the
    # sorted row is freed, the weights add no row to the peak.
    del u
    v = np.subtract(s.values, top, out=cssv) if finite else clipped(s.values)
    v -= theta
    return _result(np.maximum(v, 0.0, out=v), None)


def entmax(s: Scores, alpha: float) -> SolveResult:
    """Tsallis-regularized weights p_j = [(alpha-1)(s_j - theta)]_+^(1/(alpha-1)).

    The threshold theta lives in [max(s) - 1/(alpha-1), max(s)], across
    which the total mass falls monotonically from >= 1 to 0.  Bisection
    runs in the variable y = log of the top weight, a monotone
    reparameterization of that bracket: near alpha = 1 the threshold
    itself sits at magnitude 1/(alpha-1) where float spacing alone exceeds
    the mass tolerance, while in y the mass stays resolvable to ~1e-16.
    The search keeps the best step seen and stops once the mass
    residual |sum p - 1| drops below 1e-12.  Interpolates softmax
    (alpha -> 1) and sparsemax (alpha = 2).

    The bisection is replayed after a few regula falsi steps home in on the
    root: a midpoint is evaluated only when no evaluation so far decides it
    (mass <= 1 - 2 tol at or above it, or >= 1 + 2 tol at or below it).  The
    computed mass is monotone in y to far below the tolerance, so the replay
    ends on the plain bisection's bits after ~10 evaluations instead of ~44;
    one that ends above the tolerance runs again as the plain bisection,
    which alone runs below alpha = 1 + 4e-5.

    Each evaluation covers only the *candidates*, the entries positive at
    the y where the set was formed (usually the lowest y evaluated with
    mass >= 1).  Rounding is monotone, so the others are exactly 0.0 at
    every y whose exp value does not exceed that y's; any other y evaluates
    every entry and forms the set anew.  The candidates' weights go into a
    full-length buffer, exact zeros elsewhere, that is summed whole, so
    every mass, decision and weight has the bits of evaluating every entry.
    Rows under ``_ENTMAX_CANDIDATE_MIN_KEYS`` keys evaluate every entry at
    every step: there a step costs numpy's per-call overhead, not per-entry
    work.

    Two fallback stages run only when the bisection ends above the
    tolerance.  The stiff corner of alpha > 2 re-bisects in the weight of
    the last entry to enter the support.  Near alpha = 1 the power
    1/(alpha-1) amplifies the rounding of x, so a last stage bisects y
    again with weights from the log domain,
    log p_j = y + log1p((alpha-1) v_j e^{-(alpha-1) y}) / (alpha-1) for
    v = s - max(s), and p_j = 0 where the log1p argument is <= -1.
    """
    a = _check_alpha(alpha)
    m = len(s)
    if m == 1:
        return _result(np.ones(1), None)
    a1 = a - 1.0
    power = 1.0 / a1
    # The threshold search is shift-equivariant.  A gap or slope past
    # -DBL_MAX is -inf, and its entry's weight exactly 0.
    with np.errstate(over="ignore"):
        v = s.values - s.values.max()
        slope = a1 * v
    total = np.add.reduce

    def weights_at(y: float) -> np.ndarray:
        # x = (alpha-1)(s - theta) with the top entry pinned to exp((alpha-1) y),
        # so the top weight is exactly exp(y) and mass is increasing in y.
        x = np.exp(a1 * y) + slope
        np.maximum(x, 0.0, out=x)
        x **= power  # keeps numpy's fast paths for the square and the root
        return x

    w = held = None  # the weights of the last stage-1 evaluation and its y
    if m < _ENTMAX_CANDIDATE_MIN_KEYS:

        def mass_at(y: float) -> float:
            nonlocal w, held
            w, held = weights_at(y), y
            return float(total(w))

    else:
        keys = slope_keys = None
        e_keys = -np.inf  # exp value at which keys were formed

        def mass_at(y: float) -> float:
            nonlocal w, held, keys, slope_keys, e_keys
            e = np.exp(a1 * y)
            if e <= e_keys:
                x = np.maximum(e + slope_keys, 0.0)
                w[keys] = x**power
                mass = float(total(w))
                if mass >= 1.0 and keys.size >= _ENTMAX_CANDIDATE_MIN_KEYS:
                    # the set shrinks to the entries positive at y
                    inside = (x > 0.0).nonzero()[0]
                    keys, slope_keys, e_keys = keys[inside], slope_keys[inside], e
            else:
                x = e + slope
                np.maximum(x, 0.0, out=x)
                keys = (x > 0.0).nonzero()[0]  # before the power, which can underflow
                slope_keys, e_keys = slope[keys], e
                x **= power
                w, mass = x, float(total(x))
            held = y
            return mass

    def consider(weights, arg: float, mass_at=None) -> float:
        nonlocal best, best_residual
        mass = mass_at(arg) if mass_at else float(total(weights(arg)))
        residual = abs(mass - 1.0)
        if residual < best_residual:
            best, best_residual = (weights, arg), residual
        return mass

    def bisect(weights, lo, hi, mass_at=None, below=-np.inf, above=np.inf):
        # Mass is increasing in the search variable; keeps the best
        # step seen and stops on tolerance or a collapsed bracket; midpoints
        # at or beyond ``below`` and ``above`` are decided unevaluated.
        nonlocal budget
        while budget > 0 and best_residual >= ENTMAX_MASS_ATOL:
            mid = 0.5 * (lo + hi)
            if not (lo < mid < hi):
                break
            budget -= 1
            if mid >= above or (mid > below and consider(weights, mid, mass_at) >= 1.0):
                hi = mid
            else:
                lo = mid
        return lo, hi

    def home(low: float, top: float) -> tuple[float, float]:
        # Up to 12 Anderson-Bjorck regula falsi steps on log(mass), nearly
        # linear in y, then a probe each side of the root (mass ~1 -+ 3 tol).
        # Returns the highest y with mass <= 1 - 2 tol, the lowest >= 1 + 2 tol.
        seen = [(bottom, low), (0.0, top)]
        ends = [[bottom, math.log(low) if low else -math.inf], [0.0, math.log(top)]]
        moved = None  # which end the last step replaced
        for _ in range(12):
            (ya, fa), (yb, fb) = ends
            y = yb - fb * (yb - ya) / (fb - fa)
            if not ya < y < yb:
                break
            seen.append((y, mass_at(y)))
            f = math.log(seen[-1][1]) if seen[-1][1] else -math.inf
            if abs(f) < 1e-9:
                y0, mass0 = seen[-2]
                rate = (f - math.log(mass0)) / (y - y0)
                if rate > 0.0:
                    root, step = y - f / rate, 3.0 * ENTMAX_MASS_ATOL / rate
                    seen += [(p, mass_at(p)) for p in (root - step, root + step)]
                break
            end = int(f > 0.0)
            if end == moved:
                g = 1.0 - f / ends[end][1]
                ends[1 - end][1] *= g if g > 0.0 else 0.5
            ends[end], moved = [y, f], end
        margin = 2.0 * ENTMAX_MASS_ATOL
        below = max((y for y, mass in seen if mass <= 1.0 - margin), default=-np.inf)
        above = min((y for y, mass in seen if mass >= 1.0 + margin), default=np.inf)
        return below, above

    bottom = float(-np.log(m) - 1.0)  # mass(bottom) <= 1/e < 1 <= mass(0)
    # Below alpha - 1 = 4e-5 rounding makes stage 1 fail on most rows (see
    # the log-domain stage), so the plain bisection runs without a replay.
    for replay in (True, False) if a1 > 4e-5 else (False,):
        best, best_residual, budget = None, np.inf, ENTMAX_MAX_BISECTIONS
        top = consider(weights_at, 0.0, mass_at)
        low = consider(weights_at, bottom, mass_at)
        bounds = home(low, top) if replay and best_residual >= ENTMAX_MASS_ATOL else ()
        lo, hi = bisect(weights_at, bottom, 0.0, mass_at, *bounds)
        if best_residual < ENTMAX_MASS_ATOL:
            break

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
        with np.errstate(over="ignore"):
            base = a1 * (v - v[stiff])

        def weights_at_g(g: float) -> np.ndarray:
            x = np.maximum(base + g**a1, 0.0)
            w = x**power
            w[stiff] = g
            return w

        # g = 0 recovers the sub-unit mass of the lower endpoint, so the
        # bracket [0, upper weight] straddles the unit-mass solution.
        consider(weights_at_g, 0.0)
        bisect(weights_at_g, 0.0, float(upper[stiff]))

    if best_residual >= ENTMAX_MASS_ATOL:
        # Near softmax x = e^{(alpha-1) y} + (alpha-1) v carries a relative
        # rounding error of ~1e-16 that the power 1/(alpha-1) multiplies,
        # so below alpha ~ 1 + 3e-5 the mass cannot be resolved to the
        # tolerance; in the log domain the error stays ~1e-16 * |v|.  The
        # same weights also serve rows that neither stage above resolves
        # at a large alpha, such as ties whose x underflows.

        def weights_log(y: float) -> np.ndarray:
            # z = (alpha-1) v e^{-(alpha-1) y}, the log1p argument.  At a
            # large alpha the exp can pass DBL_MAX: z is then -inf under the
            # top score (outside the support) and 0 at it.
            with np.errstate(over="ignore", invalid="ignore"):
                z = slope * np.exp(-a1 * y)
            z[slope == 0.0] = 0.0
            inside = z > -1.0
            w = np.zeros(m)
            w[inside] = np.exp(y + np.log1p(z[inside]) / a1)
            return w

        budget = ENTMAX_MAX_BISECTIONS  # the stages above can spend ~160 steps
        consider(weights_log, 0.0)
        consider(weights_log, bottom)
        bisect(weights_log, bottom, 0.0)

    if best_residual >= ENTMAX_MASS_ATOL:
        raise NumericalFailure(
            f"entmax(alpha={a}) threshold search stalled at mass residual {best_residual:.3e}"
        )
    weights, arg = best
    if weights is weights_at and arg == held:  # usually the last step
        return _result(w, None)
    return _result(weights(arg), None)


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
    penalized = key_distances(i, len(s))
    np.subtract(s.values, np.multiply(penalized, g, out=penalized), out=penalized)
    return softmax(Scores(_Adopt(penalized)), temperature)


def prior_softmax(s: Scores, prior: SimplexDistribution, temperature: float) -> SolveResult:
    """Posterior weights p_j proportional to prior_j * exp(s_j / tau).

    Computed in the log domain as softmax of s_j + tau * log(prior_j): the
    additive log-prior is the multiplicative Bayes update on the evidence
    exp(s_j / tau).  A uniform prior recovers plain softmax.
    """
    t = _check_positive_real(temperature)
    _check_lengths(prior, s, "prior", "scores")
    prior = _check_positive_distribution(prior)
    effective = np.log(prior.weights)
    np.add(np.multiply(effective, t, out=effective), s.values, out=effective)
    return softmax(Scores(_Adopt(effective)), t)


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
        gap = v - top
        gap /= t
    else:
        gap = _shifted_gap(v, top, t)
    return top + t * float(np.log(np.exp(gap, out=gap).sum()))


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
