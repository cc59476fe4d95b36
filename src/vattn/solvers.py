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
    _check_simplex,
    _OVERFLOWS,
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
# entmax restricts its bisection to candidate entries on rows of at least
# this many keys (see ``entmax``).
_ENTMAX_CANDIDATE_MIN_KEYS = 128
# sparsemax sorts only its candidates on rows of at least this many keys
# (see ``sparsemax``).  On uniform rows the filter costs what it saves at
# about 1000 keys; at 128 it is 16% slower, at 1500 3-8% and at 2500 15%
# faster than sorting the whole row.
_SPARSEMAX_CANDIDATE_MIN_KEYS = 1024
# exp(x) rounds to exactly +0.0 for every x <= _EXP_CUT: half the smallest
# subnormal is exp(-745.133...).  numpy's exp is slow on such entries.
_EXP_CUT = -746.0
_EPS = float(np.finfo(np.float64).eps)
# ``alibi_softmax`` evaluates only the keys within reach of its query when
# they are at most this share of the row.  Timed raw on a 2-vCPU host at
# m = 1e3 to 1.6e4, the window against the whole row: 15-56% faster at a
# 5% window, -42 to +1% at 20%, -15 to +10% at 50%, -3 to +14% at 80%.
_ALIBI_WINDOW_SHARE = 0.25
_DOUBLE_MAX = float(np.finfo(np.float64).max)


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


def _result(
    weights: np.ndarray, potential: float | None, written: np.ndarray | None = None
) -> SolveResult:
    """The weights, checked as ``SimplexDistribution`` checks them, with their
    potential and support size.  ``written``, when given, holds every entry
    the solver computed (a view into ``weights`` or a copy of those
    entries); every other entry is an exact +0.0 the solver wrote, so the
    check and the count run over ``written`` alone.  A row whose minimum is
    positive needs no count."""
    checked = weights if written is None else written
    low = _check_simplex(checked)
    weights.flags.writeable = False
    distribution = object.__new__(SimplexDistribution)
    object.__setattr__(distribution, "weights", weights)
    result = object.__new__(SolveResult)
    object.__setattr__(result, "distribution", distribution)
    object.__setattr__(result, "potential", potential)
    support = checked.size if low > 0.0 else int(np.count_nonzero(checked))
    object.__setattr__(result, "support_size", support)
    return result


def _shifted_gap(v: np.ndarray, top, t: float) -> np.ndarray:
    # (v - top) / t where the plain expressions would overflow: halving
    # first keeps the difference finite, and an entry whose true value
    # lies below -DBL_MAX comes out -inf, whose exp is exactly 0.
    with np.errstate(over="ignore"):
        return 2.0 * ((0.5 * v - 0.5 * top) / t)


def _exp_cut(x: np.ndarray) -> np.ndarray:
    """exp(x) in place, with entries at or below ``_EXP_CUT`` set to +0.0,
    their exp, without exponentiating them: the exp runs under the mask of
    the entries above the cut, so every entry keeps its bits and its place.
    Gathering few survivors is faster (1e6 keys, 1% above the cut: 1.4 vs
    2.1 ms raw), but the rows that reach the cut keep most keys above it."""
    keep = x > _EXP_CUT
    np.exp(x, out=x, where=keep)
    np.copyto(x, 0.0, where=np.logical_not(keep, out=keep))
    return x


def _shifted_exp(v: np.ndarray, t: float, top, plain: bool, cut: bool) -> np.ndarray:
    """exp(v / t - top / t) along the last axis of ``v``, whose max there is ``top`` (a float or
    an (n, 1) column), as a new array; ``_shifted_gap`` forms the quotients unless ``plain``.
    ``cut`` says that some shifted entry may lie at or below ``_EXP_CUT`` (see ``_exp_cut``)."""
    if plain:
        e = v / t
        e -= top / t
    else:
        e = _shifted_gap(v, top, t)
    if cut:
        return _exp_cut(e)
    return np.exp(e, out=e)


def _row_exp(v: np.ndarray, t: float, top: float) -> np.ndarray:
    # One row's shifted exp; its lowest shifted quotient picks the path.
    low = float(v.min()) / t - top / t
    return _shifted_exp(v, t, top, math.isfinite(low), not low > _EXP_CUT)


def _softmax_rows(v: np.ndarray, t: float) -> np.ndarray:
    """Softmax along each row of the finite matrix ``v`` at a checked tau, each
    row with the bits ``_softmax`` gives it alone.  As in ``_row_exp``, the
    rows whose lowest shifted quotient is finite take the plain path, cut
    when any reaches ``_EXP_CUT``; the others take the guarded path, cut."""
    top, bottom = v.max(axis=1, keepdims=True), v.min(axis=1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):  # guarded rows: NaN, redone below
        low = bottom / t - top / t
        e = _shifted_exp(v, t, top, True, not float(low.min()) > _EXP_CUT)  # NaN: cut
    guarded = ~np.isfinite(low[:, 0])
    if guarded.any():
        e[guarded] = _shifted_exp(v[guarded], t, top[guarded], False, True)
    e /= e.sum(axis=1, keepdims=True)
    return e


def _potential(top: float, t: float, total) -> float:
    # The dual potential of a row whose max is top and whose shifted exps sum to total.
    return top + t * float(np.log(total))


def softmax(s: Scores, temperature: float) -> SolveResult:
    """exp(s_j / tau) / sum_l exp(s_l / tau), computed max-shifted.

    One exp per row: the terms exp(s_j / tau - top / tau), top = max s,
    are summed once; the sum normalizes the weights and gives the potential
    top + tau * log(sum) (``_potential``), whose gradient the weights are.
    The lowest shifted entry, bottom / tau - top / tau, picks the path: an
    overflow-safe one where it is not finite, and entries at or below -746
    get their exp, exactly +0.0, without one where it reaches them.
    """
    return _softmax(s.values, _check_positive_real(temperature))


def _softmax(v: np.ndarray, t: float, kind: str = SHANNON, m: int = 0, lo: int = 0) -> SolveResult:
    # Logits the library made, at a checked tau.  A -inf logit, where the
    # kind's penalty overflowed, takes the guarded path and gets weight 0.
    # Given m > len(v), v holds keys lo, lo + 1, ... of an m-key row whose
    # every other weight is exactly +0.0, and whose shifted exp takes v's path.
    top = float(v.max())
    if top == -math.inf:
        raise ValueError(_OVERFLOWS.format(kind))
    e = written = _row_exp(v, t, top)
    if m > v.size:
        e = np.zeros(m)
        e[lo : lo + v.size] = written
        written = e[lo : lo + v.size]
    total = e.sum()  # the whole row: numpy's pairwise grouping, so the same bits
    written /= total
    return _result(e, _potential(top, t, total), written)


def sparsemax(s: Scores) -> SolveResult:
    """Euclidean projection of the scores onto the simplex.

    Sort-and-threshold: with scores sorted descending, the support is the
    largest k with 1 + k * s_(k) > sum_{r<=k} s_(r), the threshold is
    theta = (sum_{r<=k} s_(r) - 1) / k, and p_j = max(0, s_j - theta).
    Equal scores receive equal mass, so ties need no special handling.

    The sums run over u = s - max(s), whose top entry is 0.  Rows of at
    least ``_SPARSEMAX_CANDIDATE_MIN_KEYS`` keys with a finite spread
    D = max(s) - min(s) sort only their *candidates*: the entries within
    1 + delta of the top, delta = (m^2 + 2m + 2) eps max(D, 1).  No other
    entry can pass the test in floating point.  For a = -u_(k), exactly
    sum_{r<=k} u_(r) - k u_(k) = sum_{r<=k} (u_(r) - u_(k)) >= a, as
    u_(1) = 0, and every |u_(r)|, r <= k, is at most a.  Rounding k u_(k)
    and the + 1, and summing in sequence (error at most gamma_{k-1} k a),
    moves the two sides by at most eps/2 + G a <= eps/2 + G D, with
    G = k (eps + eps^2/4 + gamma_{k-1}) <= (m^2 + m) eps.  So the test
    fails once a >= 1 + eps/2 + G D, which a >= 1 + delta gives with
    (m + 1) eps to spare.  The cut is taken on the raw scores, widened by
    2 eps |max(s)| for its own rounding; that spare covers the rest.  The
    sorted candidates are the sorted row's prefix and the cumulative sum
    is sequential, so the support, theta and every weight keep the bits
    of sorting the whole row.  Weights are computed and written only at
    the candidates, into a row of zeros: every other entry lies more than
    1 + delta below the top, and theta >= max(s) - 1, so its
    s - max(s) - theta is negative and the full row's max with 0 gives it
    the same +0.0.
    """
    # The projection is invariant under common shifts; shifting keeps the
    # cumulative sums O(m) so theta stays accurate for large raw scores.
    v = s.values
    m = v.size
    keys = None
    if m < _SPARSEMAX_CANDIDATE_MIN_KEYS:
        # Sorting first gives the spread for free; a shift keeps the order.
        u = np.sort(v)[::-1]
        top, bottom = float(u[0]), float(u[-1])
        finite = math.isfinite((top - bottom) * m)
    else:
        top, bottom = float(v.max()), float(v.min())
        finite = math.isfinite((top - bottom) * m)
        if finite:
            delta = (m * m + 2 * m + 2) * _EPS * max(top - bottom, 1.0)
            keys = (v >= top - (1.0 + delta + 2.0 * _EPS * abs(top))).nonzero()[0]
            v = v[keys]
        u = np.sort(v)[::-1]

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
    if keys is None:
        v = s.values - top if finite else clipped(s.values)
    else:
        v -= top  # the candidates, gathered: a copy
    v -= theta
    return _sparse_result(m, keys, np.maximum(v, 0.0, out=v))


def _sparse_result(m: int, keys: np.ndarray | None, weights: np.ndarray) -> SolveResult:
    """The result whose weights are ``weights`` if ``keys`` is None, else a
    row of m exact zeros that holds them at ``keys``, checked over
    ``weights`` alone."""
    if keys is None:
        return _result(weights, None)
    row = np.zeros(m)
    row[keys] = weights
    return _result(row, None, weights)


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
    ends on the plain bisection's bits after ~10 evaluations instead of ~44.
    A midpoint is settled unevaluated only where its residual is >= 2 tol,
    so a replay that ends above the tolerance leaves the plain bisection's
    bracket and budget to the stages below.

    Each evaluation covers only the *candidates*, the entries positive at
    y = 0, the top of the bracket, where exp((alpha-1) y) is 1.  Every
    evaluation lies at y <= 0, where that exp value is at most 1, and
    rounding is monotone, so every other entry is exactly 0.0 there.  The
    candidates' weights go into a full-length buffer, exact zeros
    elsewhere, that is summed whole, so every mass, decision and weight has
    the bits of evaluating every entry.  The stiff corner below reads its
    upper weights from the same buffer.  Rows under
    ``_ENTMAX_CANDIDATE_MIN_KEYS`` keys evaluate every entry at every step:
    there a step costs numpy's per-call overhead, not per-entry work.

    Two fallback stages run only when the bisection ends above the
    tolerance.  The stiff corner of alpha > 2 re-bisects in the weight of
    the last entry to enter the support.  Near alpha = 1 the power
    1/(alpha-1) amplifies the rounding of x, so a last stage bisects y
    again with weights from the log domain,
    log p_j = y + log1p((alpha-1) v_j e^{-(alpha-1) y}) / (alpha-1) for
    v = s - max(s), and p_j = 0 where the log1p argument is <= -1.

    At alpha = 1.5 none of the above runs: the threshold has an exact
    sort-based form (Peters, Niculae and Martins 2019).  In half units
    x = (s - max(s)) / 2 and tau = theta / 2 the weights are
    p_j = (x_j - tau)_+^2.  With x sorted descending, x_(k) is in the
    support exactly when the top k entries' mass at threshold x_(k),
    f(k) = sum_{i<=k} (x_(i) - x_(k))^2, is below 1; f grows with k, so
    the support is the first rho = #{k : f(k) < 1} entries, and there
    sum_{i<=rho} (x_(i) - tau)^2 = 1 gives
    tau = mu - sqrt((1 - q) / rho), with mu the support's mean and q its
    sum of squared deviations (1 - q >= 1 / rho, so no cancellation).
    f is accumulated from nonnegative terms only:
    f(k+1) = f(k) + d_k (g(k) + g(k+1)), g(k+1) = g(k) + k d_k, with
    d_k = x_(k) - x_(k+1) >= 0; mu and q are recomputed in two passes of
    pairwise sums, as a one-pass variance misses the mass tolerance on
    long plateaus.

    The top weight is at most 1, so tau >= -1, and only the candidates,
    the x > -1, are sorted.  When more than K = 1024 candidates remain,
    tau >= x_(K) - 1/sqrt(K) too, since K entries all above that bound
    would carry mass above K (1/sqrt(K))^2 = 1, and the candidates shrink
    to the entries above it.  Both cuts are widened by 4 eps for their own
    rounding: x and x_(K) are each within eps/2 of their exact values
    (halving is exact and |x| <= 1.1 there), 1/sqrt(K) = 1/32 is exact, and
    the two subtractions that form a cut round by at most 0.6 eps each,
    2.2 eps in all.  So every entry whose exact weight is positive is a
    candidate.  Weights are computed and written only at the candidates,
    into exact zeros.
    """
    a = _check_alpha(alpha)
    if a == 1.5:
        return _entmax15(s.values)
    m = len(s)
    a1 = a - 1.0
    power = 1.0 / a1
    # The threshold search is shift-equivariant.  A gap or slope past
    # -DBL_MAX is -inf, and its entry's weight exactly 0.
    with np.errstate(over="ignore"):
        slope = s.values - s.values.max()
        slope *= a1
    total = np.add.reduce

    # At m >= 128 stage 1 evaluates only the candidates, 1 + slope > 0
    # exactly where slope > -1 (near -1 the sum is exact), into a buffer of
    # exact zeros; w is the weights of the last evaluation and held its y.
    w, held = (None if m < _ENTMAX_CANDIDATE_MIN_KEYS else np.zeros(m)), None
    keys = None if w is None else (slope > -1.0).nonzero()[0]
    slope_keys = slope if keys is None else slope[keys]

    def weights_at(y: float) -> np.ndarray:
        # x = (alpha-1)(s - theta) with the top entry pinned to exp((alpha-1) y),
        # so the top weight is exactly exp(y) and mass is increasing in y.
        nonlocal w, held
        x = np.exp(a1 * y) + slope_keys
        np.maximum(x, 0.0, out=x)
        if power != 1.0:  # at alpha 2 the power is the identity
            x **= power  # keeps numpy's fast paths for the square and the root
        if keys is None:
            w = x
        else:
            w[keys] = x
        held = y
        return w

    def consider(weights, arg: float) -> float:
        nonlocal best, best_residual
        mass = float(total(weights(arg)))
        residual = abs(mass - 1.0)
        if residual < best_residual:
            best, best_residual = (weights, arg), residual
        return mass

    def bisect(weights, lo, hi, below=-np.inf, above=np.inf):
        # Mass is increasing in the search variable; keeps the best
        # step seen and stops on tolerance or a collapsed bracket; midpoints
        # at or beyond ``below`` and ``above`` are decided unevaluated.
        nonlocal budget
        while budget > 0 and best_residual >= ENTMAX_MASS_ATOL:
            mid = 0.5 * (lo + hi)
            if not (lo < mid < hi):
                break
            budget -= 1
            if mid >= above or (mid > below and consider(weights, mid) >= 1.0):
                hi = mid
            else:
                lo = mid
        return lo, hi

    def home(low: float, top: float) -> tuple[float, float]:
        # Up to 12 Anderson-Bjorck regula falsi steps on log(mass), nearly
        # linear in y, then a probe each side of the root (mass ~1 -+ 3 tol).
        # Returns the highest y with mass <= 1 - 2 tol, the lowest >= 1 + 2 tol.
        # Its evaluations only settle midpoints: one that became best would
        # change the bits.
        def mass_at(y: float) -> float:
            return float(total(weights_at(y)))

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
                    # Above 0, where the candidates end, mass >= top >= 1:
                    # (0, top) is seen already, and such a probe decides nothing.
                    seen += [(p, mass_at(p)) for p in (root - step, root + step) if p < 0.0]
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
    best, best_residual, budget = None, np.inf, ENTMAX_MAX_BISECTIONS
    top = consider(weights_at, 0.0)
    low = consider(weights_at, bottom)
    replay = home(low, top) if best_residual >= ENTMAX_MASS_ATOL else ()
    _, hi = bisect(weights_at, bottom, 0.0, *replay)

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
            v = s.values - s.values.max()
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
    return _result(w if weights is weights_at and arg == held else weights(arg), None)


def _entmax15(v: np.ndarray) -> SolveResult:
    # Entmax at alpha 1.5 by sorting (see ``entmax``).
    x = v * 0.5  # exact, so x - top / 2 rounds (s - max(s)) / 2 once
    x -= 0.5 * float(v.max())
    margin = 4.0 * _EPS  # for the cuts' own rounding
    keys = (x > -1.0 - margin).nonzero()[0]
    x = x[keys]
    rank = 1024  # K: a power of 4, so that 1 / sqrt(K) is exact
    if x.size > rank:
        kth = float(np.partition(x, x.size - rank)[x.size - rank])
        keep = (x > kth - 1.0 / math.sqrt(rank) - margin).nonzero()[0]
        keys, x = keys[keep], x[keep]
    z = np.sort(x)[::-1]
    d = z[:-1] - z[1:]
    g = np.arange(1.0, z.size)
    g *= d
    np.cumsum(g, out=g)  # g(k + 1)
    f = d * g
    f[1:] += d[1:] * g[:-1]
    np.cumsum(f, out=f)  # f(k + 1)
    rho = 1 + int(np.count_nonzero(f < 1.0))
    support = z[:rho]
    mu = float(support.sum()) / rho
    deviation = support - mu
    deviation *= deviation
    tau = mu - math.sqrt((1.0 - float(deviation.sum())) / rho)
    x -= tau
    np.maximum(x, 0.0, out=x)
    x *= x
    return _sparse_result(v.size, keys, x)


def alibi_softmax(
    s: Scores, query_position: int, gamma: float, temperature: float
) -> SolveResult:
    """Softmax over distance-penalized logits s_j - gamma * |i - j|.

    Positions are 1-based and the penalty is symmetric around the query
    position; this solves the entropy objective augmented with a linear
    locality cost.  The penalized logit decides: a key whose logit
    overflows to -inf, through gamma * |i - j| or the subtraction, gets
    weight exactly 0, and a ``ValueError`` is raised when every key's does.

    At long context the penalty pushes almost every shifted logit below
    -746, where the weight is exactly +0.0, and only the keys within reach
    of the query are evaluated.  Let v_j = fl(s_j - fl(gamma d_j)) be the
    computed logits, d_j = |i - j|, top their max, j0 = min(i, m) the key
    nearest the query and B = max|s| + gamma max_j d_j.  With B and B / tau
    below DBL_MAX / 8 every logit, every quotient v_j / tau and top / tau,
    and the lowest shifted logit are finite, so the whole row would take
    the plain path, q_j = fl(fl(v_j / tau) - fl(top / tau)).  With
    u = 2^-53, each rounding errs by at most u times its result (plus
    2^-1075 for an underflowed quotient), and top >= v_j0, so
    q_j tau <= max(s) - v_j0 - gamma d_j + 4 u B (1 + 4u) + 2^-1074 tau.
    Hence every key with gamma d_j > R = (max(s) - v_j0 + 746 tau)(1 + 8 eps)
    + 16 eps B has q_j <= -746 (rounding is monotone and -746 is a
    double), and its weight is +0.0 on the full row.  Its q_j is not 0, so
    it does not hold top: the keys with d_j <= R / gamma, a window around
    the query that always holds j0, hold the row's max.  The window's own
    logits, quotients, exp and cut are the full row's entry for entry; its
    weights are written into a row of m exact zeros, which is summed whole,
    so the normalizer, the potential and every weight keep the bits of
    evaluating every key.  R, R / gamma and B are formed with their own
    rounding inside the margins.  Where gamma max_j d_j <= 746 tau no key can
    lie beyond reach and no bound is formed; where a bound fails, where the
    window would hold more than a quarter of the keys (the keys within
    746 tau / gamma of the query, inside it, are counted before any pass),
    or where the query lies past 2^53, where distances round, every key is
    evaluated.
    """
    i = _check_query_position(query_position)
    g = _check_gamma(gamma)
    t = _check_positive_real(temperature)
    lo, hi = _alibi_window(s.values, i, g, t)
    penalized = key_distances(i - lo, hi - lo)  # |i - j| for keys lo + 1 .. hi
    with np.errstate(over="ignore"):  # an overflowing penalty: a logit of -inf
        np.subtract(s.values[lo:hi], np.multiply(penalized, g, out=penalized), out=penalized)
    return _softmax(penalized, t, ALIBI, len(s), lo)


def _alibi_window(v: np.ndarray, i: int, g: float, t: float) -> tuple[int, int]:
    # The keys lo + 1 .. hi (1-based) outside which every weight is exactly
    # +0.0, as bounded in ``alibi_softmax``; all m keys where no bound holds
    # or the window would hold more than ``_ALIBI_WINDOW_SHARE`` of them.
    m = v.size
    far = max(i - 1, m - i)
    if i > 2**53 or not g * far > -_EXP_CUT * t:
        return 0, m
    # The keys within 746 tau / gamma of the query lie inside the window.
    if _keys_within(i, m, far, -_EXP_CUT * t / g) == (0, m):
        return 0, m
    high = float(np.maximum.reduce(v))
    j0 = min(i, m)
    nearest = float(v[j0 - 1]) - g * float(i - j0)  # v_j0, as the full row forms it
    bound = max(high, -float(np.minimum.reduce(v))) + g * far
    if not (bound <= 0.125 * _DOUBLE_MAX and bound / t <= 0.125 * _DOUBLE_MAX):
        return 0, m
    reach = ((high - nearest) - _EXP_CUT * t) * (1.0 + 8.0 * _EPS) + 16.0 * _EPS * bound
    return _keys_within(i, m, far, reach / g * (1.0 + 4.0 * _EPS))


def _keys_within(i: int, m: int, far: int, radius: float) -> tuple[int, int]:
    # The keys j with |i - j| <= radius, and key min(i, m), as lo + 1 .. hi;
    # all m keys where those are more than ``_ALIBI_WINDOW_SHARE`` of them.
    if radius < far:
        r = int(radius)
        lo, hi = min(max(0, i - 1 - r), m - 1), min(m, i + r)
        if hi - lo <= _ALIBI_WINDOW_SHARE * m:
            return lo, hi
    return 0, m


def prior_softmax(s: Scores, prior: SimplexDistribution, temperature: float) -> SolveResult:
    """Posterior weights p_j proportional to prior_j * exp(s_j / tau).

    Computed in the log domain as softmax of s_j + tau * log(prior_j): the
    additive log-prior is the multiplicative Bayes update on the evidence
    exp(s_j / tau).  A uniform prior recovers plain softmax.  A logit that
    overflows to -inf, through tau * log(prior_j) or the sum, is weighed as
    in ``alibi_softmax``.
    """
    t = _check_positive_real(temperature)
    _check_lengths(prior, s, "prior", "scores")
    prior = _check_positive_distribution(prior)
    effective = np.log(prior.weights)
    with np.errstate(over="ignore"):  # an overflowing penalty: a logit of -inf
        np.add(np.multiply(effective, t, out=effective), s.values, out=effective)
    return _softmax(effective, t, KL_PRIOR)


def lse(s: Scores, temperature: float) -> float:
    """tau * log sum_l exp(s_l / tau), max-shifted for stability.

    This is the dual potential of the entropy-regularized problem: its
    gradient is the softmax distribution and its value is the negative of
    ``primal_value``.  It is top + tau * log of ``softmax``'s normalizer,
    formed on the same path (``_row_exp``, ``_potential``), so it equals
    ``softmax(s, temperature).potential`` bit for bit.
    """
    t = _check_positive_real(temperature)
    top = float(s.values.max())
    return _potential(top, t, _row_exp(s.values, t, top).sum())


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
