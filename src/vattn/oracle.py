"""Independent minimizers for the same simplex-constrained objectives.

These certify the closed-form solvers without trusting the formulas under
test: multiplicative-weights descent (exponentiated gradient) for the
entropy-family regularizers whose optima are interior, projected gradient
for the L2/Tsallis family whose optima touch the boundary, and an
exhaustive barycentric grid for m <= 3.  The numerical Fenchel conjugate
is built on the same iterative machinery.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

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
    _KINDS,
    _OVERFLOWS,
    _TSALLIS_EXPM1_BELOW,
    _check_count,
    _check_lengths,
    _check_positive_real,
    _omega_rows,
    _tsallis_terms,
    _xlogx,
    key_distances,
)

__all__ = [
    "EXPONENTIATED_GRADIENT",
    "PROJECTED_GRADIENT",
    "SolverConfig",
    "OracleResult",
    "default_config",
    "minimize_on_simplex",
    "grid_search_simplex",
    "fenchel_conjugate",
]

EXPONENTIATED_GRADIENT = "exponentiated-gradient"
PROJECTED_GRADIENT = "projected-gradient"
_METHODS = (EXPONENTIATED_GRADIENT, PROJECTED_GRADIENT)

# Below this step size backtracking has hit float resolution and the
# iterate cannot move any further.
_MIN_STEP = 1e-30


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget, sup-norm stopping tolerance, initial step, method."""

    max_iterations: int = 50000
    tolerance: float = 1e-12
    step_size: float = 0.1
    method: str = EXPONENTIATED_GRADIENT

    def __post_init__(self):
        iterations = _check_count(self.max_iterations, "max_iterations", 1)
        object.__setattr__(self, "max_iterations", iterations)
        for name in ("tolerance", "step_size"):
            object.__setattr__(self, name, _check_positive_real(getattr(self, name), name))
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class OracleResult:
    """Final iterate, the best objective value reached, and how the search
    ended.

    ``objective_trace`` records the best value seen after each accepted
    step, so the monotone-descent property of backtracking is checkable.
    """

    distribution: SimplexDistribution
    objective: float
    iterations: int
    converged: bool
    objective_trace: tuple[float, ...] = ()


# Below this alpha projected gradient on tsallis can end off entmax's answer:
# on 10 rows of U(-5, 5) scores, m 2 to 40, by 2.5e-3 at 1.3, 3.0e-6 at 1.35
# and 8.0e-7 at 1.38; exponentiated gradient, by at most 7.2e-9 from 1 + 1e-9 to 1.4.
_TSALLIS_PROJECTED_FROM = 1.5


def default_config(reg: RegularizerSpec) -> SolverConfig:
    """Exponentiated gradient for the entropy family (its multiplicative
    iterates stay interior, where those objectives' gradients blow up at
    the boundary) and for tsallis below alpha 1.5, which nears softmax;
    projected gradient for L2 and the sparser tsallis, whose optima are
    sparse."""
    multiplicative = _KINDS[reg.kind].entropic or (
        reg.kind == TSALLIS and reg.alpha < _TSALLIS_PROJECTED_FROM
    )
    return SolverConfig(method=EXPONENTIATED_GRADIENT if multiplicative else PROJECTED_GRADIENT)


def _nonzero(w: np.ndarray) -> np.ndarray:
    # An exact zero only appears when a multiplicative step underflows; it
    # is replaced by 1 so its log is 0 rather than -inf.
    return w if np.count_nonzero(w) == w.size else np.where(w > 0.0, w, 1.0)


def _log(w: np.ndarray) -> np.ndarray:
    """log w for the objective and gradient, with 0 at exact zeros."""
    return np.log(_nonzero(w))


class _Ragged:
    """Rows of mixed length laid end to end in flat arrays, sorted by
    length, so the rows of each length are one contiguous ``(rows, m)``
    block of every flat array.

    Elementwise work takes the flat arrays whole, and the exact per-row
    reductions (max, count) take one ``reduceat``.  Sums, sorts and
    cumulative sums, whose results depend on how a row is traversed, run
    on each block's view, so every row gets the bits it gets alone.
    """

    def __init__(self, lengths: np.ndarray):
        self.lengths = lengths
        self.ends = np.cumsum(lengths)
        self.starts = self.ends - lengths
        offsets = [0, *self.ends.tolist()]
        self.size = offsets[-1]
        edges = [0, *((lengths[1:] != lengths[:-1]).nonzero()[0] + 1).tolist(), len(lengths)]
        self.blocks = [
            (offsets[a], offsets[b], offsets[a + 1] - offsets[a]) for a, b in zip(edges, edges[1:])
        ]
        # The rows' length when they share one: per-row values then meet
        # a (rows, m) view as a column, which costs less than repeating them.
        self.width = self.blocks[0][2] if len(self.blocks) == 1 else 0
        self.shape = (-1, self.width) if self.width else (-1,)
        self._ranks = None
        self._terms = None

    def column(self, values: np.ndarray) -> np.ndarray:
        """One value per row, laid out to meet ``a.reshape(shape)``."""
        return values[:, np.newaxis] if self.width else np.repeat(values, self.lengths)

    def spread(self, values) -> np.ndarray:
        """One value per row, repeated over the row's entries."""
        return np.repeat(np.asarray(values, dtype=float), self.lengths)

    def max(self, a: np.ndarray) -> np.ndarray:
        """Each row's largest entry."""
        return np.maximum.reduceat(a, self.starts)

    def total(self, view: np.ndarray) -> np.ndarray:
        """Each row's sum, laid out to meet ``view = a.reshape(shape)``.
        numpy sums a row pairwise, and reduceat in sequence, which rounds
        differently: so one sum per block."""
        if self.width:
            return np.add.reduce(view, axis=1, keepdims=True)
        sums = [np.add.reduce(view[lo:hi].reshape(-1, m), axis=1) for lo, hi, m in self.blocks]
        return np.repeat(np.concatenate(sums), self.lengths)

    def sorted_sums(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row sorted ascending, and the sums of its largest 1, 2, ...
        entries, stored from the row's end."""
        u = v.copy()
        cssv = np.empty_like(v)
        for lo, hi, m in self.blocks:
            block = u[lo:hi].reshape(-1, m)
            block.sort()
            np.add.accumulate(block[:, ::-1], axis=1, out=cssv[lo:hi].reshape(-1, m)[:, ::-1])
        return u, cssv

    def ranks(self) -> np.ndarray:
        """m, m-1, ..., 1 along each row, as doubles."""
        if self._ranks is None:
            self._ranks = (np.repeat(self.ends, self.lengths) - np.arange(self.size)).astype(float)
        return self._ranks

    def take(self, positions: np.ndarray) -> tuple[_Ragged, np.ndarray]:
        """The layout of the rows at increasing ``positions``, and the flat
        index of their entries."""
        lengths = self.lengths[positions]
        sub = _Ragged(lengths)
        return sub, _runs(self.starts[positions] - sub.starts, lengths, sub.size)

    def fsum(self, *terms: np.ndarray) -> list[float]:
        """Exactly-rounded sum of each row's terms, taken as one list per
        row: the row's entries of the first term, then of the next.  Step
        acceptance near the optimum compares objective values whose true
        differences sit far below the noise of a naive left-to-right
        accumulation, and every spurious rejection raises the solver's
        error floor.  ``math.fsum`` sums every row unless it raises on one;
        then each row is ``_exact_sum``'s."""
        if self._terms is None:
            # The gather that brings each row's entries of every term
            # together, row after row, and each row's slice of the result.
            count = len(terms)
            lengths = np.repeat(self.lengths, count)
            sources = (self.starts[:, np.newaxis] + self.size * np.arange(count)).ravel()
            gather = _runs(sources - (np.cumsum(lengths) - lengths), lengths, count * self.size)
            bounds = (count * self.starts).tolist(), (count * self.ends).tolist()
            self._terms = gather, list(map(slice, *bounds))
        gather, slices = self._terms
        flat = np.concatenate(terms)[gather].tolist()
        try:
            return list(map(math.fsum, map(flat.__getitem__, slices)))
        except (OverflowError, ValueError):
            return list(map(_exact_sum, map(flat.__getitem__, slices)))


def _exact_sum(terms: list[float]) -> float:
    """``math.fsum(terms)``, or where fsum raises, the sum it stands for.
    fsum raises when its finite partial sums overflow, even where the exact
    sum is finite or an infinite term settles it, and on +inf beside -inf.
    Then the non-finite terms' plain sum is the row's (+-inf, or NaN), and
    with none the finite terms' exact sum is rounded once, to +-inf past
    the double range."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        pass
    special = [x for x in terms if not math.isfinite(x)]
    if special:
        return sum(special)
    from fractions import Fraction  # rarely needed, and slow to import

    total = sum(map(Fraction, terms))
    try:
        return float(total)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def _runs(shifts: np.ndarray, lengths: np.ndarray, size: int) -> np.ndarray:
    # The flat index of consecutive runs: run i has lengths[i] entries and
    # reads its first one shifts[i] past where that entry lands.
    return np.arange(size) + np.repeat(shifts, lengths)


def _const(value: float) -> np.ndarray:
    # A per-solve constant as a read-only 0-d array: numpy applies it to an
    # array faster than a Python float it must convert first, with the same
    # bits.
    constant = np.array(float(value))
    constant.flags.writeable = False
    return constant


_ONE = _const(1.0)
_ZERO = _const(0.0)


def _descent_terms(regs: list[RegularizerSpec], rows: _Ragged):
    """The objective and its gradient for the rows of ``rows``, row ``i``
    under ``regs[i]`` (one kind, and for tsallis one alpha), every
    per-solve invariant computed once.

    Returns ``(objective, gradient, columns)``.  ``columns`` holds each
    row's own parameters over its entries, as flat arrays: tau, gamma, the
    key distances and gamma*d (alibi), the prior and its log (kl_prior).
    ``objective(w, given, rows)`` returns one value per row of ``w``, laid
    out as ``rows``, and, for the entropic kinds, ``_log(w)``, which
    ``gradient(w, log_w, given)`` and the multiplicative step reuse once
    ``w`` is accepted; ``given`` is ``(neg_s, *columns)`` for the same
    rows of ``w``, ``neg_s`` their negated scores.  Every expression is
    elementwise or per row and evaluated in one fixed order, so each row's
    iterates are reproducible bit for bit whatever rows, or parameters, it
    shares the arrays with.
    """
    reg = regs[0]
    kind = reg.kind
    columns = ()
    if kind == L2:
        half = _const(0.5)

        def objective(w, given, rows):
            return rows.fsum(w * given[0], half * w * w), None

        def gradient(w, log_w, given):
            return given[0] + w

    elif kind == TSALLIS:
        # The exponents stay Python floats: numpy takes its fast paths
        # (w**2.0 as w*w, w**0.5 as sqrt) on those alone.
        a = reg.alpha
        a1 = a - 1.0
        scale = _const(a * a1)

        def objective(w, given, rows):
            return rows.fsum(w * given[0], _tsallis_terms(w, a) / scale), None

        if a < _TSALLIS_EXPM1_BELOW:
            # (a w^(a-1) - 1) / (a (a-1)) cancels near alpha = 1; this form
            # does not, and at w = 0 expm1(-inf) = -1 gives it exactly.
            inverse = _const(1.0 / a)

            def gradient(w, log_w, given):
                with np.errstate(divide="ignore"):
                    log_w = np.log(w)
                return given[0] + (np.expm1(a1 * log_w) / a1 + inverse)

        else:
            factor = _const(a)

            def gradient(w, log_w, given):
                return given[0] + (factor * w**a1 - _ONE) / scale

    elif kind == SHANNON:
        columns = (rows.spread([r.temperature for r in regs]),)

        def objective(w, given, rows):
            neg_s, tau = given
            log_w = _log(w)
            return rows.fsum(w * neg_s, tau * (w * log_w)), log_w

        def gradient(w, log_w, given):
            neg_s, tau = given
            return neg_s + tau * (log_w + _ONE)

    elif kind == ALIBI:
        gamma = rows.spread([r.gamma for r in regs])
        positions = [r.query_position for r in regs]
        d = np.concatenate(list(map(key_distances, positions, rows.lengths.tolist())))
        columns = (rows.spread([r.temperature for r in regs]), gamma, d, gamma * d)

        def objective(w, given, rows):
            neg_s, tau, gamma, d, _ = given
            log_w = _log(w)
            return rows.fsum(w * neg_s, tau * (w * log_w), gamma * w * d), log_w

        def gradient(w, log_w, given):
            neg_s, tau, _, _, gamma_d = given
            return neg_s + tau * (log_w + _ONE) + gamma_d

    elif kind == KL_PRIOR:
        prior = np.concatenate([r.prior.weights for r in regs])
        columns = (rows.spread([r.temperature for r in regs]), prior, np.log(prior))

        def objective(w, given, rows):
            neg_s, tau, _, log_prior = given
            log_w = _log(w)
            return rows.fsum(w * neg_s, tau * w * (log_w - log_prior)), log_w

        def gradient(w, log_w, given):
            neg_s, tau, prior, _ = given
            return neg_s + tau * (np.log(_nonzero(w) / prior) + _ONE)

    else:
        raise ValueError(f"unknown regularizer kind {kind!r}")
    return objective, gradient, columns


def _multiplicative_step(start, grad, eta, rows: _Ragged) -> np.ndarray:
    # In-place updates keep each expression's bits.
    trial = start - eta * grad
    view = trial.reshape(rows.shape)
    view -= rows.column(rows.max(trial))
    np.exp(trial, out=trial)
    view /= rows.total(view)
    return trial


def _projected_step(start, grad, eta, rows: _Ragged) -> np.ndarray:
    # Deliberately local: the oracle must not lean on the closed forms it
    # certifies, so the Euclidean projection is written out here.  Rows
    # are sorted ascending, so the k-th largest entry and the sum of the
    # k largest sit at the row's end, against ranks m..1.
    v = start - eta * grad
    view = v.reshape(rows.shape)
    view -= rows.column(rows.max(v))
    u, cssv = rows.sorted_sums(v)
    above = _ONE + rows.ranks() * u > cssv
    rho = np.add.reduceat(above, rows.starts)
    # rho is 0 only on a row holding NaN; its sum of every entry, at the
    # row's start, keeps theta NaN.
    top = rows.starts + (rows.lengths - rho) % rows.lengths
    view -= rows.column((cssv[top] - 1.0) / rho)
    return np.maximum(v, _ZERO, out=v)


def _acceptance_limit(best: float) -> float:
    # Accept within one rounding unit of the best value seen: near the
    # optimum the true per-step decrease falls below the resolution of the
    # objective value itself, and a strict comparison would freeze the
    # iterate one rounding boundary short.  The recorded sequence is the
    # running minimum, so it stays exactly non-increasing, and genuine
    # ascent beyond rounding still triggers the halving.
    return best + 2.0 * math.ulp(max(1.0, abs(best)))


# A penalty that overflows is +inf, its defined limit, where alibi's gamma * d
# or kl_prior's tau * log(p / prior) passes the double range: no warning.
@np.errstate(over="ignore")
def _descend(
    scores, regs: list[RegularizerSpec], cfg: SolverConfig | None
) -> list[OracleResult | NumericalFailure]:
    """Minimize -<p, s> + Omega(p) from the uniform start for every score
    row s of ``scores`` (a matrix, or a list of rows of any lengths) at
    once, row ``i`` under ``regs[i]`` (one kind, and for tsallis one
    alpha).

    The rows run in lock-step on one ``_Ragged`` layout.  In each round
    every row still running takes one trial step from its iterate at its
    own step size, and the array work is done once for all of them.  A row
    that accepts its trial moves on; a row that rejects it keeps its
    iterate, halves its step size and steps again in the next round,
    beside the other rows' next steps.  Each row keeps its own step size,
    acceptance limit, best value, trace, iteration count and convergence
    flag, so it follows exactly the iterates it would follow alone.
    Returns, in input order, each row's ``OracleResult`` or the
    ``NumericalFailure`` that ended its descent.
    """
    n = len(scores)
    if cfg is None:
        cfg = default_config(regs[0])
    multiplicative = cfg.method == EXPONENTIATED_GRADIENT
    step = _multiplicative_step if multiplicative else _projected_step
    tolerance, max_iterations = cfg.tolerance, cfg.max_iterations
    outcomes: list = [None] * n
    # The rows still running, by position, shortest first: their input
    # index, layout, negated scores and parameters, and their state.
    lengths = np.fromiter(map(len, scores), np.intp, n)
    index = np.argsort(lengths, kind="stable")
    order = index.tolist()
    rows = _Ragged(lengths[index])
    objective, gradient, columns = _descent_terms([regs[i] for i in order], rows)
    given = (-np.concatenate([scores[i] for i in order]), *columns)
    w = rows.spread(1.0 / rows.lengths)
    best, log_w = objective(w, given, rows)
    traces = [[value] for value in best]
    etas = np.full(n, cfg.step_size)
    eta = rows.spread(etas)
    # A row's iteration is the number of rounds less the rounds it rejected.
    rounds = 0
    rejections = [0] * n

    def result(p, converged):
        lo, hi = rows.starts[p], rows.ends[p]
        weights = SimplexDistribution(w[lo:hi])
        return OracleResult(weights, best[p], rounds - rejections[p], converged, tuple(traces[p]))

    def end(ended):
        # Record each ended row's outcome, a bool being the converged flag
        # of its current iterate, and drop the row from the running set.
        nonlocal index, rows, w, given, log_w, etas, eta, best, traces, rejections
        for p, outcome in ended.items():
            outcomes[index[p]] = result(p, outcome) if isinstance(outcome, bool) else outcome
        running = np.ones(len(best), dtype=bool)
        running[list(ended)] = False
        keep = np.flatnonzero(running)
        running = running.tolist()
        best = list(itertools.compress(best, running))
        traces = list(itertools.compress(traces, running))
        rejections = list(itertools.compress(rejections, running))
        if not best:
            return
        rows, entries = rows.take(keep)
        index, etas = index[keep], etas[keep]
        w, eta = w[entries], eta[entries]
        given = tuple(a[entries] for a in given)
        if log_w is not None:
            log_w = log_w[entries]

    if any(map(math.isnan, best)):
        nan_start = NumericalFailure("objective is NaN at the uniform start")
        end({p: nan_start for p, value in enumerate(best) if math.isnan(value)})
    if best and cfg.step_size < _MIN_STEP:
        # No step size is left to try: float-stationary at the first iteration.
        rounds = 1
        end(dict.fromkeys(range(len(best)), True))
    while best:
        rounds += 1
        if multiplicative:
            if log_w is None:  # l2 and tsallis
                log_w = _log(w)
            # A zero weight stays zero: its log is -inf in the step.
            base = log_w if np.count_nonzero(w) == w.size else np.where(w > 0.0, log_w, -np.inf)
        else:
            if log_w is not None and np.count_nonzero(w) < w.size:  # entropic kinds only
                boundary = NumericalFailure(
                    "projected gradient reached the boundary, "
                    "where the entropic gradient is infinite"
                )
                at_zero = np.logical_or.reduceat(w == 0.0, rows.starts)
                end({p: boundary for p in np.flatnonzero(at_zero).tolist()})
                if not best:
                    break
            base = w
        g = gradient(w, log_w, given)
        trial = step(base, g, eta, rows)
        values, trial_log = objective(trial, given, rows)
        ended = {}
        waiting = set()
        if all(map(operator.lt, values, best)):
            best = values  # every row improved, so every step is accepted
        else:
            # A row that did not improve accepts its step within one
            # rounding unit of its best value, and keeps its best value.
            rejected = [
                p
                for p, (value, previous) in enumerate(zip(values, best))
                if not value < previous and not value <= _acceptance_limit(previous)
            ]
            for p in rejected:
                if math.isnan(values[p]):
                    ended[p] = NumericalFailure("objective became NaN during descent")
                    continue
                etas[p] *= 0.5
                if etas[p] < _MIN_STEP:  # ascent at every step size: float-stationary
                    ended[p] = result(p, True)
                else:
                    waiting.add(p)
                    rejections[p] += 1
            if waiting:
                # The waiting rows keep their iterates and logs.
                eta = rows.spread(etas)
                stay = np.zeros(len(best), dtype=bool)
                stay[list(waiting)] = True
                stay = np.repeat(stay, rows.lengths)
                trial[stay] = w[stay]
                if trial_log is not None:
                    trial_log[stay] = log_w[stay]
            best = list(map(min, best, values))
        change = trial - w
        delta = rows.max(np.abs(change, out=change)).tolist()
        w, log_w = trial, trial_log
        for p, change in enumerate(delta):
            if p not in waiting:
                traces[p].append(best[p])
                if change < tolerance:
                    ended.setdefault(p, True)
        if rounds >= max_iterations:  # a row out of steps ends unconverged
            for p, count in enumerate(rejections):
                if rounds - count == max_iterations:
                    ended.setdefault(p, False)
        if ended:
            end(ended)
    return outcomes


def minimize_on_simplex(
    s: Scores, reg: RegularizerSpec, cfg: SolverConfig | None = None
) -> OracleResult:
    """Iteratively minimize -<p, s> + Omega(p) from the uniform start.

    The step size halves whenever a trial step would genuinely increase
    the objective (beyond its own rounding), so the recorded sequence of
    best values is non-increasing.  Convergence is declared on sup-norm
    iterate change below ``cfg.tolerance``; running out of iterations
    returns ``converged=False`` and leaves the verdict to the caller.
    A weight that underflows to exactly 0 under the multiplicative step
    stays 0; projected gradient on an entropic kind raises
    ``NumericalFailure`` once it lands on the boundary, where that
    objective's gradient is infinite.
    """
    (outcome,) = _minimize_many([(s, reg)], cfg)
    if isinstance(outcome, NumericalFailure):
        raise outcome
    return outcome


def _check_pair(s: Scores, reg: RegularizerSpec) -> None:
    # The closed forms' errors for a prior of the wrong length and for an
    # alibi penalty that overflows at every key, raised before any search.
    if reg.prior is not None:
        _check_lengths(reg.prior, s, "prior", "scores")
    if reg.kind == ALIBI:  # gamma * d is inf at every key if at the nearest
        if math.isinf(reg.gamma * max(0.0, float(reg.query_position) - len(s))):
            raise ValueError(_OVERFLOWS.format(ALIBI))


def _minimize_many(
    pairs: list[tuple[Scores, RegularizerSpec]], cfg: SolverConfig | None = None
) -> list[OracleResult | NumericalFailure]:
    """``minimize_on_simplex`` of every ``(scores, regularizer)`` pair, its
    ``NumericalFailure`` returned rather than raised, in input order.

    Pairs with the same kind and alpha (hence the same method) run as the
    rows of one lock-step descent, whatever their m, each under its own
    parameters, so every outcome is the one its pair gets alone.
    """
    groups: dict[tuple, list[int]] = {}
    for index, (s, reg) in enumerate(pairs):
        _check_pair(s, reg)
        groups.setdefault((reg.kind, reg.alpha), []).append(index)
    outcomes: list = [None] * len(pairs)
    for members in groups.values():
        scores = [pairs[i][0].values for i in members]
        found = _descend(scores, [pairs[i][1] for i in members], cfg)
        for i, outcome in zip(members, found):
            outcomes[i] = outcome
    return outcomes


class _Steps(NamedTuple):
    """The coordinates n / resolution, n = 0..resolution, and each one's
    x log x (``_xlogx``); read-only.  Every coordinate of a barycentric
    grid point is one of these steps, so the grid's rows and their entropy
    terms are gathered from this table."""

    values: np.ndarray
    xlogx: np.ndarray


def _build_table(resolution: int) -> _Steps:
    values = np.arange(resolution + 1) / resolution
    xlogx = _xlogx(values)
    values.flags.writeable = False
    xlogx.flags.writeable = False
    return _Steps(values, xlogx)


# The last resolution's table, as ``(resolution, table)``.  The tuple is
# read and written whole, so concurrent searches need no lock.  The suites
# search at resolution 1e6 (m=2, a 16 MB table) and 2000 (m=2 and 3).
_last_steps: tuple[int, _Steps] | None = None


def _coordinate_table(resolution: int) -> _Steps:
    global _last_steps
    kept = _last_steps
    if kept is not None and kept[0] == resolution:
        return kept[1]
    kept = _last_steps = None  # the old table is freed before the build
    table = _build_table(resolution)
    _last_steps = resolution, table
    return table


# 8x the suites' largest grid (2,003,001 points at m=3, resolution 2000),
# yet an m=2 table stays within 256 MiB and a search within seconds.
_GRID_MAX_POINTS = 2**24

# The grid is searched in chunks of rows (384 KB of m=3 points), so
# temporaries stay in the L2 cache.  Chunks start on multiples of any vector
# or block width, so every row keeps the bits of a whole-grid evaluation.
_GRID_CHUNK_ROWS = 2**14


def _grid_size(m: int, resolution: int) -> int:
    return (1, resolution + 1, (resolution + 1) * (resolution + 2) // 2)[m - 1]


def _block_starts(resolution: int) -> np.ndarray:
    # The m=3 grid's first row with first coordinate i / resolution.
    counts = np.arange(resolution + 1, 0, -1)
    return np.cumsum(counts) - counts


def _grid_rows(m: int, table: _Steps, chunk: slice, starts=None):
    """The barycentric grid's rows ``chunk``, and their sum_j p_j log p_j
    as ``_omega_rows`` sums them.  The grid holds every point of the simplex
    in R^m (m <= 3) whose coordinates are multiples of 1/resolution, ordered
    by the first coordinate's numerator, then the second's."""
    values, xlogx = table
    resolution = len(values) - 1
    if m == 1:
        index = [slice(resolution, None)]
    elif m == 2:  # slices: a gather of 1e6 rows costs twice as much
        stop = resolution - chunk.stop
        index = [chunk, slice(resolution - chunk.start, stop if stop >= 0 else None, -1)]
    else:
        rows = np.arange(chunk.start, chunk.stop)
        i = starts.searchsorted(rows, "right") - 1
        j = rows - starts[i]
        index = [i, j, resolution - i - j]
    # Summed left to right, as _row_sums sums a row; its start at +0.0
    # changes no bits, as no entry is -0.0.
    terms = xlogx[index[0]]
    points = np.empty((len(terms), m))
    for column, k in enumerate(index):
        points[:, column] = values[k]
        if column:
            terms = terms + xlogx[k]
    return points, terms


# The screen's margin, relative to its scale, and the scales it runs at:
# below, subnormal roundings could pass the margin; above, a sum of terms
# bounded by a few times the scale could overflow.
_SCREEN_MARGIN = 2.0**-40
_SCREEN_SCALES = (2.0**-900, 2.0**1020)
# Rows of sliding-window sums per block (512 KB at resolution 2000).
_SCREEN_ROWS = 32


def _screen(s: Scores, reg: RegularizerSpec, table: _Steps, starts: np.ndarray):
    """The indices of the m=3 chunks that can hold the grid's first
    minimum, in increasing order, or None when every chunk can."""
    values = table.values
    n = len(values)
    # T_k[n]: coordinate k's penalty term at step n, less s_k steps[n].
    onehot = np.zeros((3, n, 3))
    for k in range(3):
        onehot[k, :, k] = values
    terms = _omega_rows(onehot.reshape(-1, 3), reg, np.tile(table.xlogx, 3)).reshape(3, n)
    terms -= s.values[:, np.newaxis] * values
    scale = float(np.sum(np.abs(terms).max(axis=1) + np.abs(s.values)))
    low, high = _SCREEN_SCALES
    if not low <= scale <= high:  # also NaN, and +-inf in a table
        return None
    t0, t1, t2 = terms
    margin = 2.0 * _SCREEN_MARGIN * scale
    # Row i's sums t1[j] + t2[R - i - j] are t1 plus the window at i of t2
    # reversed, padded with +inf past the row's end.
    reversed_t2 = np.concatenate([t2[::-1], np.full(n - 1, np.inf)])
    windows = np.lib.stride_tricks.sliding_window_view(reversed_t2, n)
    row_minima = np.empty(n)
    for lo in range(0, n, _SCREEN_ROWS):
        rows = slice(lo, lo + _SCREEN_ROWS)
        sums = windows[rows, : n - lo] + t1[: n - lo]
        row_minima[rows] = t0[rows] + sums.min(axis=1)
    limit = row_minima.min() + margin
    chunks = set()
    for i in np.flatnonzero(row_minima <= limit).tolist():
        width = n - i
        j = np.flatnonzero(t0[i] + (t1[:width] + reversed_t2[i:n]) <= limit)
        chunks.update(((starts[i] + j) // _GRID_CHUNK_ROWS).tolist())
    return sorted(chunks)


@np.errstate(over="ignore")  # as in the descent, an overflowing objective is inf
def grid_search_simplex(s: Scores, reg: RegularizerSpec, resolution: int) -> OracleResult:
    """Exhaustive minimum over the barycentric grid with the given number
    of subdivisions; only feasible for m <= 3, and for at most 2^24 grid
    points (8x the suites' largest grid), which bounds the search's time and
    its coordinate table at 16 bytes per step.

    The returned point is within O(1/resolution) of the true optimum, and
    its objective can never beat the true minimum, which makes this a
    one-sided sandwich check for every closed form.  It is the first
    minimum (or NaN) ``np.argmin`` picks among the grid's objective values,
    each value -(p @ s) + Omega(p) evaluated on chunks of 2^14 rows, which
    are gathered from a table of the coordinates n / resolution (kept for
    the last resolution searched): no array is grid-sized.

    At m=3 only the chunks that can hold that minimum are evaluated.  Every
    penalty is a sum of per-coordinate terms that vanish at 0, so per-
    coordinate tables T_k[n] (coordinate k's term at step n, less s_k n/R,
    from ``_omega_rows`` on one-hot rows) give a screened objective
    S = T_0[i] + (T_1[j] + T_2[k]) at every point; each row's minimum over
    j is one sliding-window pass.  With scale = sum_k(max|T_k| + |s_k|),
    S and the evaluated value E are each a few roundings (numpy's log
    within 4 ulp) of terms bounded by a few times scale, so both lie within
    delta ~ 20u scale of the exact objective of the same coordinates, far
    below mu = 2^-40 scale.  Hence the grid's first minimum p* has
    S(p*) <= E(p*) + delta <= E(q) + delta <= S(q) + 2 delta for every q,
    so S(p*) <= S_min + mu; and any q with S(q) > S_min + 2 mu has
    E(q) >= S(q) - delta > S(p*) + mu - delta >= E(p*) + mu - 2 delta > E(p*).
    So the first minimum, in index order, over the chunks holding a point
    within 2 mu of S_min is the whole grid's.  The screen stands down, and
    every chunk is evaluated, when a table entry or the scale is not
    finite or the scale lies outside [2^-900, 2^1020], where subnormal
    roundings or an overflow could break those bounds.
    """
    m = len(s)
    if m > 3:
        raise ValueError("grid search is exhaustive and limited to m <= 3")
    resolution = _check_count(resolution, "resolution", 100)
    size = _grid_size(m, resolution)
    if size > _GRID_MAX_POINTS:
        raise ValueError(
            f"grid search at m={m}, resolution {resolution} visits {size} points, "
            f"more than {_GRID_MAX_POINTS}"
        )
    _check_pair(s, reg)  # before the table is dropped or built
    # m=1's one point is 1/1 at any resolution.
    table = _coordinate_table(resolution) if m > 1 else _build_table(1)
    starts = chunks = None
    if m == 3:
        starts = _block_starts(resolution)
        chunks = _screen(s, reg, table, starts)
    if chunks is None:
        chunks = range(-(-size // _GRID_CHUNK_ROWS))
    # The first minimum (or NaN) of each chunk, then the first among them:
    # np.argmin's pick on the whole array.
    picks = []
    for c in chunks:
        start = c * _GRID_CHUNK_ROWS
        chunk = slice(start, min(start + _GRID_CHUNK_ROWS, size))
        points, xlogx = _grid_rows(m, table, chunk, starts)
        objectives = -(points @ s.values) + _omega_rows(points, reg, xlogx)
        best = int(np.argmin(objectives))
        picks.append((objectives[best], points[best].copy()))  # not a view on the chunk
    value, point = picks[int(np.argmin([value for value, _ in picks]))]
    return OracleResult(SimplexDistribution(point), float(value), iterations=size, converged=True)


def fenchel_conjugate(
    reg: RegularizerSpec, s: Scores, cfg: SolverConfig | None = None
) -> float:
    """sup over the simplex of <p, s> - Omega(p), computed numerically.

    Evaluated as the negative of the iterative minimum of the negated
    objective, so it never consults a closed form.  For the entropy
    regularizer at temperature tau this must match ``lse(s, tau)``, and
    the maximizer satisfies the conjugacy equality
    Omega(p*) + conjugate(s) = <p*, s>.
    """
    result = minimize_on_simplex(s, reg, cfg)
    return -result.objective
