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
    _check_lengths,
    _check_positive_real,
    _number,
    _xlogx_rows,
    key_distances,
    objective_rows,
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
        iterations = _number(self.max_iterations, "max_iterations")
        if not isinstance(iterations, (int, np.integer)) or iterations < 1:
            raise ValueError("max_iterations must be an integer >= 1")
        object.__setattr__(self, "max_iterations", int(iterations))
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


def default_config(reg: RegularizerSpec) -> SolverConfig:
    """Exponentiated gradient for the entropy family (its multiplicative
    iterates stay interior, where those objectives' gradients blow up at
    the boundary), projected gradient for L2/Tsallis whose optima are
    sparse."""
    entropic = _KINDS[reg.kind].entropic
    return SolverConfig(method=EXPONENTIATED_GRADIENT if entropic else PROJECTED_GRADIENT)


def _nonzero(w: np.ndarray) -> np.ndarray:
    # An exact zero only appears when a multiplicative step underflows; it
    # is replaced by 1 so its log is 0 rather than -inf.
    return w if np.count_nonzero(w) == w.size else np.where(w > 0.0, w, 1.0)


def _logs(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log w for the objective and gradient, with 0 at exact zeros, and for
    the multiplicative step, with -inf there so a zero stays zero; one
    array for both when w has no zeros."""
    if np.count_nonzero(w) == w.size:
        log_w = np.log(w)
        return log_w, log_w
    log_w = np.log(np.where(w > 0.0, w, 1.0))
    return log_w, np.where(w > 0.0, log_w, -np.inf)


class _Ragged:
    """Rows of mixed length laid end to end in flat arrays, sorted by
    length, so the rows of each length are one contiguous ``(rows, m)``
    block of every flat array.

    Elementwise work takes the flat arrays whole, and the exact per-row
    reductions (max, count) take one ``reduceat``.  Sums, sorts and
    cumulative sums, whose results depend on how a row is traversed, run
    on each block's view, so every row gets the bits it gets alone.  One
    row, as every public solve has, takes shorter paths to the same bits.
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
        if len(self.lengths) == 1:
            u = np.sort(v)
            return u, np.add.accumulate(u[::-1])[::-1]
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
        row: the row's entries of the first term, then of the next, the
        order that decides where an intermediate overflow raises.  Step
        acceptance near the optimum compares objective values whose true
        differences sit far below the noise of a naive left-to-right
        accumulation, and every spurious rejection raises the solver's
        error floor."""
        if len(self.lengths) == 1:  # one row: one flat list of terms
            flat = terms[0].tolist()
            for term in terms[1:]:
                flat += term.tolist()
            return [math.fsum(flat)]
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
        return list(map(math.fsum, map(flat.__getitem__, slices)))


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
    out as ``rows``, and, for the entropic kinds, ``_logs(w)``, which
    ``gradient(w, logs, given)`` and the multiplicative step reuse once
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

        def gradient(w, logs, given):
            return given[0] + w

    elif kind == TSALLIS:
        # The exponents stay Python floats: numpy takes its fast paths
        # (w**2.0 as w*w, w**0.5 as sqrt) on those alone.
        a = reg.alpha
        a1 = a - 1.0
        scale = _const(a * a1)
        factor = _const(a)

        def objective(w, given, rows):
            return rows.fsum(w * given[0], (w**a - w) / scale), None

        def gradient(w, logs, given):
            return given[0] + (factor * w**a1 - _ONE) / scale

    elif kind == SHANNON:
        columns = (rows.spread([r.temperature for r in regs]),)

        def objective(w, given, rows):
            neg_s, tau = given
            logs = _logs(w)
            return rows.fsum(w * neg_s, tau * (w * logs[0])), logs

        def gradient(w, logs, given):
            neg_s, tau = given
            return neg_s + tau * (logs[0] + _ONE)

    elif kind == ALIBI:
        gamma = rows.spread([r.gamma for r in regs])
        positions = [r.query_position for r in regs]
        d = np.concatenate(list(map(key_distances, positions, rows.lengths.tolist())))
        columns = (rows.spread([r.temperature for r in regs]), gamma, d, gamma * d)

        def objective(w, given, rows):
            neg_s, tau, gamma, d, _ = given
            logs = _logs(w)
            return rows.fsum(w * neg_s, tau * (w * logs[0]), gamma * w * d), logs

        def gradient(w, logs, given):
            neg_s, tau, _, _, gamma_d = given
            return neg_s + tau * (logs[0] + _ONE) + gamma_d

    elif kind == KL_PRIOR:
        prior = np.concatenate([r.prior.weights for r in regs])
        columns = (rows.spread([r.temperature for r in regs]), prior, np.log(prior))

        def objective(w, given, rows):
            neg_s, tau, _, log_prior = given
            logs = _logs(w)
            return rows.fsum(w * neg_s, tau * w * (logs[0] - log_prior)), logs

        def gradient(w, logs, given):
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
    if len(rows.lengths) == 1:
        rho = np.count_nonzero(above)
        v -= (cssv[-rho] - 1.0) / rho
    else:
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


def _descend(
    scores, regs: list[RegularizerSpec], cfg: SolverConfig | None
) -> list[OracleResult | NumericalFailure]:
    """Minimize -<p, s> + Omega(p) from the uniform start for every score
    row s of ``scores`` (a matrix, or a list of rows of any lengths) at
    once, row ``i`` under ``regs[i]`` (one kind, and for tsallis one
    alpha).

    The rows run in lock-step on one ``_Ragged`` layout: the array work of
    an iteration is done once for every row still running, while each row
    keeps its own step size, acceptance limit, best value, trace and
    convergence flag, so it follows exactly the iterates it would follow
    alone.  When rows reject their step, only those rows try again, at
    half their step size.  Returns, in input order, each row's
    ``OracleResult`` or the ``NumericalFailure`` that ended its descent.
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
    best, logs = objective(w, given, rows)
    traces = [[value] for value in best]
    etas = np.full(n, cfg.step_size)
    eta = rows.spread(etas)
    iteration = 0

    def converged(p):
        lo, hi = rows.starts[p], rows.ends[p]
        weights = SimplexDistribution(w[lo:hi])
        return OracleResult(weights, best[p], iteration, True, tuple(traces[p]))

    def end(ended):
        # Record each ended row's outcome and drop it from the running set.
        nonlocal index, rows, w, given, logs, etas, eta, best, traces
        for p, outcome in ended.items():
            outcomes[index[p]] = outcome
        running = np.ones(len(best), dtype=bool)
        running[list(ended)] = False
        keep = np.flatnonzero(running)
        running = running.tolist()
        best = list(itertools.compress(best, running))
        traces = list(itertools.compress(traces, running))
        if not best:
            return
        rows, entries = rows.take(keep)
        index, etas = index[keep], etas[keep]
        w, eta = w[entries], eta[entries]
        given = tuple(a[entries] for a in given)
        if logs is not None:
            log_w = logs[0][entries]
            logs = (log_w, log_w if logs[1] is logs[0] else logs[1][entries])

    def retry(rejected, values, new_w, new_logs, base, g, ended):
        # Each rejecting row halves its step size and tries again, beside
        # the other rejecting rows only, until it accepts, which puts its
        # trial and value in new_w and values, or it ends at its current
        # iterate when no step size is left.  Returns new_w's logs.
        if new_logs is not None and new_logs[1] is new_logs[0]:
            new_logs = (new_logs[0], new_logs[1].copy())
        pending = [(p, values[p]) for p in rejected]
        while pending:
            trying = []
            for p, value in pending:
                if math.isnan(value):
                    ended[p] = NumericalFailure("objective became NaN during descent")
                    continue
                etas[p] *= 0.5
                if etas[p] >= _MIN_STEP:
                    trying.append(p)
                else:  # ascent at every step size: float-stationary
                    ended[p] = converged(p)
            if not trying:
                break
            sub, entries = rows.take(np.array(trying))
            trial = step(base[entries], g[entries], sub.spread(etas[trying]), sub)
            found, trial_logs = objective(trial, tuple(a[entries] for a in given), sub)
            accepted = [value <= _acceptance_limit(best[p]) for p, value in zip(trying, found)]
            taken = np.repeat(accepted, sub.lengths)
            new_w[entries[taken]] = trial[taken]
            if trial_logs is not None:
                new_logs[0][entries[taken]] = trial_logs[0][taken]
                new_logs[1][entries[taken]] = trial_logs[1][taken]
            pending = []
            for p, value, ok in zip(trying, found, accepted):
                if ok:
                    values[p] = value
                else:
                    pending.append((p, value))
        return new_logs

    if any(map(math.isnan, best)):
        nan_start = NumericalFailure("objective is NaN at the uniform start")
        end({p: nan_start for p, value in enumerate(best) if math.isnan(value)})
    if best and cfg.step_size < _MIN_STEP:
        # No step size is left to try: float-stationary at the first iteration.
        iteration = 1
        end({p: converged(p) for p in range(len(best))})
    while best and iteration < max_iterations:
        iteration += 1
        if multiplicative:
            if logs is None:
                logs = _logs(w)
            base = logs[1]
        else:
            if logs is not None and np.count_nonzero(w) < w.size:  # entropic kinds only
                boundary = NumericalFailure(
                    "projected gradient reached the boundary, "
                    "where the entropic gradient is infinite"
                )
                at_zero = np.logical_or.reduceat(w == 0.0, rows.starts)
                end({p: boundary for p in np.flatnonzero(at_zero).tolist()})
                if not best:
                    break
            base = w
        g = gradient(w, logs, given)
        new_w = step(base, g, eta, rows)
        values, new_logs = objective(new_w, given, rows)
        ended = {}
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
            if rejected:
                new_logs = retry(rejected, values, new_w, new_logs, base, g, ended)
                eta = rows.spread(etas)
            best = list(map(min, best, values))
        change = new_w - w
        delta = rows.max(np.abs(change, out=change)).tolist()
        w, logs = new_w, new_logs
        for trace, value in zip(traces, best):
            trace.append(value)
        for p, change in enumerate(delta):
            if change < tolerance:
                ended.setdefault(p, None)
        if ended:
            end({p: converged(p) if outcome is None else outcome for p, outcome in ended.items()})
    for p in range(len(best)):
        lo, hi = rows.starts[p], rows.ends[p]
        outcomes[index[p]] = OracleResult(
            SimplexDistribution(w[lo:hi]), best[p], iteration, False, tuple(traces[p])
        )
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
        if reg.prior is not None:
            _check_lengths(reg.prior, s, "prior", "scores")
        groups.setdefault((reg.kind, reg.alpha), []).append(index)
    outcomes: list = [None] * len(pairs)
    for members in groups.values():
        scores = [pairs[i][0].values for i in members]
        found = _descend(scores, [pairs[i][1] for i in members], cfg)
        for i, outcome in zip(members, found):
            outcomes[i] = outcome
    return outcomes


def _barycentric_grid(m: int, resolution: int) -> np.ndarray:
    """Every point of the simplex in R^m (m <= 3) whose coordinates are
    multiples of 1/resolution, one per row."""
    if m == 1:
        return np.ones((1, 1))
    if m == 2:
        i = np.arange(resolution + 1, dtype=np.float64)
        return np.column_stack([i, resolution - i]) / resolution
    # Integer-valued doubles are exact here, so filling the columns in place
    # gives the same bits as building them from integers.
    counts = np.arange(resolution + 1, 0, -1)
    i = np.repeat(np.arange(resolution + 1, dtype=np.float64), counts)
    j = np.arange(i.size, dtype=np.float64)
    j -= np.repeat((np.cumsum(counts) - counts).astype(np.float64), counts)
    grid = np.empty((i.size, 3))
    grid[:, 0] = i
    grid[:, 1] = j
    np.subtract(resolution - i, j, out=grid[:, 2])
    grid /= resolution
    return grid


class _Grid(NamedTuple):
    """A read-only barycentric grid and, per point, sum_j p_j log p_j as
    the objective computes it, so the entropic kinds reuse it."""

    points: np.ndarray
    xlogx: np.ndarray


def _build_grid(m: int, resolution: int) -> _Grid:
    points = _barycentric_grid(m, resolution)
    xlogx = _xlogx_rows(points)
    points.flags.writeable = False
    xlogx.flags.writeable = False
    return _Grid(points, xlogx)


# The last grid searched, as ``((m, resolution), grid)``, kept while it
# takes at most _GRID_KEEP_BYTES with its entropy terms.  The tuple is read
# and written whole, so concurrent searches need no lock.  The suites
# search m=2 at resolution 1e6 (24 MB), m=3 at 2000 (64 MB) and m=2 at 2000,
# each size's searches in a row.
_GRID_KEEP_BYTES = 64 * 2**20
_last_grid: tuple[tuple[int, int], _Grid] | None = None


def grid_search_simplex(s: Scores, reg: RegularizerSpec, resolution: int) -> OracleResult:
    """Exhaustive minimum over the barycentric grid with the given number
    of subdivisions; only feasible for m <= 3.

    The returned point is within O(1/resolution) of the true optimum, and
    its objective can never beat the true minimum, which makes this a
    one-sided sandwich check for every closed form.
    """
    m = len(s)
    if m > 3:
        raise ValueError("grid search is exhaustive and limited to m <= 3")
    resolution = _number(resolution, "resolution")
    if not isinstance(resolution, (int, np.integer)) or resolution < 100:
        raise ValueError("resolution must be an integer >= 100")
    resolution = int(resolution)
    global _last_grid
    key = (m, resolution)
    kept = _last_grid
    if kept is not None and kept[0] == key:
        grid = kept[1]
    else:
        kept = _last_grid = None  # the old grid is freed before the build
        grid = _build_grid(m, resolution)
        if grid.points.nbytes + grid.xlogx.nbytes <= _GRID_KEEP_BYTES:
            _last_grid = key, grid
    objectives = objective_rows(grid.points, s, reg, xlogx=grid.xlogx)
    best = int(np.argmin(objectives))
    return OracleResult(
        SimplexDistribution(grid.points[best]),
        float(objectives[best]),
        iterations=grid.points.shape[0],
        converged=True,
    )


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
