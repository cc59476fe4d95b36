"""Independent minimizers for the same simplex-constrained objectives.

These certify the closed-form solvers without trusting the formulas under
test: multiplicative-weights descent (exponentiated gradient) for the
entropy-family regularizers whose optima are interior, projected gradient
for the L2/Tsallis family whose optima touch the boundary, and an
exhaustive barycentric grid for m <= 3.  The numerical Fenchel conjugate
is built on the same iterative machinery.
"""

from __future__ import annotations

import math
import operator
import threading
from collections import OrderedDict
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
    _xlogx_rows,
    key_distances,
    objective_rows,
)

__all__ = [
    "EXPONENTIATED_GRADIENT",
    "PROJECTED_GRADIENT",
    "GRID_SEARCH",
    "SolverConfig",
    "OracleResult",
    "default_config",
    "minimize_on_simplex",
    "grid_search_simplex",
    "fenchel_conjugate",
]

EXPONENTIATED_GRADIENT = "exponentiated-gradient"
PROJECTED_GRADIENT = "projected-gradient"
GRID_SEARCH = "grid-search"
_METHODS = (EXPONENTIATED_GRADIENT, PROJECTED_GRADIENT, GRID_SEARCH)

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
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if not self.step_size > 0.0:
            raise ValueError("step_size must be positive")
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


def _fsum_rows(first: np.ndarray, *rest: np.ndarray) -> list[float]:
    # Exactly-rounded summation of each row's terms: step acceptance near
    # the optimum compares objective values whose true differences sit far
    # below the noise of a naive left-to-right accumulation, and every
    # spurious rejection raises the solver's error floor.
    if len(first) == 1:  # one row: one flat list of terms
        terms = first.tolist()[0]
        for term in rest:
            terms += term.tolist()[0]
        return [math.fsum(terms)]
    rows = first.tolist()
    for term in rest:
        rows = map(operator.add, rows, term.tolist())
    return list(map(math.fsum, rows))


def _const(value: float) -> np.ndarray:
    # A per-solve constant as a read-only 0-d array: numpy applies it to an
    # array faster than a Python float it must convert first, with the same
    # bits.
    constant = np.array(float(value))
    constant.flags.writeable = False
    return constant


_ONE = _const(1.0)
_ZERO = _const(0.0)


def _per_row(values, m: int) -> np.ndarray:
    # One value per row, repeated across the row's m entries: numpy
    # multiplies arrays of one shape faster than it broadcasts an (n, 1)
    # column, and as fast as a 0-d constant, with the same bits.
    return np.repeat(np.array(list(values))[:, np.newaxis], m, axis=1)


def _descent_terms(regs: list[RegularizerSpec], m: int):
    """The objective and its gradient for rows of ``m`` weights, row ``i``
    under ``regs[i]`` (one kind, and for tsallis one alpha), every per-solve
    invariant computed once.

    Returns ``(objective, gradient, columns)``.  ``columns`` holds each
    row's own parameters as (n, m) arrays, one array row per row: tau,
    gamma, the key distances and gamma*d (alibi), the prior and its log
    (kl_prior).  ``objective(w, given)`` returns one value per
    row of ``w`` and, for the entropic kinds, ``_logs(w)``, which
    ``gradient(w, logs, given)`` and the multiplicative step reuse once
    ``w`` is accepted; ``given`` is ``(neg_s, *columns)`` for the same rows
    of ``w``, ``neg_s`` their negated scores.  Every expression is
    elementwise or per row and evaluated in one fixed order, so each row's
    iterates are reproducible bit for bit whatever rows, or parameters, it
    shares the arrays with.
    """
    reg = regs[0]
    kind = reg.kind
    columns = ()
    if kind == L2:
        half = _const(0.5)

        def objective(w, given):
            return _fsum_rows(w * given[0], half * w * w), None

        def gradient(w, logs, given):
            return given[0] + w

    elif kind == TSALLIS:
        # The exponents stay Python floats: numpy takes its fast paths
        # (w**2.0 as w*w, w**0.5 as sqrt) on those alone.
        a = reg.alpha
        a1 = a - 1.0
        scale = _const(a * a1)
        factor = _const(a)

        def objective(w, given):
            return _fsum_rows(w * given[0], (w**a - w) / scale), None

        def gradient(w, logs, given):
            return given[0] + (factor * w**a1 - _ONE) / scale

    elif kind == SHANNON:
        columns = (_per_row((r.temperature for r in regs), m),)

        def objective(w, given):
            neg_s, tau = given
            logs = _logs(w)
            return _fsum_rows(w * neg_s, tau * (w * logs[0])), logs

        def gradient(w, logs, given):
            neg_s, tau = given
            return neg_s + tau * (logs[0] + _ONE)

    elif kind == ALIBI:
        gamma = _per_row((r.gamma for r in regs), m)
        d = np.array([key_distances(r.query_position, m) for r in regs])
        columns = (_per_row((r.temperature for r in regs), m), gamma, d, gamma * d)

        def objective(w, given):
            neg_s, tau, gamma, d, _ = given
            logs = _logs(w)
            return _fsum_rows(w * neg_s, tau * (w * logs[0]), gamma * w * d), logs

        def gradient(w, logs, given):
            neg_s, tau, _, _, gamma_d = given
            return neg_s + tau * (logs[0] + _ONE) + gamma_d

    elif kind == KL_PRIOR:
        prior = np.array([r.prior.weights for r in regs])
        columns = (_per_row((r.temperature for r in regs), m), prior, np.log(prior))

        def objective(w, given):
            neg_s, tau, _, log_prior = given
            logs = _logs(w)
            return _fsum_rows(w * neg_s, tau * w * (logs[0] - log_prior)), logs

        def gradient(w, logs, given):
            neg_s, tau, prior, _ = given
            return neg_s + tau * (np.log(_nonzero(w) / prior) + _ONE)

    else:
        raise ValueError(f"unknown regularizer kind {kind!r}")
    return objective, gradient, columns


def _project_simplex(v: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    # Deliberately local: the oracle must not lean on the closed forms it
    # certifies, so the Euclidean projection is written out here.  Projects
    # along the last axis: a vector, or every row of a matrix, a single row
    # as a vector, which costs less.  ``ranks`` is 1.0..m as doubles.
    if v.ndim == 2 and len(v) == 1:
        return _project_simplex(v[0], ranks)[np.newaxis]
    v = v - np.maximum.reduce(v, axis=-1, keepdims=True)
    u = np.sort(v)[..., ::-1]
    cssv = np.add.accumulate(u, axis=-1)
    above = _ONE + ranks * u > cssv
    if v.ndim == 1:
        rho = int(np.count_nonzero(above))
        theta = (cssv[rho - 1] - 1.0) / rho
    else:
        rho = above.sum(axis=1)
        theta = ((cssv[np.arange(len(v)), rho - 1] - 1.0) / rho)[:, np.newaxis]
    return np.maximum(v - theta, _ZERO)


def _acceptance_limit(best: float) -> float:
    # Accept within one rounding unit of the best value seen: near the
    # optimum the true per-step decrease falls below the resolution of the
    # objective value itself, and a strict comparison would freeze the
    # iterate one rounding boundary short.  The recorded sequence is the
    # running minimum, so it stays exactly non-increasing, and genuine
    # ascent beyond rounding still triggers the halving.
    return best + 2.0 * math.ulp(max(1.0, abs(best)))


def _descend(
    S: np.ndarray, regs: list[RegularizerSpec], cfg: SolverConfig | None
) -> list[OracleResult | NumericalFailure]:
    """Minimize -<p, s> + Omega(p) from the uniform start for every row s
    of ``S`` at once, row ``i`` under ``regs[i]`` (one kind, and for
    tsallis one alpha).

    The rows run in lock-step: the array work of an iteration is done once
    for every row still running, while each row keeps its own step size,
    acceptance limit, best value, trace and convergence flag, so it follows
    exactly the iterates it would follow alone.  Returns, per row, its
    ``OracleResult`` or the ``NumericalFailure`` that ended its descent.
    """
    n, m = S.shape
    if cfg is None:
        cfg = default_config(regs[0])
    if cfg.method == GRID_SEARCH:
        raise ValueError("use grid_search_simplex for exhaustive search")
    multiplicative = cfg.method == EXPONENTIATED_GRADIENT
    objective, gradient, columns = _descent_terms(regs, m)
    ranks = np.arange(1.0, m + 1.0)
    tolerance, max_iterations = cfg.tolerance, cfg.max_iterations
    outcomes: list = [None] * n
    # The rows still running, by position: their row of S, their negated
    # scores and parameters, and their state.
    rows = list(range(n))
    given = (-S, *columns)
    w = np.full((n, m), 1.0 / m)
    best, logs = objective(w, given)
    limits = list(map(_acceptance_limit, best))
    traces = [[value] for value in best]
    etas = [cfg.step_size] * n
    iteration = 0

    def end(ended):
        # Record each ended row's outcome and drop it from the running set.
        nonlocal rows, best, limits, traces, etas, w, given, logs
        for p, outcome in ended.items():
            if outcome is None:
                outcome = OracleResult(
                    SimplexDistribution(w[p]), best[p], iteration, True, tuple(traces[p])
                )
            outcomes[rows[p]] = outcome
        keep = [p for p in range(len(rows)) if p not in ended]
        rows, best, limits, traces, etas = (
            [state[p] for p in keep] for state in (rows, best, limits, traces, etas)
        )
        w = w[keep]
        given = tuple(a[keep] for a in given)
        if logs is not None:
            logs = (logs[0][keep], logs[1][keep])

    if any(math.isnan(value) for value in best):
        nan_start = NumericalFailure("objective is NaN at the uniform start")
        end({p: nan_start for p, value in enumerate(best) if math.isnan(value)})
    if rows and cfg.step_size < _MIN_STEP:
        # No step size is left to try: float-stationary at the first iteration.
        iteration = 1
        end(dict.fromkeys(range(len(rows))))
    while rows and iteration < max_iterations:
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
                end({p: boundary for p in np.flatnonzero((w == 0.0).any(axis=1)).tolist()})
                if not rows:
                    break
            base = w
        g = gradient(w, logs, given)
        k = len(rows)
        # The first trial takes every row at its own step size, as whole
        # arrays; when a row rejects, each rejecting row halves its step
        # size and tries again, until it accepts or no step size is left.
        # In-place updates keep each expression's bits.
        eta = etas[0] if k == 1 else np.array(etas)[:, np.newaxis]
        start, grad, trial_given = base, g, given
        stepped = None
        ended = {}
        while True:
            if multiplicative:
                trial = start - eta * grad
                trial -= np.maximum.reduce(trial, axis=1, keepdims=True)
                np.exp(trial, out=trial)
                trial /= np.add.reduce(trial, axis=1, keepdims=True)
            else:
                trial = _project_simplex(start - eta * grad, ranks)
            values, trial_logs = objective(trial, trial_given)
            if stepped is None:
                if (values[0] <= limits[0]) if k == 1 else all(map(operator.le, values, limits)):
                    new_w, new_logs, stepped = trial, trial_logs, values
                    break
                new_w, new_logs, stepped = w.copy(), trial_logs, [None] * k
                if trial_logs is not None:
                    new_logs = (logs[0].copy(), logs[1].copy())
                searching = range(k)
            rejected = []
            for j, p in enumerate(searching):
                if values[j] <= limits[p]:
                    stepped[p] = values[j]
                    new_w[p] = trial[j]
                    if new_logs is not None:
                        new_logs[0][p] = trial_logs[0][j]
                        new_logs[1][p] = trial_logs[1][j]
                elif math.isnan(values[j]):
                    ended[p] = NumericalFailure("objective became NaN during descent")
                else:
                    etas[p] *= 0.5
                    if etas[p] >= _MIN_STEP:
                        rejected.append(p)
            if not rejected:
                break
            searching = rejected
            eta = np.array([etas[p] for p in rejected])[:, np.newaxis]
            if len(rejected) < k:
                start, grad = base[rejected], g[rejected]
                trial_given = tuple(a[rejected] for a in given)
        change = new_w - w
        delta = np.maximum.reduce(np.abs(change, out=change), axis=1).tolist()
        w, logs = new_w, new_logs
        for p, value in enumerate(stepped):
            if value is None:
                # Ascent at every step size: float-stationary.
                ended.setdefault(p, None)
                continue
            if value < best[p]:
                best[p] = value
                limits[p] = _acceptance_limit(value)
            traces[p].append(best[p])
            if delta[p] < tolerance:
                ended[p] = None
        if ended:
            end(ended)
    for p, row in enumerate(rows):
        outcomes[row] = OracleResult(
            SimplexDistribution(w[p]), best[p], iteration, False, tuple(traces[p])
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

    Pairs with the same m, kind and alpha (hence the same method) run as
    the rows of one lock-step descent, each under its own parameters, so
    every outcome is the one its pair gets alone.
    """
    groups: dict[tuple, list[int]] = {}
    for index, (s, reg) in enumerate(pairs):
        groups.setdefault((len(s), reg.kind, reg.alpha), []).append(index)
    outcomes: list = [None] * len(pairs)
    for members in groups.values():
        S = np.array([pairs[i][0].values for i in members])
        regs = [pairs[i][1] for i in members]
        for i, outcome in zip(members, _descend(S, regs, cfg)):
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


def _grid_points(m: int, resolution: int) -> int:
    """How many points ``_barycentric_grid(m, resolution)`` has."""
    if m == 1:
        return 1
    if m == 2:
        return resolution + 1
    return (resolution + 1) * (resolution + 2) // 2


class _Grid(NamedTuple):
    """A read-only barycentric grid and, per point, sum_j p_j log p_j as
    the objective computes it, so the entropic kinds reuse it."""

    points: np.ndarray
    xlogx: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.points.nbytes + self.xlogx.nbytes


def _build_grid(m: int, resolution: int) -> _Grid:
    points = _barycentric_grid(m, resolution)
    xlogx = _xlogx_rows(points)
    points.flags.writeable = False
    xlogx.flags.writeable = False
    return _Grid(points, xlogx)


class _GridCache:
    """The most recently used grids with their per-point entropy terms,
    read-only: at most ``entries`` of them, together at most
    ``max_bytes``.  Room is made before a grid is built, so evicted grids
    are freed first; a grid that cannot fit is built for its call and not
    kept."""

    def __init__(self, entries: int, max_bytes: int):
        self.entries = entries
        self.max_bytes = max_bytes
        self._grids: OrderedDict[tuple[int, int], _Grid] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._grids)

    def entry(self, m: int, resolution: int) -> _Grid:
        key = (m, resolution)
        grids = self._grids
        with self._lock:
            grid = grids.get(key)
            if grid is None:
                nbytes = _grid_points(m, resolution) * (m + 1) * 8
                if nbytes > self.max_bytes:
                    return _build_grid(m, resolution)
                while grids and (
                    len(grids) >= self.entries
                    or sum(g.nbytes for g in grids.values()) + nbytes > self.max_bytes
                ):
                    grids.popitem(last=False)
                grid = grids[key] = _build_grid(m, resolution)
            grids.move_to_end(key)
        return grid

    def get(self, m: int, resolution: int) -> np.ndarray:
        """The grid's points alone."""
        return self.entry(m, resolution).points

    def cache_clear(self) -> None:
        with self._lock:
            self._grids.clear()


# The suites search m=2 at resolution 1e6 (24 MB with its entropy terms),
# m=3 at 2000 (64 MB) and both at 2000 (under 0.1 MB), one size at a time.
_GRIDS = _GridCache(entries=2, max_bytes=64 * 2**20)


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
    resolution = int(resolution)
    if resolution < 100:
        raise ValueError("resolution must be at least 100")
    grid = _GRIDS.entry(m, resolution)
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
