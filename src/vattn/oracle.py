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
import threading
from collections import OrderedDict
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
    if reg.kind in (L2, TSALLIS):
        return SolverConfig(method=PROJECTED_GRADIENT)
    return SolverConfig(method=EXPONENTIATED_GRADIENT)


def _nonzero(w: np.ndarray) -> np.ndarray:
    # An exact zero only appears when a multiplicative step underflows; it
    # is replaced by 1 so its log is 0 rather than -inf.
    return w if np.count_nonzero(w) == w.size else np.where(w > 0.0, w, 1.0)


def _descent_terms(s: Scores, reg: RegularizerSpec):
    """The objective and its gradient for one solve, every per-solve
    invariant computed once.

    ``objective(w)`` returns the value and, for the entropic kinds, the
    log of ``w`` (0 at exact zeros), which ``gradient(w, log_w)`` and the
    multiplicative step reuse once ``w`` is accepted.  Each expression is
    evaluated in one fixed order, so every iterate is reproducible bit for
    bit.
    """
    # Exactly-rounded summation: step acceptance near the optimum compares
    # objective values whose true differences sit far below the noise of a
    # naive left-to-right accumulation, and every spurious rejection raises
    # the solver's error floor.
    neg_s = -s.values
    kind = reg.kind
    if kind == L2:

        def objective(w):
            return math.fsum((w * neg_s).tolist() + (0.5 * w * w).tolist()), None

        def gradient(w, log_w):
            return neg_s + w

    elif kind == TSALLIS:
        a = reg.alpha
        a1 = a - 1.0
        scale = a * a1

        def objective(w):
            return math.fsum((w * neg_s).tolist() + ((w**a - w) / scale).tolist()), None

        def gradient(w, log_w):
            return neg_s + (a * w**a1 - 1.0) / scale

    elif kind == SHANNON:
        tau = reg.temperature

        def objective(w):
            log_w = np.log(_nonzero(w))
            return math.fsum((w * neg_s).tolist() + (tau * (w * log_w)).tolist()), log_w

        def gradient(w, log_w):
            return neg_s + tau * (log_w + 1.0)

    elif kind == ALIBI:
        tau, gamma = reg.temperature, reg.gamma
        d = key_distances(reg.query_position, s.values.size)
        gamma_d = gamma * d

        def objective(w):
            log_w = np.log(_nonzero(w))
            terms = (w * neg_s).tolist() + (tau * (w * log_w)).tolist()
            return math.fsum(terms + (gamma * w * d).tolist()), log_w

        def gradient(w, log_w):
            return neg_s + tau * (log_w + 1.0) + gamma_d

    elif kind == KL_PRIOR:
        tau = reg.temperature
        prior = reg.prior.weights
        log_prior = np.log(prior)

        def objective(w):
            log_w = np.log(_nonzero(w))
            terms = (w * neg_s).tolist() + (tau * w * (log_w - log_prior)).tolist()
            return math.fsum(terms), log_w

        def gradient(w, log_w):
            return neg_s + tau * (np.log(_nonzero(w) / prior) + 1.0)

    else:
        raise ValueError(f"unknown regularizer kind {kind!r}")
    return objective, gradient


def _project_simplex(v: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    # Deliberately local: the oracle must not lean on the closed forms it
    # certifies, so the Euclidean projection is written out here.
    # ``ranks`` is 1..v.size.
    v = v - v.max()
    u = np.sort(v)[::-1]
    cssv = u.cumsum()
    rho = int(np.count_nonzero(1.0 + ranks * u > cssv))
    theta = (cssv[rho - 1] - 1.0) / rho
    return np.maximum(v - theta, 0.0)


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
    if cfg is None:
        cfg = default_config(reg)
    if cfg.method == GRID_SEARCH:
        raise ValueError("use grid_search_simplex for exhaustive search")
    multiplicative = cfg.method == EXPONENTIATED_GRADIENT
    objective, gradient = _descent_terms(s, reg)
    m = len(s)
    ranks = np.arange(1, m + 1)
    tolerance = cfg.tolerance
    w = np.full(m, 1.0 / m)
    best, log_w = objective(w)
    if math.isnan(best):
        raise NumericalFailure("objective is NaN at the uniform start")
    trace = [best]
    eta = cfg.step_size
    iterations = 0
    converged = False
    for it in range(1, cfg.max_iterations + 1):
        iterations = it
        if multiplicative:
            if log_w is None:
                log_w = np.log(_nonzero(w))
            # log w - eta * g, with -inf keeping an exact zero at zero.
            log_base = log_w if np.count_nonzero(w) == m else np.where(w > 0.0, log_w, -np.inf)
        elif log_w is not None and np.count_nonzero(w) < m:  # entropic kinds only
            raise NumericalFailure(
                "projected gradient reached the boundary, where the entropic gradient is infinite"
            )
        g = gradient(w, log_w)
        # Accept within one rounding unit of the best value seen: near the
        # optimum the true per-step decrease falls below the resolution of
        # the objective value itself, and a strict comparison would freeze
        # the iterate one rounding boundary short.  The recorded sequence
        # is the running minimum, so it stays exactly non-increasing, and
        # genuine ascent beyond rounding still triggers the halving.
        slack = 2.0 * math.ulp(max(1.0, abs(best)))
        candidate = None
        while eta >= _MIN_STEP:
            if multiplicative:
                t = log_base - eta * g
                e = np.exp(t - t.max())
                trial = e / e.sum()
            else:
                trial = _project_simplex(w - eta * g, ranks)
            trial_obj, trial_log = objective(trial)
            if math.isnan(trial_obj):
                raise NumericalFailure("objective became NaN during descent")
            if trial_obj <= best + slack:
                candidate = trial
                break
            eta *= 0.5
        if candidate is None:
            converged = True  # ascent at every step size: float-stationary
            break
        delta = abs(candidate - w).max()
        w, log_w = candidate, trial_log
        best = min(best, trial_obj)
        trace.append(best)
        if delta < tolerance:
            converged = True
            break
    return OracleResult(SimplexDistribution(w), best, iterations, converged, tuple(trace))


def _barycentric_grid(m: int, resolution: int) -> np.ndarray:
    """Every point of the simplex in R^m (m <= 3) whose coordinates are
    multiples of 1/resolution, one per row."""
    if m == 1:
        return np.ones((1, 1))
    if m == 2:
        i = np.arange(resolution + 1, dtype=np.float64)
        return np.column_stack([i, resolution - i]) / resolution
    counts = np.arange(resolution + 1, 0, -1)
    i = np.repeat(np.arange(resolution + 1), counts)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    j = np.arange(i.size) - starts
    return np.column_stack([i, j, resolution - i - j]).astype(np.float64) / resolution


class _GridCache:
    """The most recently used barycentric grids, read-only: at most
    ``entries`` of them, together at most ``max_bytes``.  A grid that does
    not fit is built for its call and not kept."""

    def __init__(self, entries: int, max_bytes: int):
        self.entries = entries
        self.max_bytes = max_bytes
        self._grids: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._grids)

    def get(self, m: int, resolution: int) -> np.ndarray:
        key = (m, resolution)
        grids = self._grids
        with self._lock:
            grid = grids.get(key)
            if grid is None:
                grid = _barycentric_grid(m, resolution)
                grid.flags.writeable = False
                grids[key] = grid
            grids.move_to_end(key)
            while len(grids) > self.entries or (
                sum(g.nbytes for g in grids.values()) > self.max_bytes
            ):
                grids.popitem(last=False)
        return grid

    def cache_clear(self) -> None:
        with self._lock:
            self._grids.clear()


# The suites search m=2 at resolution 1e6 (16 MB) and m=3 at 2000 (48 MB).
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
    grid = _GRIDS.get(m, resolution)
    objectives = objective_rows(grid, s, reg)
    best = int(np.argmin(objectives))
    return OracleResult(
        SimplexDistribution(grid[best]),
        float(objectives[best]),
        iterations=grid.shape[0],
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
