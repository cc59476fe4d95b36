"""Randomized verification suites behind the ``verify`` command.

Each suite aggregates one named check per identity; a check draws its
instances from a PCG64 generator keyed by (seed, suite, check, trial), so
reports are reproducible bit-for-bit.  A check draws every trial's instance
first and then computes their residuals together: the oracle solves of all
its trials run as one lock-step descent per kind and alpha, rows of every
m together, each row under its own parameters, which gives each trial
exactly the result it gets alone, since no draw depends on a solve.  The
reported residual of a check is the worst value seen across its trials.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import core, gradient, oracle, solvers, transport
from .core import RegularizerSpec, Scores, SimplexDistribution, UtilityVector, ValueSet

__all__ = [
    "SUITE_NAMES",
    "CheckResult",
    "RunReport",
    "run_suite",
    "gradcheck_report",
]

SUITE_NAMES = (
    "closed-forms",
    "oracle-equivalence",
    "gradient-identities",
    "duality",
    "transport",
)

# Grid searches and full descent traces are the slow checks; their trial
# counts are capped so ``verify all`` stays interactive at large --trials.
_GRID_TRIAL_CAP = 10
_TRACE_TRIAL_CAP = 20


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    details: str | None = None


@dataclass(frozen=True)
class RunReport:
    suite: str
    cases_run: int
    cases_passed: int
    max_residual: float
    per_check: tuple[CheckResult, ...]
    seed: int
    wall_time_ms: int

    @property
    def passed(self) -> bool:
        return self.cases_passed == self.cases_run


@dataclass(frozen=True)
class _Check:
    """``draw`` makes one trial's instance from that trial's generator;
    ``residuals`` takes every instance, in trial order, and returns their
    residuals, solving them together where that saves work."""

    name: str
    tolerance: float
    trials: int
    draw: Callable[[np.random.Generator], object]
    residuals: Callable[[list], list[float]]


def _each(name: str, tolerance: float, trials: int, trial) -> _Check:
    """A check whose trials run one by one: the instance is the trial's
    generator, which ``trial(rng)`` draws from and returns a residual for."""
    return _Check(name, tolerance, trials, lambda rng: rng, lambda rngs: list(map(trial, rngs)))


def _rand_scores(rng, m) -> Scores:
    return Scores(rng.uniform(-5.0, 5.0, m))


def _rand_row(rng, low=2, high=16) -> Scores:
    """Draws a length m in [low, high], then m scores."""
    return _rand_scores(rng, int(rng.integers(low, high + 1)))


def _rand_temperature(rng) -> float:
    return float(rng.uniform(0.5, 2.0))


def _rand_prior(rng, m) -> SimplexDistribution:
    # Dirichlet mass mixed with a uniform floor so the prior is safely
    # bounded away from zero.
    return SimplexDistribution(0.9 * rng.dirichlet(np.ones(m)) + 0.1 / m)


def _rand_regularizer(rng, kind: str, m: int) -> RegularizerSpec:
    if kind == core.SHANNON:
        return RegularizerSpec.shannon(_rand_temperature(rng))
    if kind == core.L2:
        return RegularizerSpec.l2()
    if kind == core.TSALLIS:
        return RegularizerSpec.tsallis(float(rng.choice([1.5, 2.0, 3.0])))
    if kind == core.ALIBI:
        return RegularizerSpec.alibi(
            float(rng.uniform(0.0, 2.0)), int(rng.integers(1, m + 1)), _rand_temperature(rng)
        )
    if kind == core.KL_PRIOR:
        return RegularizerSpec.kl_prior(_rand_prior(rng, m), _rand_temperature(rng))
    raise ValueError(f"unknown regularizer kind {kind!r}")


def _sup_norm(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


# ----------------------------------------------------------------------
# closed-forms: solver invariants and the random-point optimality
# certificates for every regularizer kind.


def _shift_invariance_trial(rng) -> float:
    s = _rand_row(rng)
    t = _rand_temperature(rng)
    c = float(rng.uniform(-10.0, 10.0))
    base = solvers.softmax(s, t).distribution.weights
    shifted = solvers.softmax(Scores(s.values + c), t).distribution.weights
    return _sup_norm(base, shifted)


def _temperature_identity_trial(rng) -> float:
    s = _rand_row(rng)
    t = _rand_temperature(rng)
    direct = solvers.softmax(s, t).distribution.weights
    rescaled = solvers.softmax(Scores(s.values / t), 1.0).distribution.weights
    return _sup_norm(direct, rescaled)


def _optimality_trial(kind: str) -> Callable[[np.random.Generator], float]:
    def trial(rng) -> float:
        s = _rand_row(rng)
        reg = _rand_regularizer(rng, kind, len(s))
        best = solvers.solve(s, reg)
        target = core.objective_value(best.distribution, s, reg)
        candidates = rng.dirichlet(np.ones(len(s)), size=1000)
        return target - float(np.min(core.objective_rows(candidates, s, reg)))

    return trial


def _support_monotonicity_trial(rng) -> float:
    s = _rand_row(rng)
    before = solvers.sparsemax(s).distribution.weights
    j = int(rng.integers(len(s)))
    bumped = s.values.copy()
    bumped[j] += 0.1
    after = solvers.sparsemax(Scores(bumped)).distribution.weights
    return 1.0 if (before[j] > 0.0 and after[j] <= 0.0) else 0.0


def _entmax_mass_trial(rng) -> float:
    s = _rand_row(rng)
    alpha = float(rng.uniform(1.2, 4.0))
    w = solvers.entmax(s, alpha).distribution.weights
    return abs(float(w.sum()) - 1.0)


def _entmax_sparsemax_trial(rng) -> float:
    s = _rand_row(rng)
    return _sup_norm(
        solvers.entmax(s, 2.0).distribution.weights,
        solvers.sparsemax(s).distribution.weights,
    )


def _entmax_shannon_limit_trial(rng) -> float:
    s = _rand_row(rng)
    return _sup_norm(
        solvers.entmax(s, 1.0 + 1e-4).distribution.weights,
        solvers.softmax(s, 1.0).distribution.weights,
    )


def _prior_uniform_trial(rng) -> float:
    s = _rand_row(rng)
    t = _rand_temperature(rng)
    return _sup_norm(
        solvers.prior_softmax(s, SimplexDistribution.uniform(len(s)), t).distribution.weights,
        solvers.softmax(s, t).distribution.weights,
    )


def _alibi_zero_gamma_trial(rng) -> float:
    s = _rand_row(rng)
    t = _rand_temperature(rng)
    position = int(rng.integers(1, len(s) + 1))
    return _sup_norm(
        solvers.alibi_softmax(s, position, 0.0, t).distribution.weights,
        solvers.softmax(s, t).distribution.weights,
    )


def _lse_bounds_trial(rng) -> float:
    s = _rand_row(rng)
    t = _rand_temperature(rng)
    value = solvers.lse(s, t)
    top = float(s.values.max())
    return max(top - value, value - top - t * np.log(len(s)))


def _strong_duality_check(trials: int, draw) -> _Check:
    """primal_value(s, t) + lse(s, t), which strong duality makes 0, on
    ``draw``'s (scores, temperature) instances."""

    def residuals(instances):
        return [abs(solvers.primal_value(s, t) + solvers.lse(s, t)) for s, t in instances]

    return _Check("strong-duality-primal-plus-lse", 1e-10, trials, draw, residuals)


def _single_key_trial(rng) -> float:
    s = Scores([float(rng.uniform(-5.0, 5.0))])
    regs = (
        RegularizerSpec.shannon(1.0),
        RegularizerSpec.l2(),
        RegularizerSpec.tsallis(1.7),
        RegularizerSpec.alibi(0.5, 1, 1.0),
        RegularizerSpec.kl_prior(SimplexDistribution(np.ones(1)), 1.0),
    )
    return max(abs(float(solvers.solve(s, reg).distribution.weights[0]) - 1.0) for reg in regs)


def _closed_forms_checks(trials: int) -> list[_Check]:
    checks = [
        _each("softmax-shift-invariance", 1e-12, trials, _shift_invariance_trial),
        _each("softmax-temperature-identity", 1e-12, trials, _temperature_identity_trial),
    ]
    for kind in core.REGULARIZER_KINDS:
        checks.append(
            _each(f"optimality-{kind.replace('_', '-')}", 1e-9, trials, _optimality_trial(kind))
        )
    checks += [
        _each("sparsemax-support-monotonicity", 0.0, trials, _support_monotonicity_trial),
        _each("entmax-mass-residual", 1e-12, trials, _entmax_mass_trial),
        _each("entmax-2-equals-sparsemax", 1e-10, trials, _entmax_sparsemax_trial),
        _each("entmax-shannon-limit", 1e-3, trials, _entmax_shannon_limit_trial),
        _each("prior-uniform-recovers-softmax", 1e-12, trials, _prior_uniform_trial),
        _each("alibi-zero-gamma-recovers-softmax", 1e-15, trials, _alibi_zero_gamma_trial),
        _each("lse-bounds", 1e-12, trials, _lse_bounds_trial),
        _strong_duality_check(trials, lambda rng: (_rand_row(rng), _rand_temperature(rng))),
        _each("single-key-degenerate", 0.0, 1, _single_key_trial),
    ]
    return checks


# ----------------------------------------------------------------------
# oracle-equivalence: every closed form against the iterative and
# brute-force solvers that know nothing about it.


def _oracle_check(name: str, tolerance: float, trials: int, draw, residual) -> _Check:
    """A check whose instances are ``(scores, regularizer)`` pairs that the
    oracle solves, all of them together; ``residual(s, reg, found)`` scores
    each pair's ``OracleResult``.  A failed solve raises, the first trial's
    first."""

    def residuals(instances):
        found = oracle._minimize_many(instances)
        for outcome in found:
            if isinstance(outcome, core.NumericalFailure):
                raise outcome
        return [residual(s, reg, result) for (s, reg), result in zip(instances, found)]

    return _Check(name, tolerance, trials, draw, residuals)


def _draw_with(regularizer) -> Callable[[np.random.Generator], tuple]:
    """Draws m, scores of length m, then ``regularizer(rng, m)``."""

    def draw(rng):
        s = _rand_row(rng)
        return s, regularizer(rng, len(s))

    return draw


def _rand_kind_regularizer(rng, m: int) -> RegularizerSpec:
    return _rand_regularizer(rng, str(rng.choice(core.REGULARIZER_KINDS)), m)


def _closed_form_distance(s: Scores, reg: RegularizerSpec, found) -> float:
    distance = _sup_norm(found.distribution.weights, solvers.solve(s, reg).distribution.weights)
    # A non-converged solve must not pass quietly just because its last
    # iterate happened to land close.
    return distance if found.converged else max(distance, 1.0)


def _support_mismatch(s: Scores, reg: RegularizerSpec, found) -> float:
    closed = solvers.solve(s, reg).distribution.weights
    same = np.array_equal(found.distribution.weights > 0.0, closed > 0.0)
    return 0.0 if (same and found.converged) else 1.0


def _grid_softmax_trial(m: int, resolution: int) -> Callable[[np.random.Generator], float]:
    def trial(rng) -> float:
        s = _rand_scores(rng, m)
        t = float(rng.choice([0.5, 1.0, np.sqrt(m)]))
        found = oracle.grid_search_simplex(s, RegularizerSpec.shannon(t), resolution)
        return _sup_norm(found.distribution.weights, solvers.softmax(s, t).distribution.weights)

    return trial


def _sandwich_draw(rng) -> tuple[Scores, RegularizerSpec]:
    s = _rand_row(rng, 2, 3)
    return s, _rand_kind_regularizer(rng, len(s))


def _sandwich_residuals(instances) -> list[float]:
    # The m=3 instances first, on the grid grid-matches-softmax-m3 left
    # kept, then the m=2 ones: one grid build for the check.
    order = sorted(range(len(instances)), key=lambda i: -len(instances[i][0]))
    found = {i: oracle.grid_search_simplex(*instances[i], 2000) for i in order}
    return [
        core.objective_value(solvers.solve(s, reg).distribution, s, reg) - found[i].objective
        for i, (s, reg) in enumerate(instances)
    ]


def _trace_ascent(trace: tuple[float, ...]) -> float:
    if len(trace) < 2:
        return 0.0
    return max(0.0, float(np.max(np.diff(np.asarray(trace)))))


def _descent_monotone_residuals(instances) -> list[float]:
    # One minimize_on_simplex per trial.  The at most 20 trials would run as
    # one descent per (kind, alpha), seven of them, but these calls keep the
    # traced benchmark's per-solve oracle figures, which count public solves.
    return [
        _trace_ascent(oracle.minimize_on_simplex(s, reg).objective_trace) for s, reg in instances
    ]


def _oracle_equivalence_checks(trials: int) -> list[_Check]:
    grid_trials = min(trials, _GRID_TRIAL_CAP)
    l2 = _draw_with(lambda rng, m: RegularizerSpec.l2())

    def closed(name, regularizer):
        return _oracle_check(name, 1e-6, trials, _draw_with(regularizer), _closed_form_distance)

    return [
        closed(
            "eg-matches-softmax",
            lambda rng, m: RegularizerSpec.shannon(float(rng.choice([0.5, 1.0, np.sqrt(m)]))),
        ),
        _oracle_check("pg-matches-sparsemax", 1e-6, trials, l2, _closed_form_distance),
        _oracle_check("pg-sparsemax-support-match", 0.0, trials, l2, _support_mismatch),
        closed("oracle-matches-entmax-1.5", lambda rng, m: RegularizerSpec.tsallis(1.5)),
        closed("oracle-matches-entmax-2", lambda rng, m: RegularizerSpec.tsallis(2.0)),
        closed("oracle-matches-entmax-3", lambda rng, m: RegularizerSpec.tsallis(3.0)),
        closed("eg-matches-alibi-softmax", lambda rng, m: _rand_regularizer(rng, core.ALIBI, m)),
        closed("eg-matches-prior-softmax", lambda rng, m: _rand_regularizer(rng, core.KL_PRIOR, m)),
        # Tolerance for the exhaustive searches is twice the grid spacing.
        _each("grid-matches-softmax-m2", 2e-6, grid_trials, _grid_softmax_trial(2, 10**6)),
        _each("grid-matches-softmax-m3", 1e-3, grid_trials, _grid_softmax_trial(3, 2000)),
        _Check("grid-objective-sandwich", 1e-12, grid_trials, _sandwich_draw, _sandwich_residuals),
        _Check(
            "descent-objective-monotone",
            0.0,
            min(trials, _TRACE_TRIAL_CAP),
            _draw_with(_rand_kind_regularizer),
            _descent_monotone_residuals,
        ),
    ]


# ----------------------------------------------------------------------
# gradient-identities: the algebraic backward-pass theorems, exact to
# machine precision.


def _gradient_instance(rng):
    s = _rand_row(rng)
    t = float(rng.uniform(0.25, 4.0))
    p = solvers.softmax(s, t).distribution
    u = UtilityVector(rng.uniform(-3.0, 3.0, len(s)))
    return p, u, t


def _advantage_chain_rule_trial(rng) -> float:
    p, u, t = _gradient_instance(rng)
    report = gradient.advantage_gradient(p, u, t)
    return _sup_norm(report.score_gradient, gradient.chain_rule_gradient(p, u, t))


def _gradient_zero_sum_trial(rng) -> float:
    p, u, t = _gradient_instance(rng)
    return abs(float(gradient.advantage_gradient(p, u, t).score_gradient.sum()))


def _natural_gradient_trial(rng) -> float:
    p, u, t = _gradient_instance(rng)
    return gradient.natural_gradient_identity_check(p, u, t)


def _fisher_psd_trial(rng) -> float:
    p, _, t = _gradient_instance(rng)
    fim = gradient.fisher_matrix(p, t)
    return -float(np.linalg.eigvalsh(fim.entries)[0])


def _jacobian_kernel_trial(rng) -> float:
    p, _, t = _gradient_instance(rng)
    jac = gradient.softmax_jacobian(p, t)
    return float(np.max(np.abs(jac.entries @ np.ones(len(p)))))


def _fisher_kernel_trial(rng) -> float:
    p, _, t = _gradient_instance(rng)
    fim = gradient.fisher_matrix(p, t)
    return float(np.max(np.abs(fim.entries @ np.ones(len(p)))))


def _sign_semantics_trial(rng) -> float:
    p, u, t = _gradient_instance(rng)
    report = gradient.advantage_gradient(p, u, t)
    above_average = report.advantage > 0.0
    return float(np.count_nonzero(report.score_gradient[above_average] >= 0.0))


def _gradient_identities_checks(trials: int) -> list[_Check]:
    return [
        _each("advantage-equals-chain-rule", 1e-12, trials, _advantage_chain_rule_trial),
        _each("score-gradient-zero-sum", 1e-10, trials, _gradient_zero_sum_trial),
        _each("natural-gradient-identity", 1e-12, trials, _natural_gradient_trial),
        _each("fisher-positive-semidefinite", 1e-10, trials, _fisher_psd_trial),
        _each("jacobian-ones-kernel", 1e-12, trials, _jacobian_kernel_trial),
        _each("fisher-ones-kernel", 1e-12, trials, _fisher_kernel_trial),
        _each("advantage-sign-semantics", 0.0, trials, _sign_semantics_trial),
    ]


# ----------------------------------------------------------------------
# duality: finite-difference certificates for the potential's derivatives
# plus the conjugacy identities.


def _duality_instance(rng):
    return _rand_row(rng, 2, 8), _rand_temperature(rng)


def _lse_hessian_trial(rng) -> float:
    s, t = _duality_instance(rng)
    return gradient.lse_hessian_check(s, t, 1e-4)


def _envelope_trial(rng) -> float:
    s, t = _duality_instance(rng)
    return gradient.envelope_check(s, t, 1e-5)


def _lse_gradient_residual(s: Scores, t: float, h: float, weights: np.ndarray) -> float:
    """Sup-norm distance between the finite-difference gradient of lse and
    the softmax weights of ``s``."""
    numeric = gradient.finite_difference_gradient(lambda x: solvers.lse(Scores(x), t), s.values, h)
    return _sup_norm(numeric, weights)


def _lse_gradient_trial(rng) -> float:
    s, t = _duality_instance(rng)
    return _lse_gradient_residual(s, t, 1e-5, solvers.softmax(s, t).distribution.weights)


def _shannon_duality_instance(rng) -> tuple[Scores, RegularizerSpec]:
    s, t = _duality_instance(rng)
    return s, RegularizerSpec.shannon(t)


# ``found`` is the oracle's minimum of -<p, s> + Omega(p); its negation is
# the numerical Fenchel conjugate, as ``oracle.fenchel_conjugate`` gives it.


def _conjugate_lse_gap(s: Scores, reg: RegularizerSpec, found) -> float:
    return abs(-found.objective - solvers.lse(s, reg.temperature))


def _fenchel_young_gap(s: Scores, reg: RegularizerSpec, found) -> float:
    best = solvers.softmax(s, reg.temperature).distribution
    omega = core.regularizer_value(best, reg)
    conjugate = -found.objective
    return abs(omega + conjugate - float(np.dot(best.weights, s.values)))


def _duality_checks(trials: int) -> list[_Check]:
    return [
        _each("lse-hessian-matches-tau-fisher", 1e-6, trials, _lse_hessian_trial),
        _each("primal-gradient-matches-neg-softmax", 1e-7, trials, _envelope_trial),
        _each("lse-gradient-matches-softmax", 1e-7, trials, _lse_gradient_trial),
        _strong_duality_check(trials, _duality_instance),
        _oracle_check(
            "fenchel-conjugate-matches-lse", 1e-8, trials, _shannon_duality_instance, _conjugate_lse_gap
        ),
        _oracle_check(
            "fenchel-young-equality", 1e-8, trials, _shannon_duality_instance, _fenchel_young_gap
        ),
    ]


# ----------------------------------------------------------------------
# transport: the full-matrix problem decomposes into rows and the
# row-wise softmax matrix is its global optimum.


def _rand_batch(rng):
    n = int(rng.integers(1, 9))
    m = int(rng.integers(1, 9))
    d = int(rng.integers(1, 17))
    scale = 1.0 / np.sqrt(d)
    batch = core.QueryKeyBatch(
        rng.uniform(-1.0, 1.0, (n, d)) * scale, rng.uniform(-1.0, 1.0, (m, d)) * scale
    )
    eps = float(rng.choice([0.5, 1.0, np.sqrt(d)]))
    return batch, eps


def _eot_plans(instances):
    """``solve_full_eot``'s plan of every ``(batch, eps)`` instance, in
    order, the rows of all plans solved together; a plan whose solve fails
    raises its error when its turn comes."""
    rows = [transport._eot_rows(batch, eps) for batch, eps in instances]
    outcomes = iter(oracle._minimize_many([pair for _, pairs in rows for pair in pairs]))
    for scores, pairs in rows:
        yield transport._eot_plan(scores, list(itertools.islice(outcomes, len(pairs))))


def _full_eot_residuals(instances) -> list[float]:
    return [
        float(np.max(np.abs(solved.entries - transport.attention_matrix(batch, eps).entries)))
        for (batch, eps), solved in zip(instances, _eot_plans(instances))
    ]


def _row_stochastic_trial(rng) -> float:
    # One solve_full_eot per trial: the suite keeps certifying the public
    # entry point itself, and the traced benchmark keeps its figures.
    batch, eps = _rand_batch(rng)
    worst = 0.0
    for plan in (transport.attention_matrix(batch, eps), transport.solve_full_eot(batch, eps)):
        worst = max(worst, float(np.max(np.abs(plan.entries.sum(axis=1) - 1.0))))
    return worst


def _beats_random_plans_trial(rng) -> float:
    batch, eps = _rand_batch(rng)
    plan = transport.attention_matrix(batch, eps)
    cost = transport.cost_matrix(batch)
    target = transport.eot_matrix_objective(plan, cost, eps)
    rivals = rng.dirichlet(np.ones(batch.m), size=(1000, batch.n))
    safe = np.where(rivals > 0.0, rivals, 1.0)
    objectives = np.sum(rivals * cost.entries, axis=(1, 2)) + eps * np.sum(
        rivals * np.log(safe), axis=(1, 2)
    )
    return target - float(np.min(objectives))


def _row_decomposition_trial(rng) -> float:
    batch, eps = _rand_batch(rng)
    plan = transport.attention_matrix(batch, eps)
    cost = transport.cost_matrix(batch)
    total = transport.eot_matrix_objective(plan, cost, eps)
    reg = RegularizerSpec.shannon(eps)
    scores = batch.queries @ batch.keys.T
    row_sum = sum(
        core.objective_value(SimplexDistribution(plan.entries[i]), Scores(scores[i]), reg)
        for i in range(batch.n)
    )
    return abs(total - row_sum)


def _transport_checks(trials: int) -> list[_Check]:
    return [
        _Check("full-eot-matches-attention-matrix", 1e-6, trials, _rand_batch, _full_eot_residuals),
        _each("plans-row-stochastic", 1e-12, trials, _row_stochastic_trial),
        _each("attention-beats-random-plans", 1e-9, trials, _beats_random_plans_trial),
        _each("objective-row-decomposition", 1e-12, trials, _row_decomposition_trial),
    ]


_SUITE_BUILDERS = {
    "closed-forms": _closed_forms_checks,
    "oracle-equivalence": _oracle_equivalence_checks,
    "gradient-identities": _gradient_identities_checks,
    "duality": _duality_checks,
    "transport": _transport_checks,
}


def _report(suite: str, results: list[CheckResult], seed: int, started: float) -> RunReport:
    """The report of ``results``, timed from ``started`` (a perf_counter reading)."""
    return RunReport(
        suite=suite,
        cases_run=len(results),
        cases_passed=sum(1 for r in results if r.passed),
        max_residual=max(r.residual for r in results),
        per_check=tuple(results),
        seed=int(seed),
        wall_time_ms=int(round((time.perf_counter() - started) * 1000.0)),
    )


def run_suite(
    name: str,
    seed: int,
    trials: int,
    tolerance_scale: float = 1.0,
) -> RunReport:
    """Run one named suite; deterministic given (name, seed, trials)."""
    if name not in _SUITE_BUILDERS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    started = time.perf_counter()
    ordinal = SUITE_NAMES.index(name)
    results = []
    for check_index, check in enumerate(_SUITE_BUILDERS[name](trials)):
        instances = [
            check.draw(np.random.default_rng([int(seed), ordinal, check_index, trial]))
            for trial in range(check.trials)
        ]
        residual = float(max(check.residuals(instances)))
        tolerance = check.tolerance * tolerance_scale
        results.append(CheckResult(check.name, residual, tolerance, residual <= tolerance))
    return _report(name, results, seed, started)


# ----------------------------------------------------------------------
# gradcheck: finite-difference certification of one concrete instance.

# Central-difference steps track the temperature so truncation and
# round-off stay balanced when the potential varies on scale tau: the
# gradient step follows tau^(2/3) and the Hessian step tau^(3/4) (the
# error-minimizing exponents), while tolerances widen once the noise
# floor passes the defaults (below tau = 1e-4 for gradients, 0.05 for the
# Hessian, whose check is measured relative to max(1, ||tau F||)).  The
# Hessian step is floored: once the weights saturate, the potential is
# piecewise linear and a larger step only reduces round-off noise.  Below
# tau = 5e-8 a widened tolerance reaches 1, and any weights would pass.
_GRAD_H0 = 1e-5
_GRAD_TOL0 = 1e-7
_GRAD_TAU_REF = 1e-4
_HESS_H0 = 5e-4
_HESS_H_MIN = 3e-6
_HESS_TOL0 = 1e-6
_HESS_TAU_REF = 0.05


def gradcheck_report(
    scores: Scores,
    temperature: float,
    utilities: UtilityVector | None = None,
    values: ValueSet | None = None,
    context_gradient=None,
    seed: int = 0,
    tolerance_scale: float = 1.0,
) -> RunReport:
    """Finite-difference certification of one instance.

    Always checks the potential's gradient and Hessian and the value
    function's gradient; when utilities are given (directly, or via values
    plus a context gradient) the advantage identities are checked too.
    """
    started = time.perf_counter()
    t = core._check_positive_real(temperature)
    scores = gradient._stencil_scores(scores)  # checks are shift-invariant
    h_grad = _GRAD_H0 * min(1.0, t) ** (2.0 / 3.0)
    h_hess = max(_HESS_H0 * min(1.0, t) ** 0.75, _HESS_H_MIN)
    grad_widening = max(1.0, _GRAD_TAU_REF / t)
    hess_widening = max(1.0, _HESS_TAU_REF / t)
    if max(_GRAD_TOL0 * grad_widening, _HESS_TOL0 * hess_widening) >= 1.0:
        raise ValueError(f"temperature {t!r} is too small for gradcheck (tolerance >= 1)")
    tol_grad = _GRAD_TOL0 * grad_widening * tolerance_scale
    tol_hess = _HESS_TOL0 * hess_widening * tolerance_scale

    def _note(h: float, widening: float) -> str:
        note = f"h={h:.6e}"
        if widening > 1.0:
            note += f", tolerance widened x{widening:.6g} for small temperature"
        return note

    checks: list[CheckResult] = []

    def _record(name: str, residual: float, tolerance: float, details: str) -> None:
        checks.append(CheckResult(name, float(residual), tolerance, residual <= tolerance, details))

    p = solvers.softmax(scores, t).distribution
    _record(
        "lse-gradient-matches-softmax",
        _lse_gradient_residual(scores, t, h_grad, p.weights),
        tol_grad,
        _note(h_grad, grad_widening),
    )
    _record(
        "primal-gradient-matches-neg-softmax",
        gradient.envelope_check(scores, t, h_grad),
        tol_grad,
        _note(h_grad, grad_widening),
    )
    covariance = gradient._weight_covariance(p.weights)
    hessian_scale = max(1.0, float(np.max(np.abs(covariance / t))))
    _record(
        "lse-hessian-matches-tau-fisher",
        gradient.lse_hessian_check(scores, t, h_hess) / hessian_scale,
        tol_hess,
        _note(h_hess, hess_widening) + f", residual relative to max(1, {hessian_scale:.6g})",
    )

    if utilities is None and values is not None and context_gradient is not None:
        utilities = gradient.marginal_utility(context_gradient, values)
        utility_source = "utilities derived from values and context gradient"
    else:
        utility_source = "utilities supplied directly"

    if utilities is not None:
        report = gradient.advantage_gradient(p, utilities, t)
        _record(
            "advantage-equals-chain-rule",
            _sup_norm(report.score_gradient, gradient.chain_rule_gradient(p, utilities, t)),
            1e-12 * tolerance_scale,
            utility_source,
        )
        _record(
            "natural-gradient-identity",
            gradient.natural_gradient_identity_check(p, utilities, t),
            1e-12 * tolerance_scale,
            utility_source,
        )
        # The linear loss L(s) = -<u, p(s)> has marginal utility exactly u,
        # so its numeric gradient must reproduce the advantage form.
        u_values = utilities.values

        def linear_loss(x: np.ndarray) -> float:
            return -float(np.dot(u_values, solvers.softmax(Scores(x), t).distribution.weights))

        numeric_loss_grad = gradient.finite_difference_gradient(
            linear_loss, scores.values, h_grad
        )
        loss_tol = tol_grad * max(1.0, float(np.max(np.abs(u_values))))
        _record(
            "loss-gradient-matches-advantage",
            _sup_norm(numeric_loss_grad, report.score_gradient),
            loss_tol,
            _note(h_grad, grad_widening) + f", {utility_source}",
        )

    return _report("gradcheck", checks, seed, started)
