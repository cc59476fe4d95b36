"""Iterative and brute-force oracles against the closed forms."""

import dataclasses
import math
import sys
import threading
import warnings

import numpy as np
import pytest

from vattn import (
    EXPONENTIATED_GRADIENT,
    GRID_SEARCH,
    PROJECTED_GRADIENT,
    RegularizerSpec,
    Scores,
    SimplexDistribution,
    SolverConfig,
    fenchel_conjugate,
    grid_search_simplex,
    lse,
    minimize_on_simplex,
    softmax,
    solve,
    sparsemax,
)
from vattn import oracle
from vattn.core import (
    ALIBI,
    KL_PRIOR,
    L2,
    REGULARIZER_KINDS,
    SHANNON,
    TSALLIS,
    NumericalFailure,
    key_distances,
    objective_rows,
    objective_value,
    regularizer_value,
)
from vattn.oracle import default_config
from vattn.suites import run_suite


def _sup(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(step_size=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(method="newton")


def test_default_config_choices():
    assert default_config(RegularizerSpec.shannon(1.0)).method == EXPONENTIATED_GRADIENT
    assert default_config(RegularizerSpec.kl_prior([0.5, 0.5], 1.0)).method == EXPONENTIATED_GRADIENT
    assert default_config(RegularizerSpec.l2()).method == PROJECTED_GRADIENT
    assert default_config(RegularizerSpec.tsallis(1.5)).method == PROJECTED_GRADIENT


def test_grid_method_is_not_an_iterative_solver():
    with pytest.raises(ValueError):
        minimize_on_simplex(
            Scores([0.0, 1.0]), RegularizerSpec.l2(), SolverConfig(method=GRID_SEARCH)
        )


def test_eg_matches_softmax():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = Scores(rng.uniform(-5, 5, 5))
        found = minimize_on_simplex(s, RegularizerSpec.shannon(1.0))
        assert found.converged
        assert _sup(found.distribution.weights, softmax(s, 1.0).distribution.weights) < 1e-6


def test_pg_matches_sparsemax_including_zero_pattern():
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = Scores(rng.uniform(-5, 5, 4))
        found = minimize_on_simplex(s, RegularizerSpec.l2())
        closed = sparsemax(s).distribution.weights
        assert found.converged
        assert _sup(found.distribution.weights, closed) < 1e-6
        assert np.array_equal(found.distribution.weights > 0.0, closed > 0.0)


def test_single_key_converges_immediately():
    s = Scores([2.0])
    for reg in (RegularizerSpec.shannon(1.0), RegularizerSpec.l2()):
        found = minimize_on_simplex(s, reg)
        assert found.distribution.weights[0] == 1.0
        assert found.iterations <= 1
        assert found.converged


def test_non_convergence_is_reported_not_raised():
    s = Scores([3.0, -1.0, 0.5])
    found = minimize_on_simplex(
        s, RegularizerSpec.shannon(1.0), SolverConfig(max_iterations=3, tolerance=1e-15)
    )
    assert not found.converged
    assert found.iterations == 3


def test_objective_trace_is_monotone():
    rng = np.random.default_rng(2)
    for kind_reg in (
        RegularizerSpec.shannon(0.6),
        RegularizerSpec.l2(),
        RegularizerSpec.tsallis(3.0),
    ):
        s = Scores(rng.uniform(-5, 5, 8))
        found = minimize_on_simplex(s, kind_reg)
        trace = np.asarray(found.objective_trace)
        assert np.all(np.diff(trace) <= 0.0)


def test_oracle_agreement_across_all_kinds():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = int(rng.integers(2, 17))
        s = Scores(rng.uniform(-5, 5, m))
        prior = SimplexDistribution(0.9 * rng.dirichlet(np.ones(m)) + 0.1 / m)
        for reg in (
            RegularizerSpec.shannon(1.0),
            RegularizerSpec.l2(),
            RegularizerSpec.tsallis(1.5),
            RegularizerSpec.tsallis(3.0),
            RegularizerSpec.alibi(0.7, int(rng.integers(1, m + 1)), 1.0),
            RegularizerSpec.kl_prior(prior, 0.8),
        ):
            found = minimize_on_simplex(s, reg)
            assert found.converged
            assert _sup(found.distribution.weights, solve(s, reg).distribution.weights) < 1e-6


# ------------------------------------------------------------ grid search


def test_grid_rejects_large_m_and_small_resolution():
    with pytest.raises(ValueError):
        grid_search_simplex(Scores([1.0, 2.0, 3.0, 4.0]), RegularizerSpec.l2(), 1000)
    with pytest.raises(ValueError):
        grid_search_simplex(Scores([1.0, 2.0]), RegularizerSpec.l2(), 99)


def test_grid_softmax_m2():
    s = Scores([np.log(2), 0.0])
    found = grid_search_simplex(s, RegularizerSpec.shannon(1.0), 10**6)
    assert _sup(found.distribution.weights, [2 / 3, 1 / 3]) < 2e-6


def test_grid_sparsemax_m3():
    s = Scores([1.0, 0.0, -1.0])
    found = grid_search_simplex(s, RegularizerSpec.l2(), 2000)
    assert _sup(found.distribution.weights, [1.0, 0.0, 0.0]) < 1e-3


def test_grid_constant_scores_give_uniform():
    for m, resolution in ((2, 10**4), (3, 500)):
        s = Scores(np.full(m, 0.3))
        found = grid_search_simplex(s, RegularizerSpec.shannon(1.0), resolution)
        assert _sup(found.distribution.weights, np.full(m, 1.0 / m)) <= 2.0 / resolution


def test_grid_can_never_beat_the_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = int(rng.integers(2, 4))
        s = Scores(rng.uniform(-5, 5, m))
        for reg in (
            RegularizerSpec.shannon(1.0),
            RegularizerSpec.l2(),
            RegularizerSpec.tsallis(1.5),
        ):
            found = grid_search_simplex(s, reg, 2000)
            best = objective_value(solve(s, reg).distribution, s, reg)
            assert best <= found.objective + 1e-12


# ------------------------------------------------------- fenchel conjugate


def test_fenchel_conjugate_matches_lse():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = Scores(rng.uniform(-5, 5, 4))
        assert abs(fenchel_conjugate(RegularizerSpec.shannon(1.0), s) - lse(s, 1.0)) < 1e-8


def test_fenchel_conjugate_zero_scores():
    for m in (2, 5, 9):
        for t in (0.5, 1.0, 2.0):
            s = Scores(np.zeros(m))
            assert abs(fenchel_conjugate(RegularizerSpec.shannon(t), s) - t * np.log(m)) < 1e-8


def test_fenchel_young_equality():
    rng = np.random.default_rng(6)
    for _ in range(20):
        m = int(rng.integers(2, 9))
        s = Scores(rng.uniform(-5, 5, m))
        t = float(rng.uniform(0.5, 2.0))
        reg = RegularizerSpec.shannon(t)
        p_star = softmax(s, t).distribution
        residual = (
            regularizer_value(p_star, reg)
            + fenchel_conjugate(reg, s)
            - float(np.dot(p_star.weights, s.values))
        )
        assert abs(residual) < 1e-8


# ------------------------------------- bit identity with the reference loop
#
# The descent below is the original, unoptimized loop, kept verbatim as the
# reference the library's loop must reproduce bit for bit: same iterates,
# same objective trace, same iteration count.  Both run in this process, so
# the comparison does not depend on the platform's libm.

_MIN_STEP = 1e-30


def _objective(w, s, reg):
    terms = [-(w * s.values)]
    kind = reg.kind
    safe_log = np.log(np.where(w > 0.0, w, 1.0))
    if kind == SHANNON:
        terms.append(reg.temperature * (w * safe_log))
    elif kind == L2:
        terms.append(0.5 * w * w)
    elif kind == TSALLIS:
        a = reg.alpha
        terms.append((w**a - w) / (a * (a - 1.0)))
    elif kind == ALIBI:
        terms.append(reg.temperature * (w * safe_log))
        terms.append(reg.gamma * w * key_distances(reg.query_position, w.size))
    elif kind == KL_PRIOR:
        terms.append(reg.temperature * w * (safe_log - np.log(reg.prior.weights)))
    else:
        raise ValueError(f"unknown regularizer kind {kind!r}")
    return math.fsum(np.concatenate(terms))


def _objective_gradient(w, s, reg):
    kind = reg.kind
    g = -s.values
    if kind == SHANNON:
        return g + reg.temperature * (np.log(w) + 1.0)
    if kind == L2:
        return g + w
    if kind == TSALLIS:
        a = reg.alpha
        return g + (a * w ** (a - 1.0) - 1.0) / (a * (a - 1.0))
    if kind == ALIBI:
        d = key_distances(reg.query_position, w.size)
        return g + reg.temperature * (np.log(w) + 1.0) + reg.gamma * d
    if kind == KL_PRIOR:
        return g + reg.temperature * (np.log(w / reg.prior.weights) + 1.0)
    raise ValueError(f"unknown regularizer kind {kind!r}")


def _multiplicative_step(w, g, eta):
    t = np.log(w) - eta * g
    e = np.exp(t - t.max())
    return e / e.sum()


def _project_simplex(v):
    v = v - v.max()
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u)
    k = np.arange(1, u.size + 1)
    rho = int(np.count_nonzero(1.0 + k * u > cssv))
    theta = (cssv[rho - 1] - 1.0) / rho
    return np.maximum(v - theta, 0.0)


def _projected_step(w, g, eta):
    return _project_simplex(w - eta * g)


def _reference_minimize(s, reg, cfg=None):
    if cfg is None:
        cfg = default_config(reg)
    step = (
        _multiplicative_step if cfg.method == EXPONENTIATED_GRADIENT else _projected_step
    )
    m = len(s)
    w = np.full(m, 1.0 / m)
    best = _objective(w, s, reg)
    if math.isnan(best):
        raise NumericalFailure("objective is NaN at the uniform start")
    trace = [best]
    eta = cfg.step_size
    iterations = 0
    converged = False
    for it in range(1, cfg.max_iterations + 1):
        iterations = it
        g = _objective_gradient(w, s, reg)
        slack = 2.0 * math.ulp(max(1.0, abs(best)))
        candidate = None
        while eta >= _MIN_STEP:
            trial = step(w, g, eta)
            trial_obj = _objective(trial, s, reg)
            if math.isnan(trial_obj):
                raise NumericalFailure("objective became NaN during descent")
            if trial_obj <= best + slack:
                candidate = trial
                break
            eta *= 0.5
        if candidate is None:
            converged = True
            break
        delta = float(np.max(np.abs(candidate - w)))
        w = candidate
        best = min(best, trial_obj)
        trace.append(best)
        if delta < cfg.tolerance:
            converged = True
            break
    return w, best, iterations, converged, tuple(trace)


def _reference_grid_search(s, reg, resolution):
    m = len(s)
    if m == 1:
        grid = np.ones((1, 1))
    elif m == 2:
        i = np.arange(resolution + 1, dtype=np.float64)
        grid = np.column_stack([i, resolution - i]) / resolution
    else:
        counts = np.arange(resolution + 1, 0, -1)
        i = np.repeat(np.arange(resolution + 1), counts)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        j = np.arange(i.size) - starts
        grid = np.column_stack([i, j, resolution - i - j]).astype(np.float64) / resolution
    objectives = objective_rows(grid, s, reg)
    best = int(np.argmin(objectives))
    return grid[best], float(objectives[best]), grid.shape[0]


def _random_regularizer(rng, kind, m):
    if kind == SHANNON:
        return RegularizerSpec.shannon(float(rng.choice([0.25, 0.5, 1.0, 2.0, 4.0])))
    if kind == L2:
        return RegularizerSpec.l2()
    if kind == TSALLIS:
        return RegularizerSpec.tsallis(float(rng.uniform(1.25, 4.0)))
    if kind == ALIBI:
        return RegularizerSpec.alibi(
            float(rng.uniform(0.0, 2.0)), int(rng.integers(1, m + 1)), float(rng.uniform(0.25, 4.0))
        )
    prior = 0.9 * rng.dirichlet(np.ones(m)) + 0.1 / m
    return RegularizerSpec.kl_prior(prior / prior.sum(), float(rng.uniform(0.25, 4.0)))


def _guard_instances():
    """Every kind at every m in 1..16 with its default method, plus the
    other method; one instance in ten has a score far below the rest, so
    some weights sit near (or at) underflow."""
    rng = np.random.default_rng(20251018)
    instances = []
    for index in range(240):
        m = 1 + index % 16
        kind = REGULARIZER_KINDS[index % len(REGULARIZER_KINDS)]
        values = rng.uniform(-5.0, 5.0, m)
        if index % 10 == 9:
            values[int(rng.integers(m))] = -float(rng.uniform(100.0, 900.0))
        s = Scores(values)
        reg = _random_regularizer(rng, kind, m)
        instances.append((s, reg, None))
        other = PROJECTED_GRADIENT if kind in (SHANNON, ALIBI, KL_PRIOR) else EXPONENTIATED_GRADIENT
        # The budget cap also exercises the non-converged exit.
        instances.append((s, reg, SolverConfig(method=other, max_iterations=2000)))
    return instances


def _hex_trace(trace):
    return [value.hex() for value in trace]


def test_descent_is_bit_identical_to_the_reference_loop():
    compared = nonconverged = 0
    raised = {EXPONENTIATED_GRADIENT: 0, PROJECTED_GRADIENT: 0}
    for s, reg, cfg in _guard_instances():
        method = (cfg or default_config(reg)).method
        try:
            with np.errstate(all="ignore"):
                w, best, iterations, converged, trace = _reference_minimize(s, reg, cfg)
        except NumericalFailure:
            # Only inputs the reference loop cannot finish may behave
            # differently.  Exponentiated gradient must now solve them;
            # projected gradient on an entropic kind still cannot step off
            # the boundary, and says so without a warning.
            raised[method] += 1
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if method == PROJECTED_GRADIENT:
                    with pytest.raises(NumericalFailure):
                        minimize_on_simplex(s, reg, cfg)
                    continue
                found = minimize_on_simplex(s, reg, cfg)
            assert found.converged
            assert _sup(found.distribution.weights, solve(s, reg).distribution.weights) < 1e-6
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = minimize_on_simplex(s, reg, cfg)
        compared += 1
        nonconverged += not converged
        assert found.iterations == iterations
        assert found.converged == converged
        assert _hex_trace(found.objective_trace) == _hex_trace(trace)
        assert found.objective.hex() == best.hex()
        assert found.distribution.weights.tobytes() == w.tobytes()
    assert compared >= 200
    assert min(raised.values()) >= 1
    assert nonconverged >= 1


def _grid_guard_cases():
    rng = np.random.default_rng(7)
    for m, resolution in ((2, 10**4), (3, 600)):
        for kind in REGULARIZER_KINDS:
            yield Scores(rng.uniform(-5.0, 5.0, m)), _random_regularizer(rng, kind, m), resolution


def _assert_same_grid_result(found, reference):
    point, objective, points = reference
    assert found.distribution.weights.tobytes() == point.tobytes()
    assert found.objective.hex() == objective.hex()
    assert found.iterations == points
    assert found.converged


def test_grid_search_is_bit_identical_cold_warm_and_uncached(monkeypatch):
    for s, reg, resolution in _grid_guard_cases():
        reference = _reference_grid_search(s, reg, resolution)
        oracle._GRIDS.cache_clear()
        _assert_same_grid_result(grid_search_simplex(s, reg, resolution), reference)
        _assert_same_grid_result(grid_search_simplex(s, reg, resolution), reference)
    monkeypatch.setattr(oracle._GRIDS, "max_bytes", 0)
    oracle._GRIDS.cache_clear()
    for s, reg, resolution in _grid_guard_cases():
        reference = _reference_grid_search(s, reg, resolution)
        _assert_same_grid_result(grid_search_simplex(s, reg, resolution), reference)
        assert len(oracle._GRIDS) == 0


# ------------------------------------------------------------- grid cache


def test_grid_cache_is_read_only_and_bounded():
    oracle._GRIDS.cache_clear()
    s2, s3 = Scores([0.3, -0.2]), Scores([0.3, -0.2, 1.0])
    for s, resolution in ((s2, 100), (s3, 100), (s2, 200), (s3, 300)):
        grid_search_simplex(s, RegularizerSpec.l2(), resolution)
        assert len(oracle._GRIDS) <= 2
        assert sum(g.nbytes for g in oracle._GRIDS._grids.values()) <= oracle._GRIDS.max_bytes
    grid = oracle._GRIDS.get(3, 300)
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0, 0] = 0.5
    assert oracle._GRIDS.max_bytes <= 64 * 2**20


def test_grid_cache_under_concurrent_callers():
    keys = [(2, 100), (3, 100), (2, 300), (3, 200)]
    expected = {key: oracle._barycentric_grid(*key).tobytes() for key in keys}
    failures = []

    def worker(offset):
        try:
            for index in range(500):
                key = keys[(index + offset) % len(keys)]
                if oracle._GRIDS.get(*key).tobytes() != expected[key] or len(oracle._GRIDS) > 2:
                    failures.append(key)
        except Exception as exc:  # a lost update surfaces as KeyError here
            failures.append(exc)

    oracle._GRIDS.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_oracle_equivalence_report_is_the_same_with_a_cold_or_warm_cache():
    def canonical():
        return repr(dataclasses.replace(run_suite("oracle-equivalence", 0, 2), wall_time_ms=0))

    oracle._GRIDS.cache_clear()
    cold = canonical()
    assert len(oracle._GRIDS) > 0
    assert canonical() == cold


# ------------------------------------- exact zeros under the multiplicative step


@pytest.mark.parametrize(
    "scores, reg",
    [
        ([0.0, -400.0, 3.0], RegularizerSpec.shannon(0.25)),
        ([0.0, -800.0, 3.0], RegularizerSpec.kl_prior([0.2, 0.3, 0.5], 0.25)),
        ([0.0, -800.0, 3.0], RegularizerSpec.alibi(0.5, 1, 0.25)),
    ],
)
def test_eg_keeps_an_underflowed_weight_at_zero(scores, reg):
    s = Scores(scores)
    closed = solve(s, reg).distribution.weights
    assert closed[1] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = minimize_on_simplex(s, reg)
    assert found.converged
    assert found.distribution.weights[1] == 0.0
    assert _sup(found.distribution.weights, closed) < 1e-6
