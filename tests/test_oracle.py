"""Iterative and brute-force oracles against the closed forms."""

import dataclasses
import math
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from vattn import (
    EXPONENTIATED_GRADIENT,
    PROJECTED_GRADIENT,
    QueryKeyBatch,
    RegularizerSpec,
    Scores,
    SimplexDistribution,
    SolverConfig,
    attention_matrix,
    entmax,
    fenchel_conjugate,
    grid_search_simplex,
    lse,
    minimize_on_simplex,
    softmax,
    solve,
    solve_full_eot,
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


def test_suite_tsallis_alphas_keep_projected_gradient():
    for alpha in (1.5, 2.0, 3.0):
        assert default_config(RegularizerSpec.tsallis(alpha)).method == PROJECTED_GRADIENT
    for alpha in (1.0 + 1e-12, 1.2, 1.4999):
        assert default_config(RegularizerSpec.tsallis(alpha)).method == EXPONENTIATED_GRADIENT


@pytest.mark.parametrize("alpha", [1.0 + 1e-9, 1.0 + 1e-3, 1.2])
def test_default_config_on_tsallis_near_softmax_matches_entmax(alpha):
    # Projected gradient, the default for every non-entropic kind before,
    # ended 0.37, 0.20 and 1.6e-2 away from entmax on these rows.
    reg = RegularizerSpec.tsallis(alpha)
    for m in (2, 5, 16, 40):
        s = Scores(np.random.default_rng([m, 77]).uniform(-5.0, 5.0, m))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = minimize_on_simplex(s, reg)
        assert found.converged
        assert _sup(found.distribution.weights, entmax(s, alpha).distribution.weights) <= 1e-6


def test_grid_method_is_not_an_iterative_solver():
    # Exhaustive search is grid_search_simplex, not a SolverConfig method.
    with pytest.raises(ValueError, match="unknown method 'grid-search'"):
        SolverConfig(method="grid-search")


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


def test_grid_resolution_is_an_integer_checked_before_the_search(monkeypatch):
    # The resolution is validated as SolverConfig.max_iterations is: a
    # number, then an integer, with no truncation and no overflow escaping.
    def no_build(resolution):
        raise AssertionError("a rejected resolution must not reach the table build")

    monkeypatch.setattr(oracle, "_build_table", no_build)
    oracle._last_steps = None
    s, l2 = Scores([1.0, 2.0]), RegularizerSpec.l2()
    for resolution in ("300", b"300", True, np.True_):
        with pytest.raises(TypeError):
            grid_search_simplex(s, l2, resolution)
    for resolution in (150.9, 150.0, math.inf, -math.inf, math.nan, np.float64(200), None, 99, -5):
        with pytest.raises(ValueError, match="resolution must be an integer >= 100"):
            grid_search_simplex(s, l2, resolution)
    monkeypatch.undo()
    for resolution in (150, np.int64(150), np.int32(150)):
        found = grid_search_simplex(s, l2, resolution)
        assert found.iterations == 151
        assert oracle._last_steps[0] == 150 and type(oracle._last_steps[0]) is int


def test_grid_checks_the_prior_length_before_touching_the_grid(monkeypatch):
    # A mismatched prior is rejected before the kept coordinate table is
    # dropped or a new one built.
    s2 = Scores([1.0, 2.0])
    grid_search_simplex(s2, RegularizerSpec.l2(), 150)
    kept = oracle._last_steps

    def no_build(resolution):
        raise AssertionError("a mismatched prior must not reach the table build")

    monkeypatch.setattr(oracle, "_build_table", no_build)
    prior = SimplexDistribution([0.5, 0.5])
    with pytest.raises(ValueError, match="length mismatch: prior 2 vs scores 3"):
        grid_search_simplex(Scores([1.0, 2.0, 0.5]), RegularizerSpec.kl_prior(prior, 1.0), 2000)
    assert oracle._last_steps is kept


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


_PEAK_REGULARIZERS = [
    RegularizerSpec.shannon(0.7),
    RegularizerSpec.l2(),
    *(RegularizerSpec.tsallis(alpha) for alpha in (1.05, 1.5, 2.0, 3.0)),
    RegularizerSpec.alibi(0.3, 2, 0.7),
    RegularizerSpec.kl_prior([0.2, 0.3, 0.5], 0.7),
]


def _grid_search_peaks(s, resolution, cold):
    peaks = {}
    for reg in _PEAK_REGULARIZERS:
        if cold:
            oracle._last_steps = None
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            grid_search_simplex(s, reg, resolution)
            peaks[reg.kind, reg.alpha] = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    return peaks


def test_grid_search_peak_allocation_on_the_kept_grid():
    # The search works through the 2,003,001-point grid in chunks gathered
    # from the kept coordinate table, so its temporaries are one chunk's,
    # not grid-sized.
    s = Scores([0.3, -1.2, 2.0])
    grid_search_simplex(s, RegularizerSpec.l2(), 2000)
    peaks = _grid_search_peaks(s, 2000, cold=False)
    assert oracle._last_steps[0] == 2000
    assert all(peak <= 2e6 for peak in peaks.values()), peaks


@pytest.mark.parametrize("s", [Scores([0.3, -1.2, 2.0]), Scores([1.0, 1.0, 1.0])])
def test_grid_search_peak_allocation_from_cold(s):
    # No array of a search is grid-sized, the table and the screen included:
    # a search that builds its table peaks as low as one on a kept table.
    peaks = _grid_search_peaks(s, 2000, cold=True)
    assert all(peak <= 2e6 for peak in peaks.values()), peaks


def test_grid_rejects_a_grid_too_large_to_search(monkeypatch):
    # Rejected at validation, after the resolution's own check and before
    # any table is built: such a search is never run.
    def no_build(resolution):
        raise AssertionError("an oversized grid must not reach the table build")

    monkeypatch.setattr(oracle, "_build_table", no_build)
    limit = oracle._GRID_MAX_POINTS
    assert limit >= 8 * 2_003_001
    l2 = RegularizerSpec.l2()
    for x, resolution, points in (
        ([0.1, 0.2, 0.3], 10**5, 5_000_150_001),
        ([0.1, 0.2, 0.3], 5792, 16_782_321),
        ([0.1, 0.2], limit, limit + 1),
    ):
        with pytest.raises(ValueError, match=f"visits {points} points, more than {limit}"):
            grid_search_simplex(Scores(x), l2, resolution)
    with pytest.raises(ValueError, match="resolution must be an integer >= 100"):
        grid_search_simplex(Scores([0.1, 0.2]), l2, 1e30)
    prior = SimplexDistribution([0.5, 0.5])
    with pytest.raises(ValueError, match="more than"):  # before the prior's length
        grid_search_simplex(Scores([0.1, 0.2, 0.3]), RegularizerSpec.kl_prior(prior, 1.0), 10**4)
    # A grid of one point is never too large.
    monkeypatch.undo()
    assert grid_search_simplex(Scores([0.5]), l2, 10**9).iterations == 1


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


def _reference_grid(m, resolution):
    # The barycentric grid as one whole-array evaluation builds it.
    if m == 1:
        return np.ones((1, 1))
    if m == 2:
        i = np.arange(resolution + 1, dtype=np.float64)
        return np.column_stack([i, resolution - i]) / resolution
    counts = np.arange(resolution + 1, 0, -1)
    i = np.repeat(np.arange(resolution + 1), counts)
    j = np.arange(i.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.column_stack([i, j, resolution - i - j]).astype(np.float64) / resolution


def _reference_grid_search(s, reg, resolution):
    grid = _reference_grid(len(s), resolution)
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


def test_grid_search_is_bit_identical_cold_warm_and_uncached():
    # Cold: the table is built for the search; warm: the kept table is
    # reused; uncached: a search at another resolution replaced it first.
    for s, reg, resolution in _grid_guard_cases():
        reference = _reference_grid_search(s, reg, resolution)
        oracle._last_steps = None
        _assert_same_grid_result(grid_search_simplex(s, reg, resolution), reference)
        kept = oracle._last_steps
        assert kept[0] == resolution
        _assert_same_grid_result(grid_search_simplex(s, reg, resolution), reference)
        assert oracle._last_steps is kept
    for s, reg, resolution in _grid_guard_cases():
        reference = _reference_grid_search(s, reg, resolution)
        grid_search_simplex(s, reg, resolution + 1)
        _assert_same_grid_result(grid_search_simplex(s, reg, resolution), reference)


# ------------------------------------------------- the kept coordinate table


def test_grid_cache_is_read_only_and_bounded():
    # One table is kept, the last resolution's, at 16 bytes per step; a
    # grid's steps never outnumber its points, which are bounded.
    oracle._last_steps = None
    s2, s3 = Scores([0.3, -0.2]), Scores([0.3, -0.2, 1.0])
    for s, resolution in ((s2, 100), (s3, 100), (s2, 200), (s3, 300)):
        grid_search_simplex(s, RegularizerSpec.l2(), resolution)
        key, table = oracle._last_steps
        assert key == resolution
        assert sum(array.nbytes for array in table) == 16 * (resolution + 1)
        assert resolution + 1 <= oracle._grid_size(len(s), resolution)
    grid_search_simplex(Scores([0.3]), RegularizerSpec.l2(), 500)  # m=1 keeps none
    assert oracle._last_steps[1] is table
    for array in table:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.5
    assert 16 * oracle._GRID_MAX_POINTS <= 256 * 2**20


def test_grid_cache_under_concurrent_callers():
    keys = [(2, 100), (3, 100), (2, 300), (3, 200)]
    scores = {2: Scores([0.3, -0.2]), 3: Scores([0.3, -0.2, 1.0])}
    reg = RegularizerSpec.shannon(0.7)
    expected = {}
    for m, resolution in keys:
        point, objective, _ = _reference_grid_search(scores[m], reg, resolution)
        expected[m, resolution] = (point.tobytes(), objective.hex())
    tables = {resolution: oracle._build_table(resolution) for _, resolution in keys}
    failures = []

    def worker(offset):
        try:
            for index in range(300):
                m, resolution = keys[(index + offset) % len(keys)]
                found = grid_search_simplex(scores[m], reg, resolution)
                got = (found.distribution.weights.tobytes(), found.objective.hex())
                if got != expected[m, resolution]:
                    failures.append((m, resolution))
                kept = oracle._last_steps
                if kept is not None and list(map(bytes, kept[1])) != list(map(bytes, tables[kept[0]])):
                    failures.append(kept[0])
        except Exception as exc:  # a torn slot would surface here
            failures.append(exc)

    oracle._last_steps = None
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

    oracle._last_steps = None
    cold = canonical()
    assert oracle._last_steps is not None
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


# ------------------------------------------------- lock-step rows (one descent)
#
# ``oracle._descend`` runs every row of a score matrix in lock-step; each row
# must follow exactly the iterates of the original loop run on it alone.


def _assert_same_as_reference(outcome, reference):
    w, best, iterations, converged, trace = reference
    assert outcome.iterations == iterations
    assert outcome.converged == converged
    assert _hex_trace(outcome.objective_trace) == _hex_trace(trace)
    assert outcome.objective.hex() == best.hex()
    assert outcome.distribution.weights.tobytes() == w.tobytes()


def _lockstep_batches():
    """Seeded score matrices: n and m from 1 to 8 (both 1 included), the
    transport suite's scale of scores, and its temperatures."""
    rng = np.random.default_rng(20261018)
    batches = [(np.array([[0.7]]), 1.0), (np.array([[0.3, -0.2, 0.9]]), 0.5), (np.zeros((3, 1)), 2.0)]
    for _ in range(60):
        n, m, d = int(rng.integers(1, 9)), int(rng.integers(1, 9)), int(rng.integers(1, 17))
        scale = 1.0 / np.sqrt(d)
        queries = rng.uniform(-1.0, 1.0, (n, d)) * scale
        keys = rng.uniform(-1.0, 1.0, (m, d)) * scale
        batches.append((queries @ keys.T, float(rng.choice([0.5, 1.0, np.sqrt(d)]))))
    return batches


def test_lockstep_rows_are_bit_identical_to_the_reference_loop():
    staggered = 0
    for scores, eps in _lockstep_batches():
        reg = RegularizerSpec.shannon(eps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcomes = oracle._descend(scores, [reg] * len(scores), None)
        assert len(outcomes) == len(scores)
        for row, outcome in zip(scores, outcomes):
            _assert_same_as_reference(outcome, _reference_minimize(Scores(row), reg))
        staggered += len({outcome.iterations for outcome in outcomes}) > 1
    # Rows that finish at different iterations leave the lock-step early.
    assert staggered >= 30


def test_full_eot_plan_rows_are_the_reference_rows():
    for scores, eps in _lockstep_batches()[:20]:
        n, m = scores.shape
        # queries @ I = scores, so the plan solves exactly these score rows.
        plan = solve_full_eot(QueryKeyBatch(scores, np.eye(m)), eps)
        for row, weights in zip(scores, plan.entries):
            w = _reference_minimize(Scores(row), RegularizerSpec.shannon(eps))[0]
            assert weights.tobytes() == w.tobytes()


def test_lockstep_rows_under_every_kind_and_both_methods():
    rng = np.random.default_rng(31)
    for index in range(40):
        kind = REGULARIZER_KINDS[index % len(REGULARIZER_KINDS)]
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 9))
        reg = _random_regularizer(rng, kind, m)
        scores = rng.uniform(-5.0, 5.0, (n, m))
        other = PROJECTED_GRADIENT if kind in (SHANNON, ALIBI, KL_PRIOR) else EXPONENTIATED_GRADIENT
        for cfg in (None, SolverConfig(method=other, max_iterations=300)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                outcomes = oracle._descend(scores, [reg] * n, cfg)
            for row, outcome in zip(scores, outcomes):
                try:
                    with np.errstate(all="ignore"):
                        reference = _reference_minimize(Scores(row), reg, cfg)
                except NumericalFailure:
                    # Projected gradient on an entropic kind at the boundary.
                    assert isinstance(outcome, NumericalFailure)
                    continue
                _assert_same_as_reference(outcome, reference)


def test_lockstep_keeps_an_underflowed_row_at_zero_beside_ordinary_rows():
    scores = np.array([[0.5, -0.5, 0.0], [0.0, -800.0, 3.0], [1.0, 2.0, 3.0]])
    reg = RegularizerSpec.shannon(0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcomes = oracle._descend(scores, [reg] * 3, None)
        alone = minimize_on_simplex(Scores(scores[1]), reg)
    for index in (0, 2):
        _assert_same_as_reference(outcomes[index], _reference_minimize(Scores(scores[index]), reg))
    underflowed = outcomes[1]
    assert underflowed.converged
    assert underflowed.distribution.weights[1] == 0.0
    assert underflowed.distribution.weights.tobytes() == alone.distribution.weights.tobytes()
    assert _hex_trace(underflowed.objective_trace) == _hex_trace(alone.objective_trace)
    closed = softmax(Scores(scores[1]), 0.25).distribution.weights
    assert _sup(underflowed.distribution.weights, closed) < 1e-6


def test_full_eot_with_an_underflowed_row():
    batch = QueryKeyBatch([[1.0], [0.5]], [[0.0], [-800.0], [3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = solve_full_eot(batch, 0.25)
    assert plan.entries[0, 1] == 0.0
    assert _sup(plan.entries, attention_matrix(batch, 0.25).entries) < 1e-6


def test_projection_of_a_row_holding_nan_beside_ordinary_rows():
    # An infinite trial entry leaves NaN after the max shift, so no entry
    # lies above the projection's line: that row comes out NaN, as the
    # reference projection's does, and the other rows keep their bits,
    # whichever position it takes in the layout.
    rng = np.random.default_rng(7)
    for lengths in ((3,), (2, 3), (2, 2, 3), (3, 3, 5)):
        for bad in range(len(lengths)):
            rows = oracle._Ragged(np.array(lengths))
            start = [rng.uniform(0.0, 1.0, m) for m in lengths]
            start[bad][-1] = np.inf
            grad = [rng.uniform(-1.0, 1.0, m) for m in lengths]
            flat_start, flat_grad = np.concatenate(start), np.concatenate(grad)
            eta = rows.spread([0.1] * len(lengths))
            with np.errstate(invalid="ignore"):
                found = oracle._projected_step(flat_start, flat_grad, eta, rows)
                for row, (lo, hi) in enumerate(zip(rows.starts, rows.ends)):
                    expected = _projected_step(start[row], grad[row], 0.1)
                    assert found[lo:hi].tobytes() == expected.tobytes()
            assert np.isnan(found[rows.starts[bad] : rows.ends[bad]]).all()


def test_lockstep_row_failing_first_does_not_hold_back_the_others():
    # An infinite score makes the first row's step NaN at iteration 1; the
    # row beside it converges at that same iteration, as it does alone.
    reg = RegularizerSpec.shannon(1.0)
    with np.errstate(invalid="ignore"):
        failed, alone = oracle._descend(np.array([[np.inf], [0.5]]), [reg, reg], None)
    assert str(failed) == "objective became NaN during descent"
    _assert_same_as_reference(alone, _reference_minimize(Scores([0.5]), reg))
    assert alone.iterations == 1 and alone.converged


def _spy_on_steps(monkeypatch):
    # Each step call's step sizes, one per entry, and its row count.
    steps = []
    for name in ("_multiplicative_step", "_projected_step"):

        def spying(start, grad, eta, rows, step=getattr(oracle, name)):
            steps.append((eta.copy(), len(rows.lengths)))
            return step(start, grad, eta, rows)

        monkeypatch.setattr(oracle, name, spying)
    return steps


def test_rows_rejecting_in_different_rounds_are_the_reference_rows(monkeypatch):
    # At step size 5.0 rows reject often, each in its own rounds: a row
    # that rejects waits at its iterate with half its step size while the
    # others step on, and each row has its own budget of accepted steps.
    steps = _spy_on_steps(monkeypatch)
    rng = np.random.default_rng(19)
    compared = 0
    for index in range(20):
        kind = REGULARIZER_KINDS[index % len(REGULARIZER_KINDS)]
        lengths = rng.integers(1, 9, int(rng.integers(3, 7))).tolist()
        if kind == TSALLIS:
            regs = [RegularizerSpec.tsallis(float(rng.uniform(1.25, 4.0)))] * len(lengths)
        else:
            regs = [_random_regularizer(rng, kind, m) for m in lengths]
        scores = [rng.uniform(-5.0, 5.0, m) for m in lengths]
        for method in (EXPONENTIATED_GRADIENT, PROJECTED_GRADIENT):
            for budget in (1, 2, 3, 7):
                cfg = SolverConfig(max_iterations=budget, step_size=5.0, method=method)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    outcomes = oracle._descend(scores, regs, cfg)
                for row, reg, outcome in zip(scores, regs, outcomes):
                    try:
                        with np.errstate(all="ignore"):
                            reference = _reference_minimize(Scores(row), reg, cfg)
                    except NumericalFailure:
                        assert isinstance(outcome, NumericalFailure)
                        continue
                    _assert_same_as_reference(outcome, reference)
                    compared += 1
    assert compared >= 500
    # Rows at different step sizes share a step: they rejected in
    # different rounds.
    assert sum(len(np.unique(eta)) > 1 for eta, _ in steps) >= 100


def test_one_row_rejecting_builds_no_sub_layout(monkeypatch):
    # A rejected step is the next round's step: only compaction, which one
    # row never needs, takes rows out of the layout.
    steps = _spy_on_steps(monkeypatch)
    takes = []
    take = oracle._Ragged.take
    monkeypatch.setattr(oracle._Ragged, "take", lambda *args: takes.append(args) or take(*args))
    s, reg = Scores([0.3, -1.2, 2.5, 0.8]), RegularizerSpec.shannon(0.5)
    found = minimize_on_simplex(s, reg, SolverConfig(step_size=5.0))
    assert min(eta.min() for eta, _ in steps) < 5.0  # it rejected
    assert found.converged and not takes
    _assert_same_as_reference(found, _reference_minimize(s, reg, SolverConfig(step_size=5.0)))


@pytest.mark.parametrize("alpha", [1.0 + 1e-9, 1.0 + 1e-6])
def test_exponentiated_gradient_on_tsallis_near_softmax_matches_entmax(alpha):
    # (w^a - w) / (a (a-1)) and its gradient cancel near alpha = 1, with
    # relative error ~1e-16 / (alpha - 1); their expm1 forms do not.
    rng = np.random.default_rng(23)
    reg = RegularizerSpec.tsallis(alpha)
    pairs = [(Scores(rng.uniform(-5.0, 5.0, int(m))), reg) for m in rng.integers(2, 41, 20)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcomes = oracle._minimize_many(pairs, SolverConfig(method=EXPONENTIATED_GRADIENT))
    for (s, _), found in zip(pairs, outcomes):
        assert _sup(found.distribution.weights, entmax(s, alpha).distribution.weights) < 1e-6


def test_lockstep_step_size_below_the_floor_stops_at_once():
    scores = np.array([[0.3, -0.2], [1.0, 0.0]])
    reg = RegularizerSpec.shannon(1.0)
    cfg = SolverConfig(step_size=1e-40)
    for row, outcome in zip(scores, oracle._descend(scores, [reg] * 2, cfg)):
        _assert_same_as_reference(outcome, _reference_minimize(Scores(row), reg, cfg))
        assert outcome.iterations == 1 and outcome.converged


# ------------------------------------------------------- grid entropy terms


def test_grid_entries_carry_their_entropy_terms():
    # Every chunk's rows, gathered from the kept table, are the grid's, and
    # carry sum_j p_j log p_j as np.sum forms it on the grid.
    oracle._last_steps = None
    l2 = RegularizerSpec.l2()
    chunk = oracle._GRID_CHUNK_ROWS
    for m, resolution in ((2, 150), (3, 120), (2, chunk), (3, 180)):
        found = grid_search_simplex(Scores(np.zeros(m)), l2, resolution)
        key, table = oracle._last_steps
        assert key == resolution
        assert table.values.tobytes() == (np.arange(resolution + 1) / resolution).tobytes()
        points = _reference_grid(m, resolution)
        assert len(points) == found.iterations == oracle._grid_size(m, resolution)
        starts = oracle._block_starts(resolution)
        for lo in range(0, len(points), chunk):
            rows = slice(lo, min(lo + chunk, len(points)))
            gathered, xlogx = oracle._grid_rows(m, table, rows, starts)
            assert gathered.tobytes() == points[rows].tobytes()
            safe = np.where(points[rows] > 0.0, points[rows], 1.0)
            assert xlogx.tobytes() == np.sum(points[rows] * np.log(safe), axis=1).tobytes()
        assert not table.xlogx.flags.writeable
    assert grid_search_simplex(Scores([0.5]), l2, 100).iterations == 1


def test_grid_cache_makes_room_before_building(monkeypatch):
    reg = RegularizerSpec.shannon(1.0)
    grid_search_simplex(Scores([0.1, 0.2]), reg, 100)
    previous = weakref.ref(oracle._last_steps[1].values)
    # The kept table is dropped and freed before the next one is built: the
    # two are never held together.
    held = []
    build = oracle._build_table

    def recording_build(resolution):
        held.append(oracle._last_steps)
        assert previous() is None
        return build(resolution)

    monkeypatch.setattr(oracle, "_build_table", recording_build)
    grid_search_simplex(Scores([0.1, 0.2, 0.3]), reg, 200)
    assert held == [None]
    key, kept = oracle._last_steps
    assert key == 200
    # Both sizes at one resolution share its table: no build.
    found = grid_search_simplex(Scores([0.1, 0.2]), reg, 200)
    assert found.iterations == 201
    assert held == [None]
    assert oracle._last_steps[1] is kept


# ------------------------------------- many instances (one descent per group)
#
# ``oracle._minimize_many`` groups (scores, regularizer) pairs by kind and
# alpha and runs each group as one lock-step descent, every row under its own
# parameters; each outcome must be the one ``minimize_on_simplex`` gives the
# pair alone.


def _many_pairs():
    """Every kind at m 1..6, tsallis at three alphas so its groups hold
    several rows; tau, gamma, position and prior drawn per pair; and the
    underflow rows beside ordinary ones."""
    rng = np.random.default_rng(20261019)
    pairs = []
    for index in range(150):
        kind = REGULARIZER_KINDS[index % len(REGULARIZER_KINDS)]
        m = int(rng.integers(1, 7))
        if kind == TSALLIS:
            reg = RegularizerSpec.tsallis(float(rng.choice([1.5, 2.0, 3.0])))
        else:
            reg = _random_regularizer(rng, kind, m)
        pairs.append((Scores(rng.uniform(-5.0, 5.0, m)), reg))
    underflow = Scores([0.0, -800.0, 3.0])
    pairs += [
        (underflow, RegularizerSpec.shannon(0.25)),
        (underflow, RegularizerSpec.kl_prior([0.2, 0.3, 0.5], 0.25)),
        (underflow, RegularizerSpec.alibi(0.5, 1, 0.25)),
    ]
    return pairs


def _outcome_alone(s, reg, cfg):
    try:
        return minimize_on_simplex(s, reg, cfg)
    except NumericalFailure as failure:
        return failure


def test_many_pairs_are_bit_identical_to_one_solve_each():
    pairs = _many_pairs()
    # The rows of one descent, (kind, alpha), and the rows of one length
    # within it, (m, kind, alpha), which share a (rows, m) block: both hold
    # several rows, with parameters of their own.
    for key in (lambda s, reg: (reg.kind, reg.alpha), lambda s, reg: (len(s), reg.kind, reg.alpha)):
        groups = {}
        for s, reg in pairs:
            groups.setdefault(key(s, reg), []).append(reg)
        assert max(map(len, groups.values())) >= 8
        for kind, field in ((SHANNON, "temperature"), (ALIBI, "gamma"), (ALIBI, "query_position")):
            assert any(
                len({getattr(reg, field) for reg in regs}) > 1
                for regs in groups.values()
                if regs[0].kind == kind
            ), (kind, field)
        assert any(
            len({reg.prior.weights.tobytes() for reg in regs}) > 1
            for regs in groups.values()
            if regs[0].kind == KL_PRIOR
        )
    configs = (
        None,
        # A capped budget leaves rows unconverged.
        SolverConfig(max_iterations=40, method=EXPONENTIATED_GRADIENT),
        # Projected gradient on an entropic kind fails at the boundary.
        SolverConfig(max_iterations=300, method=PROJECTED_GRADIENT),
    )
    seen = {"converged": 0, "nonconverged": 0, "failed": 0, "staggered": 0}
    for cfg in configs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcomes = oracle._minimize_many(pairs, cfg)
            alone = [_outcome_alone(s, reg, cfg) for s, reg in pairs]
        assert len(outcomes) == len(pairs)
        iterations = {}
        for (s, reg), outcome, expected in zip(pairs, outcomes, alone):
            if isinstance(expected, NumericalFailure):
                assert isinstance(outcome, NumericalFailure)
                assert str(outcome) == str(expected)
                seen["failed"] += 1
                continue
            assert isinstance(outcome, oracle.OracleResult)
            assert outcome.iterations == expected.iterations
            assert outcome.converged == expected.converged
            assert _hex_trace(outcome.objective_trace) == _hex_trace(expected.objective_trace)
            assert outcome.objective.hex() == expected.objective.hex()
            assert outcome.distribution.weights.tobytes() == expected.distribution.weights.tobytes()
            seen["converged" if outcome.converged else "nonconverged"] += 1
            iterations.setdefault((len(s), reg.kind, reg.alpha), set()).add(outcome.iterations)
        seen["staggered"] += sum(len(found) > 1 for found in iterations.values())
    assert all(count > 0 for count in seen.values()), seen
    assert seen["staggered"] >= 20
    # The underflowed weight stays exactly zero in the batch, as alone.
    for outcome in oracle._minimize_many(pairs[-3:]):
        assert outcome.converged and outcome.distribution.weights[1] == 0.0


# ``_minimize_many`` runs each (kind, alpha) group as one descent over rows
# of every length; each row must still follow the reference loop run on it
# alone.


def _mixed_length_pairs():
    """Seeded pairs of every kind at m 1..20, tsallis at three alphas, in
    input order that mixes short and long rows; then rows with an entry far
    below the rest, whose weight underflows to exactly zero, at m = 3 and
    m = 12."""
    rng = np.random.default_rng(20261021)
    pairs = []
    for index in range(60):
        kind = REGULARIZER_KINDS[index % len(REGULARIZER_KINDS)]
        m = int(rng.integers(1, 21))
        if kind == TSALLIS:
            reg = RegularizerSpec.tsallis(float(rng.choice([1.5, 2.0, 3.0])))
        else:
            reg = _random_regularizer(rng, kind, m)
        pairs.append((Scores(rng.uniform(-5.0, 5.0, m)), reg))
    for values in ([0.0, -800.0, 3.0], [1.0] * 5 + [-800.0] + [2.0] * 6):
        m = len(values)
        prior = np.linspace(1.0, 2.0, m)
        for reg in (
            RegularizerSpec.shannon(0.25),
            RegularizerSpec.kl_prior(prior / prior.sum(), 0.25),
            RegularizerSpec.alibi(0.5, 1, 0.25),
        ):
            pairs.append((Scores(values), reg))
    return pairs


def test_mixed_length_rows_are_bit_identical_to_the_reference_loop(monkeypatch):
    pairs = _mixed_length_pairs()
    calls = []
    descend = oracle._descend

    def recording_descend(scores, regs, cfg):
        calls.append(({(reg.kind, reg.alpha) for reg in regs}, sorted(map(len, scores))))
        return descend(scores, regs, cfg)

    monkeypatch.setattr(oracle, "_descend", recording_descend)
    groups = {(reg.kind, reg.alpha) for _, reg in pairs}
    configs = (
        None,
        SolverConfig(method=EXPONENTIATED_GRADIENT, max_iterations=300),
        SolverConfig(method=PROJECTED_GRADIENT, max_iterations=300),
    )
    seen = {"reference": 0, "nonconverged": 0, "underflow": 0, "failed": 0}
    for cfg in configs:
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcomes = oracle._minimize_many(pairs, cfg)
        # One descent per (kind, alpha), each over rows of several lengths,
        # long ones among short ones.
        assert sorted(key for keys, _ in calls for key in keys) == sorted(groups)
        assert all(len(keys) == 1 for keys, _ in calls)
        assert sum(lengths[0] <= 3 and lengths[-1] >= 8 for _, lengths in calls) >= 4
        assert min(lengths[0] for _, lengths in calls) == 1
        assert max(lengths[-1] for _, lengths in calls) == 20
        for (s, reg), outcome in zip(pairs, outcomes):
            method = (cfg or default_config(reg)).method
            try:
                with np.errstate(all="ignore"):
                    reference = _reference_minimize(s, reg, cfg)
            except NumericalFailure:
                # The reference loop cannot finish: projected gradient on an
                # entropic kind at the boundary fails here too; exponentiated
                # gradient keeps an underflowed weight at exactly zero.
                alone = _outcome_alone(s, reg, cfg)
                if method == PROJECTED_GRADIENT:
                    assert isinstance(outcome, NumericalFailure)
                    assert str(outcome) == str(alone)
                    seen["failed"] += 1
                    continue
                weights = outcome.distribution.weights
                assert weights.tobytes() == alone.distribution.weights.tobytes()
                assert _hex_trace(outcome.objective_trace) == _hex_trace(alone.objective_trace)
                assert outcome.iterations == alone.iterations
                assert weights[np.argmin(s.values)] == 0.0
                seen["underflow"] += 1
                continue
            _assert_same_as_reference(outcome, reference)
            seen["reference"] += 1
            seen["nonconverged"] += not outcome.converged
    assert all(count > 0 for count in seen.values()), seen


def test_many_pairs_edge_cases():
    assert oracle._minimize_many([]) == []
    s = Scores([0.3, -0.2])
    with pytest.raises(ValueError, match="unknown method"):
        oracle._minimize_many([(s, RegularizerSpec.l2())], SolverConfig(method="grid-search"))
    # One pair is one row: minimize_on_simplex's own call.
    (outcome,) = oracle._minimize_many([(s, RegularizerSpec.shannon(0.5))])
    alone = minimize_on_simplex(s, RegularizerSpec.shannon(0.5))
    assert outcome.distribution.weights.tobytes() == alone.distribution.weights.tobytes()


def test_an_alibi_penalty_overflowing_at_every_key_is_rejected_before_any_descent(monkeypatch):
    # gamma * d is inf at the nearest key, so at every key: the closed form
    # has no finite logit either.  The oracle raises the closed form's
    # error before any descent, where it used to warn and end on a NaN.
    calls = []
    descend = oracle._descend
    monkeypatch.setattr(oracle, "_descend", lambda *args: calls.append(args) or descend(*args))
    s = Scores(np.linspace(-1.0, 1.0, 7))
    overflowing = [
        RegularizerSpec.alibi(1e300, 10**15, 1.0),
        RegularizerSpec.alibi(sys.float_info.max, 9, 1.0),  # two keys past the last
        RegularizerSpec.alibi(1e308, 2**60 + 1, 0.5),  # past the doubles' integers
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for reg in overflowing:
            with pytest.raises(ValueError) as closed:
                solve(s, reg)
            with pytest.raises(ValueError) as raised:
                minimize_on_simplex(s, reg)
            assert str(raised.value) == str(closed.value)
            assert "overflows at every key" in str(raised.value)
            with pytest.raises(ValueError):
                oracle._minimize_many([(s, RegularizerSpec.shannon(1.0)), (s, reg)])
        assert calls == []
        # The nearest key's penalty is finite (and every other's): solved.
        reg = RegularizerSpec.alibi(1e300, 8, 1.0)
        found = minimize_on_simplex(s, reg)
        expected = solve(s, reg).distribution.weights
        assert found.converged and _sup(found.distribution.weights, expected) < 1e-12


def _uniform_scores(m):
    return Scores(np.random.default_rng(0).uniform(-5.0, 5.0, m))


_SPIKE_PRIOR = SimplexDistribution.renormalized([1e-300] * 6 + [1.0])
_PAIR_PRIOR = SimplexDistribution.renormalized([1e-300, 1.0])


@pytest.mark.parametrize(
    "s, reg",
    [
        # Every term finite, their partial sums past DBL_MAX at the uniform start.
        (_uniform_scores(7), RegularizerSpec.alibi(1e308, 1, 1.0)),
        (_uniform_scores(1000), RegularizerSpec.alibi(1e306, 1, 1.0)),
        (_uniform_scores(16), RegularizerSpec.alibi(1.7e308, 16, 1.0)),
        (Scores(np.arange(1.0, 8.0)), RegularizerSpec.kl_prior(_SPIKE_PRIOR, 1e306)),
        # gamma * d overflows at the far keys only.
        (_uniform_scores(7), RegularizerSpec.alibi(1e308, 4, 1.0)),
    ],
)
def test_a_penalty_past_the_double_range_is_solved_without_error_or_warning(s, reg):
    # +inf is the overflowing penalty's defined limit: the descent converges
    # to the closed form's weights, and neither raises nor warns.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = minimize_on_simplex(s, reg)
        expected = solve(s, reg).distribution.weights
    assert found.converged
    assert _sup(found.distribution.weights, expected) < 1e-6


@pytest.mark.parametrize(
    "reg", [RegularizerSpec.kl_prior(_PAIR_PRIOR, 1e306), RegularizerSpec.alibi(1e308, 3, 1.0)]
)
def test_grid_search_takes_an_overflowing_penalty_as_inf(reg):
    s = Scores([1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = grid_search_simplex(s, reg, 100)
        expected = solve(s, reg).distribution.weights
    assert found.converged
    assert _sup(found.distribution.weights, expected) < 1e-6
    assert found.distribution.weights.tolist() == [0.0, 1.0]


def test_grid_search_follows_the_oracles_rules_at_the_double_range(monkeypatch):
    # An alibi penalty that overflows at every key is the closed forms'
    # error, raised before any grid is built; an objective past the double
    # range is inf, as in the descent, without a warning.
    builds = []
    build = oracle._build_table
    monkeypatch.setattr(oracle, "_build_table", lambda *args: builds.append(args) or build(*args))
    monkeypatch.setattr(oracle, "_last_steps", None)
    s, reg = Scores([1.0, 2.0]), RegularizerSpec.alibi(1e308, 5, 1.0)
    prior = SimplexDistribution([0.5, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as closed:
            solve(s, reg)
        with pytest.raises(ValueError) as raised:
            grid_search_simplex(s, reg, 100)
        assert builds == []
        found = grid_search_simplex(
            Scores([-1.7e308, 0.0]), RegularizerSpec.kl_prior(prior, 1e308), 100
        )
    assert str(raised.value) == str(closed.value)
    assert found.distribution.weights.tolist() == [0.15, 0.85]
    assert math.isfinite(found.objective)


def test_objective_value_of_an_overflowing_penalty_is_inf():
    reg = RegularizerSpec.kl_prior(_PAIR_PRIOR, 1e306)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = objective_value(SimplexDistribution([0.5, 0.5]), Scores([1.0, 2.0]), reg)
    assert value == math.inf


_MAX = sys.float_info.max


@pytest.mark.parametrize(
    "row, expected",
    [
        # Finite terms whose partial sums pass DBL_MAX: the exact sum.
        ([1e308, 1e308, -1e308], 1e308),
        ([_MAX, 2.0**970, -(2.0**970)], _MAX),
        ([5e-324, 1e308, 1e308, -1e308], 1e308),
        # Past the double range, rounded once: +-inf.
        ([1e308, 1e308], math.inf),
        ([-1e308, -1e308], -math.inf),
        ([_MAX, 2.0**970], math.inf),  # half an ulp past DBL_MAX: ties to even
        ([_MAX, 2.0**970, -5e-324], _MAX),  # just under half an ulp past it
        # An infinite term beside overflowing finite partial sums decides.
        ([1e308, 1e308, -math.inf], -math.inf),
        ([math.inf, -1e308, -1e308], math.inf),
    ],
)
def test_row_sum_where_fsum_overflows(row, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (total,) = oracle._Ragged(np.array([len(row)])).fsum(np.array(row))
    assert total == expected


def test_row_sum_of_opposite_infinities_is_nan():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = oracle._Ragged(np.array([3, 3]))
        totals = rows.fsum(np.array([math.inf, 1.0, -math.inf, 1e308, 1e308, 1.0]))
    assert math.isnan(totals[0]) and totals[1] == math.inf


def _wide_rows(rng, lengths, count):
    # Terms of both signs across most of the double range's exponents.
    size = int(sum(lengths))
    return [
        rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300.0, 300.0, size)
        for _ in range(count)
    ]


def _fsum_rows(lengths, terms):
    ends = np.cumsum(lengths).tolist()
    return [
        math.fsum(np.concatenate([term[end - m : end] for term in terms]).tolist())
        for m, end in zip(lengths, ends)
    ]


def test_row_sums_beside_an_overflowing_row_keep_fsums_bits():
    rng = np.random.default_rng(21)
    lengths = [1, 2, 2, 3, 5, 5]
    terms = _wide_rows(rng, lengths, 2)
    terms[0][5:8] = [1e308, 1e308, -1e308]  # the row of length 3
    terms[1][5:8] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        totals = oracle._Ragged(np.array(lengths)).fsum(*terms)
    expected = _fsum_rows(lengths[:3], [term[:5] for term in terms])
    expected += [1e308] + _fsum_rows(lengths[4:], [term[8:] for term in terms])
    assert [value.hex() for value in totals] == [value.hex() for value in expected]


def test_row_sums_that_do_not_overflow_are_fsums():
    rng = np.random.default_rng(22)
    for _ in range(50):
        lengths = np.sort(rng.integers(1, 17, int(rng.integers(1, 8))))
        terms = _wide_rows(rng, lengths, int(rng.integers(1, 4)))
        totals = oracle._Ragged(lengths).fsum(*terms)
        expected = _fsum_rows(lengths.tolist(), terms)
        assert [value.hex() for value in totals] == [value.hex() for value in expected]
