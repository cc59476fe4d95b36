"""solve workload: the library's forward and backward hot path, no oracle.

One pass runs, one call at a time:

* ``solvers.solve(Scores(x), reg)`` for all five kinds on batches of
  single rows at m = 16 (validation-bound) and m = 1000, and on one row
  of m = 1e6 keys per kind (arithmetic-bound);
* ``transport.attention_matrix`` at 64 x 64 (8 calls) and 512 x 512;
* the backward identities at m = 16: ``advantage_gradient``,
  ``chain_rule_gradient`` and ``fisher_matrix``.

The solver layer is used two opposite ways here, many tiny calls and one
huge row, so a change that speeds one at the other's cost shows.

Correctness, checked outside the timed region for every output: the
entropy family matches a max-shifted numpy softmax of its effective
logits to 1e-12; sparsemax and entmax put mass 1 on the simplex within
1e-12 and meet their threshold (KKT) condition; attention matrices match
the row-wise reference to 1e-12; the three backward forms agree to 1e-12.
"""

from __future__ import annotations

import numpy as np

import clock as clockmod
import harness

KINDS = ("shannon", "l2", "tsallis", "alibi", "kl_prior")
# name: (keys per row, rows per batch)
SIZES = {"m16": (16, 384), "m1k": (1000, 256), "m1m": (10**6, 1)}
# name: (queries = keys per call, calls per batch)
ATTENTION = {"n64": (64, 8), "n512": (512, 1)}
ATTENTION_DIM = 64
BACKWARD_ROWS = 1024
BACKWARD_FORMS = ("advantage", "chain_rule", "fisher")
MIN_PASSES = 3

# One 1e6-key row is arithmetic-bound and slows less than the interpreter
# probe when the host is busy, so the m1m rows are normalized by a task of
# their own kind, timed around them: exp and sum over 1e6 doubles.
VECTOR_PROBES = 4
VECTOR_REF_S = 2.0e-3

MATCH_TOL = 1e-12
MASS_TOL = 1e-12
# Spread of the threshold implied by each support entry, for scores in
# [-5, 5]; exact arithmetic gives zero.
THRESHOLD_TOL = 1e-10

ITEMS = (
    [f"{size}.{kind}" for size in SIZES for kind in KINDS]
    + [f"attention.{name}" for name in ATTENTION]
    + [f"backward.{form}" for form in BACKWARD_FORMS]
)


class State:
    def __init__(self, vattn):
        self.vattn = vattn
        self.rows: dict[str, dict[str, list]] = {}
        self.batches: dict[str, list] = {}
        self.temperatures: dict[str, list[float]] = {}
        self.backward: list = []
        self.vector = clockmod.Series(VECTOR_REF_S, 2 * VECTOR_PROBES)
        self.vector_data = np.linspace(-5.0, 5.0, 10**6)


def _regularizer(vattn, rng, kind: str, m: int, single: bool):
    spec = vattn.RegularizerSpec
    if kind == "shannon":
        return spec.shannon(float(rng.uniform(0.5, 2.0)))
    if kind == "l2":
        return spec.l2()
    if kind == "tsallis":
        # The bisection's length depends on alpha; the lone 1e6-key row
        # keeps one alpha so that its cost does not depend on the seed.
        return spec.tsallis(1.5 if single else float(rng.choice([1.5, 2.0, 3.0])))
    if kind == "alibi":
        return spec.alibi(
            float(rng.uniform(0.0, 2.0)), int(rng.integers(1, m + 1)), float(rng.uniform(0.5, 2.0))
        )
    prior = vattn.SimplexDistribution.renormalized(0.9 * rng.dirichlet(np.ones(m)) + 0.1 / m)
    return spec.kl_prior(prior, float(rng.uniform(0.5, 2.0)))


def setup(vattn, seed: int, workdir) -> State:
    state = State(vattn)
    for index, (size, (m, count)) in enumerate(SIZES.items()):
        rng = np.random.default_rng([seed, 1, index])
        state.rows[size] = {
            kind: [
                (rng.uniform(-5.0, 5.0, m), _regularizer(vattn, rng, kind, m, count == 1))
                for _ in range(count)
            ]
            for kind in KINDS
        }
    rng = np.random.default_rng([seed, 2])
    scale = 1.0 / np.sqrt(ATTENTION_DIM)
    for name, (n, calls) in ATTENTION.items():
        state.batches[name] = [
            vattn.QueryKeyBatch(
                rng.uniform(-1.0, 1.0, (n, ATTENTION_DIM)) * scale,
                rng.uniform(-1.0, 1.0, (n, ATTENTION_DIM)) * scale,
            )
            for _ in range(calls)
        ]
        state.temperatures[name] = [float(rng.uniform(0.5, 2.0)) for _ in range(calls)]
    rng = np.random.default_rng([seed, 3])
    for _ in range(BACKWARD_ROWS):
        t = float(rng.uniform(0.25, 4.0))
        p = vattn.softmax(vattn.Scores(rng.uniform(-5.0, 5.0, 16)), t).distribution
        state.backward.append((p, vattn.UtilityVector(rng.uniform(-3.0, 3.0, 16)), t))
    _warm_up(state)
    return state


def _warm_up(state: State) -> None:
    v = state.vattn
    for size in SIZES:
        for kind in KINDS:
            x, reg = state.rows[size][kind][0]
            v.solvers.solve(v.Scores(x), reg)
    for name in ATTENTION:
        v.transport.attention_matrix(state.batches[name][0], state.temperatures[name][0])
    p, u, t = state.backward[0]
    v.gradient.advantage_gradient(p, u, t)
    v.gradient.chain_rule_gradient(p, u, t)
    v.gradient.fisher_matrix(p, t)


# -- reference checks -------------------------------------------------


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _entropy_reference(kind: str, x: np.ndarray, reg) -> np.ndarray:
    t = reg.temperature
    if kind == "shannon":
        logits = x
    elif kind == "alibi":
        distance = np.abs(float(reg.query_position) - np.arange(1, x.size + 1, dtype=np.float64))
        logits = x - reg.gamma * distance
    else:
        logits = x + t * np.log(reg.prior.weights)
    return _softmax_rows(logits / t)


def _meets_threshold(x: np.ndarray, p: np.ndarray, alpha: float) -> bool:
    """Mass 1 within MASS_TOL, p >= 0, and p_j^(a-1)/(a-1) = x_j - theta on
    the support with x_j <= theta off it (sparsemax is alpha = 2)."""
    if p.shape != x.shape or np.any(p < 0.0) or abs(float(p.sum()) - 1.0) > MASS_TOL:
        return False
    support = p > 0.0
    theta = x[support] - p[support] ** (alpha - 1.0) / (alpha - 1.0)
    low, high = float(theta.min()), float(theta.max())
    return high - low <= THRESHOLD_TOL and bool(np.all(x[~support] <= high + THRESHOLD_TOL))


def row_ok(kind: str, x: np.ndarray, reg, weights: np.ndarray) -> bool:
    if kind == "l2":
        return _meets_threshold(x, weights, 2.0)
    if kind == "tsallis":
        return _meets_threshold(x, weights, reg.alpha)
    reference = _entropy_reference(kind, x, reg)
    return weights.shape == x.shape and float(np.max(np.abs(weights - reference))) <= MATCH_TOL


def attention_ok(batch, temperature: float, plan) -> bool:
    reference = _softmax_rows((batch.queries @ batch.keys.T) / temperature)
    return plan.entries.shape == reference.shape and float(
        np.max(np.abs(plan.entries - reference))
    ) <= MATCH_TOL


def backward_ok(p, u, t, advantage, chain, fisher) -> bool:
    forms = (advantage.score_gradient, chain, -t * (fisher.entries @ u.values))
    return all(
        float(np.max(np.abs(a - b))) <= MATCH_TOL
        for i, a in enumerate(forms)
        for b in forms[i + 1 :]
    )


# -- the pass -----------------------------------------------------------


def _vector_probe(state: State, clock: clockmod.Clock) -> None:
    for _ in range(VECTOR_PROBES):
        begin = clock.stamp()
        float(np.exp(state.vector_data).sum())
        interval = clock.interval(begin, clock.stamp())
        state.vector.add(interval.start, interval.seconds)


def run_pass(state: State, rec: harness.Recorder) -> None:
    v = state.vattn
    solve, Scores = v.solvers.solve, v.Scores
    clock = rec.clock
    for size in SIZES:
        series = state.vector if size == "m1m" else None
        if series is not None:
            _vector_probe(state, clock)
        for kind in KINDS:
            batch = state.rows[size][kind]
            outputs = []
            validation = 0.0
            begin = clock.stamp()
            for x, reg in batch:
                t0 = clock.stamp()
                scores = Scores(x)
                validation += clock.interval(t0, clock.stamp()).seconds
                outputs.append(solve(scores, reg))
            end = clock.stamp()
            rec.time(f"{size}.{kind}", begin, end, len(batch), series)
            rec.part(f"{size}.{kind}.scores", validation, begin, end, series)
            for (x, reg), result in zip(batch, outputs):
                rec.check(row_ok(kind, x, reg, result.distribution.weights))
        if series is not None:
            _vector_probe(state, clock)

    attention_matrix = v.transport.attention_matrix
    for name in ATTENTION:
        pairs = list(zip(state.batches[name], state.temperatures[name]))
        begin = clock.stamp()
        plans = [attention_matrix(batch, t) for batch, t in pairs]
        rec.time(f"attention.{name}", begin, clock.stamp(), len(pairs))
        for (batch, t), plan in zip(pairs, plans):
            rec.check(attention_ok(batch, t, plan))

    rows = state.backward
    g = v.gradient
    begin = clock.stamp()
    advantages = [g.advantage_gradient(p, u, t) for p, u, t in rows]
    middle = clock.stamp()
    chains = [g.chain_rule_gradient(p, u, t) for p, u, t in rows]
    last = clock.stamp()
    fishers = [g.fisher_matrix(p, t) for p, _, t in rows]
    end = clock.stamp()
    rec.time("backward.advantage", begin, middle, len(rows))
    rec.time("backward.chain_rule", middle, last, len(rows))
    rec.time("backward.fisher", last, end, len(rows))
    for (p, u, t), a, c, f in zip(rows, advantages, chains, fishers):
        rec.check(backward_ok(p, u, t, a, c, f), operations=len(BACKWARD_FORMS))


TRACED_PASS = run_pass
MAX_TRACED = 3


# -- reporting ------------------------------------------------------------


def figures(rec: harness.Recorder) -> dict[str, tuple[float, str]]:
    med = rec.medians()
    out = {}
    for size in ("m16", "m1k"):
        rows = len(KINDS) * SIZES[size][1]
        out[f"rows_per_s.{size}"] = (rows / sum(med[f"{size}.{k}"] for k in KINDS), "1/s")
    keys = len(KINDS) * SIZES["m1m"][0]
    out["keys_per_s.m1m"] = (keys / sum(med[f"m1m.{k}"] for k in KINDS), "1/s")
    out["attention_rows_per_s.n512"] = (
        ATTENTION["n512"][0] * ATTENTION["n512"][1] / med["attention.n512"],
        "1/s",
    )
    out["backward_rows_per_s.m16"] = (
        BACKWARD_ROWS / sum(med[f"backward.{f}"] for f in BACKWARD_FORMS),
        "1/s",
    )
    return out


def layer_figures(plain: harness.Recorder, traced: harness.Recorder) -> dict[str, float]:
    """Per-call figures from the untraced passes of a traced run (the
    spans' own overhead would otherwise inflate microsecond calls)."""
    samples = plain.samples()
    out = {}
    for size, (m, rows) in SIZES.items():
        validation = 0.0
        for kind in KINDS:
            batch = samples[f"{size}.{kind}"]
            scores = samples[f"{size}.{kind}.scores"]
            solve_s = clockmod.median(b - s for b, s in zip(batch, scores)) / rows
            out[f"solvers.{kind}.{size}.us"] = 1e6 * solve_s
            validation += clockmod.median(scores) / rows
            if size == "m1m":
                out[f"solvers.{kind}.m1m.gb_per_s_computed"] = 16.0 * m / solve_s / 1e9
        out[f"core.scores.{size}.us"] = 1e6 * validation / len(KINDS)
    med = plain.medians()
    for name, (_, calls) in ATTENTION.items():
        out[f"transport.attention_matrix.{name}.ms"] = 1e3 * med[f"attention.{name}"] / calls
    for form in BACKWARD_FORMS:
        out[f"gradient.{form}.m16.us"] = 1e6 * med[f"backward.{form}"] / BACKWARD_ROWS
    return out
