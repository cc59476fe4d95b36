"""Check that two source trees give the same verify reports, check by check.

    python3 tools/same_reports.py OLD_SRC NEW_SRC --seeds 0 1 2 3 4 --trials 100

OLD_SRC and NEW_SRC are directories holding the ``vattn`` package (a
checkout's ``src/``).  Each tree runs ``suites.run_suite`` for every suite
and seed in its own subprocess, one tree after the other.  A check's
canonical report is its ``CheckResult`` repr (residuals at full
precision); a suite's is its ``RunReport`` with ``wall_time_ms`` zeroed. A
report keeps only a check's worst residual, so a changed solve could hide
behind an unchanged maximum.  So each tree also records every row that
``oracle._descend`` solves while a suite runs (its score bytes, its
regularizer and configuration, and its outcome: weight bytes, objective,
iterations, convergence and trace, or the error) and reports, per seed and
suite, the row count and a SHA-256 of the sorted row digests: the multiset
of row outcomes, whatever order or grouping the rows were solved in.
Likewise for every ``oracle.grid_search_simplex`` call of a suite (its
scores, regularizer and resolution, and the found point's bytes, its
objective as ``float.hex`` and its iteration count), since a check's grid
searches may run in another order.  And it solves, per seed and transport
check, the ``solve_full_eot`` plan of every batch the transport suite
draws (same generator keys) and reports a SHA-256 of the plan bytes, or
the error a solve raised.  It hashes the ``oracle._minimize_many``
outcomes (weight bytes, objective, iterations, convergence and trace, or
the error) of 18 seeded rows of mixed lengths from 1 to 16 per kind
(tsallis at alphas 1.5, 2 and 3), one in three at scale 100, under both
methods at budgets 1, 2, 3, 7, 40 and 300 and step sizes 0.1 and 5.0:
the suites run their descents at the default budget only.  Under the same
methods, budgets and step sizes it hashes the same outcomes of one-row
``oracle.minimize_on_simplex`` calls, each row a descent of its own: every
kind (tsallis at alphas 1.2, 1.5, 2 and 3) on seeded rows of m = 1 to 16,
one in three at scale 100.  Each tree also hashes the ``solvers.solve``
weight bytes (or the error) of a fixed seeded list of rows, with each
result's support size, and, in a report of their own, the softmax family's
potentials, with ``lse`` and ``primal_value`` of the logits the kind
solves at its temperature (all as ``float.hex``): every kind at m=16
and m=1000, tsallis at nine alphas from 1.0001 to 10 (10 enters entmax's
stiff corner), and one 1e6-key row per kind; and tsallis at alphas 1.5, 2
and 3 on tied rows and on rows with one dominant score (entmax's root at y
= 0), at m=16 and m=1000; the softmax family where most shifted logits
underflow (alibi at m=1e4 and 1e5 with the query at either end, softmax
at tau 1e-3 on a 1e5-key row, kl_prior with prior entries down to
1e-320); alibi and kl_prior at m=16 and 1e5 whose penalties come within a
factor of 2 of DBL_MAX without overflowing; softmax at m=16 and 1000 on
rows that take the overflow guard; and sparsemax, tied and
untied, at m=1023, 1024 (its candidate threshold) and 1e5; entmax at m=1e5
and alphas 1.5, 2, 3 and 10, on rows whose root lies just below y = 0 (m =
128 to 1000), and at alphas 1 + 1e-5 and 1 + 3e-5 (m=16 and 1000); and
sparsemax at m = 1024, 4096 and 1e5 on rows of spread <= 0.8, where every
entry is a candidate; entmax on rows of 128, 200 and 1e5 keys that reach
its stiff corner, and sparsemax at m = 1024, 2048 and 1e5 on rows whose
spread overflows; and entmax at alpha 1.5 on rows of 1025, 4096 and 1e5
keys where more than 1024 entries pass its first cut (so its K-th largest
bound applies), on rows of 16, 1000 and 1e5 keys with one dominant score
over a plateau (also at alphas 2 and 3), and on rows of 16, 1024 and 1e5
keys whose spread overflows; alibi at m = 1e4, 1e5 and 1e6 where only
the keys within reach of the query are evaluated (the query at either
end, in the middle, just past the row and far past it, and keys at the
window's edges whose shifted logits lie within 1e-9 of -746) and where
every key is (gamma 0, and far keys whose penalty overflows); and softmax
rows of 16, 1000 and 1e5 keys whose weights underflow to exact zeros, so
the support is counted.  It hashes the grid searches of a seeded list,
each searched twice in a row: m from 1 to 3, every kind (tsallis at alphas
1.5, 2 and 3), at resolutions 100, 2000 and, for m <= 2, 1e6; and around
the search's 2^14-row chunks: m=2 grids of 2^14 - 1, 2^14 and 2^14 + 1
points, an m=3 grid just over one chunk, and equal scores whose tied
minima straddle a chunk boundary (at m=2, and at m=3, where the search's
screen keeps more than one chunk); and m=3 searches near the double range
(scores near +-1e300 and +-DBL_MAX, an overflowing alibi penalty, kl_prior
at tau 1e308), most of which evaluate every chunk.  It hashes
the output bytes (or the error) of ``advantage_gradient``,
``chain_rule_gradient``, ``softmax_jacobian`` and ``fisher_matrix`` on 40
seeded rows at m=16, and of ``cost_matrix``, ``attention_matrix`` and
``context`` on one seeded 64x64 batch; the ``attention_matrix`` plans at n
x m in {1x1, 1x7, 7x1, 13x37, 512x512} and temperatures 1e-8, 1 and 1e8,
and on a 13x37 batch whose rows at scale 1e308 take the overflow-guarded
path; the ``solve_full_eot`` plans (or the errors' type and text) of 12
seeded finite batches at budgets 1, 5 and 300; and the error text of a
batch whose similarities overflow.  It hashes the softmax family where few
shifted quotients survive the exp cut: softmax (with its potential, ``lse``
and ``primal_value``) and kl_prior on rows of 1e3, 1e5 and 1e6 keys where
0.1%, 1% and 9% survive, as one window or scattered, at tau 1 and 1e-3,
and alibi at those shares with its window engaged and standing down
(scores near 3e307, a query past 2^53); ``attention_matrix`` at tau 1e-3
and 1 on a batch whose cut rows keep under a tenth of their entries,
beside plain and guarded rows; and ``eot_matrix_objective``,
``objective_value`` and ``regularizer_value`` as ``float.hex`` on plans
and weights with exact zeros, every kind.  It
hashes the outcomes (the accepted bytes, or the exception's type and
message, every warning raised as an exception) of ``SimplexDistribution``
and of ``SolveResult`` with the right support size and one off either
way, on a seeded list of edge rows (NaN, +-inf, signed zeros,
subnormals, entries near the double range's ends, sums one ulp either
side of the tolerance, lists, 2-D and empty input), and of
``FisherMatrix`` and ``JacobianMatrix`` on seeded matrices near the
positive semidefinite boundary (the library's own with a nudged
diagonal, a given least eigenvalue, 2x2 blocks where Gershgorin's bound
is tight, some skewed by one ulp) and a few malformed ones.  Last,
each tree makes a fixed list of in-process ``vattn.cli.main`` calls
(``attn`` for every kind, by flags and by a file ``regularizer`` object;
``transport`` closed form and oracle; ``gradcheck``; malformed inputs and
flag combinations, malformed numbers in every field and in both prior
sources) on inputs written to a temporary directory, and reports each
call's exit code and stdout, with ``wall_time_ms`` zeroed, or the type and
message of the exception ``main`` raised; stderr is not compared. Prints
every report that differs and exits 1, or exits 0 when every report is
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

CHILD = """
import dataclasses, json, sys
src, trials, seeds = sys.argv[1], int(sys.argv[2]), [int(x) for x in sys.argv[3:]]
sys.path.insert(0, src)
import hashlib
import numpy as np
import vattn
from vattn import oracle, suites, transport
from vattn.core import NumericalFailure, RegularizerSpec
print(json.dumps(["module", vattn.__file__]), flush=True)

def instance_digest(s, reg, setting):
    digest = hashlib.sha256(s.tobytes())
    fields = (reg.kind, reg.temperature, reg.alpha, reg.gamma, reg.query_position, setting)
    digest.update(repr(fields).encode())
    if reg.prior is not None:
        digest.update(reg.prior.weights.tobytes())
    return digest

def search_bytes(found):
    point = found.distribution.weights.tobytes()
    return point + repr((found.objective.hex(), found.iterations)).encode()

def row_digest(s, reg, cfg, outcome):
    digest = instance_digest(s, reg, cfg)
    if isinstance(outcome, NumericalFailure):
        digest.update(repr(outcome).encode())
    else:
        digest.update(outcome.distribution.weights.tobytes())
        trace = [value.hex() for value in outcome.objective_trace]
        digest.update(repr((outcome.objective.hex(), outcome.iterations, outcome.converged, trace)).encode())
    return digest.hexdigest()

# _descend takes a score matrix and one regularizer for all rows in older
# trees, a regularizer per row in newer ones, and a list of score rows of
# mixed length in the newest; each row of S is recorded, whatever its length.
recorded = []
descend = oracle._descend
def recording_descend(S, reg, cfg):
    outcomes = descend(S, reg, cfg)
    regs = [reg] * len(S) if isinstance(reg, RegularizerSpec) else reg
    recorded.extend(map(row_digest, S, regs, [cfg] * len(S), outcomes))
    return outcomes
oracle._descend = recording_descend

searched = []
grid_search = oracle.grid_search_simplex
def recording_grid_search(s, reg, resolution):
    found = grid_search(s, reg, resolution)
    digest = instance_digest(s.values, reg, resolution)
    digest.update(search_bytes(found))
    searched.append(digest.hexdigest())
    return found
oracle.grid_search_simplex = recording_grid_search

def multiset(digests):
    return f"{len(digests)} {hashlib.sha256(chr(10).join(sorted(digests)).encode()).hexdigest()}"

for seed in seeds:
    for name in suites.SUITE_NAMES:
        recorded.clear()
        searched.clear()
        report = suites.run_suite(name, seed, trials)
        for check in report.per_check:
            print(json.dumps([f"seed {seed} {name} {check.name}", repr(check)]), flush=True)
        suite = dataclasses.replace(report, wall_time_ms=0)
        print(json.dumps([f"seed {seed} {name}", repr(suite)]), flush=True)
        print(json.dumps([f"seed {seed} {name} descent rows", multiset(recorded)]), flush=True)
        print(json.dumps([f"seed {seed} {name} grid searches", multiset(searched)]), flush=True)
    # run_suite keys each trial's generator by (seed, suite, check, trial).
    ordinal = suites.SUITE_NAMES.index("transport")
    for index, check in enumerate(suites._SUITE_BUILDERS["transport"](trials)):
        digest = hashlib.sha256()
        for trial in range(check.trials):
            batch, eps = suites._rand_batch(np.random.default_rng([seed, ordinal, index, trial]))
            try:
                digest.update(transport.solve_full_eot(batch, eps).entries.tobytes())
            except (NumericalFailure, ValueError) as error:
                digest.update(repr(error).encode())
        label = f"seed {seed} transport {check.name} solve_full_eot plans"
        print(json.dumps([label, digest.hexdigest()]), flush=True)

# solvers.solve on a fixed list of rows: every kind at m=16 and m=1000
# (tsallis at several alphas, 10 entering entmax's stiff corner) and one
# 1e6-key row per kind.
from vattn import Scores, SimplexDistribution, solvers
from vattn.core import key_distances

def logits(x, reg):  # the logits each softmax-family kind solves, as it forms them
    with np.errstate(over="ignore"):
        if reg.kind == "alibi":
            return x - key_distances(reg.query_position, x.size) * reg.gamma
        if reg.kind == "kl_prior":
            return np.log(reg.prior.weights) * reg.temperature + x
    return x

def potentials(result, x, reg):  # the potential, lse and primal_value, as float.hex
    try:
        s, t = Scores(logits(x, reg)), reg.temperature
        return [result.potential.hex(), solvers.lse(s, t).hex(), solvers.primal_value(s, t).hex()]
    except (NumericalFailure, ValueError) as error:
        return repr(error)

def regularizers(rng, m):
    yield RegularizerSpec.shannon(float(rng.uniform(0.5, 2.0)))
    yield RegularizerSpec.l2()
    for alpha in (1.0001, 1.2, 1.5, 1.7, 2.0, 2.5, 3.0, 4.0, 10.0):
        yield RegularizerSpec.tsallis(alpha)
    position = int(rng.integers(1, m + 1))
    yield RegularizerSpec.alibi(float(rng.uniform(0.0, 2.0)), position, float(rng.uniform(0.5, 2.0)))
    prior = SimplexDistribution.renormalized(0.9 * rng.dirichlet(np.ones(m)) + 0.1 / m)
    yield RegularizerSpec.kl_prior(prior, float(rng.uniform(0.5, 2.0)))

for m, rows in ((16, 40), (1000, 4), (10**6, 1)):
    digests = {}
    for row in range(rows):
        rng = np.random.default_rng([m, row])
        x = rng.uniform(-5.0, 5.0, m)
        for reg in regularizers(rng, m):
            if m == 10**6 and reg.kind == "tsallis" and reg.alpha != 1.5:
                continue
            label = f"{reg.kind} {reg.alpha}" if reg.kind == "tsallis" else reg.kind
            digest = digests.setdefault(f"solve {label}", hashlib.sha256())
            try:
                result = solvers.solve(Scores(x), reg)
                digest.update(result.distribution.weights.tobytes())
                digest.update(repr(result.support_size).encode())
                if result.potential is not None:
                    values = digests.setdefault(f"potential, lse and primal_value {label}", hashlib.sha256())
                    values.update(repr(potentials(result, x, reg)).encode())
            except (NumericalFailure, ValueError) as error:
                digest.update(repr(error).encode())
    for label, digest in digests.items():
        print(json.dumps([f"{label} m={m}", digest.hexdigest()]), flush=True)

# _minimize_many on seeded batches of rows of mixed lengths, every kind
# under both methods, at small budgets and two step sizes, so rows reject
# their steps, and run out of them, in different rounds.  One batch in
# three is at scale 100, where multiplicative steps underflow.
from vattn.oracle import EXPONENTIATED_GRADIENT, PROJECTED_GRADIENT, SolverConfig

def outcome_bytes(outcome):
    if isinstance(outcome, NumericalFailure):
        return repr(outcome).encode()
    trace = [value.hex() for value in outcome.objective_trace]
    state = (outcome.objective.hex(), outcome.iterations, outcome.converged, trace)
    return outcome.distribution.weights.tobytes() + repr(state).encode()

def descent_regularizer(rng, kind, m):
    if kind == "tsallis":  # the suites' alphas
        return RegularizerSpec.tsallis(float(rng.choice([1.5, 2.0, 3.0])))
    return next(reg for reg in regularizers(rng, m) if reg.kind == kind)

for ordinal, kind in enumerate(("shannon", "l2", "tsallis", "alibi", "kl_prior")):
    pairs = []
    for batch in range(3):
        rng = np.random.default_rng([ordinal, batch, 13])
        for m in rng.integers(1, 17, 6).tolist():
            x = rng.uniform(-5.0, 5.0, m) * (100.0 if batch == 2 else 1.0)
            pairs.append((Scores(x), descent_regularizer(rng, kind, m)))
    for method in (EXPONENTIATED_GRADIENT, PROJECTED_GRADIENT):
        digest = hashlib.sha256()
        for budget in (1, 2, 3, 7, 40, 300):
            for step_size in (0.1, 5.0):
                cfg = SolverConfig(max_iterations=budget, step_size=step_size, method=method)
                for outcome in oracle._minimize_many(pairs, cfg):
                    digest.update(outcome_bytes(outcome))
        print(json.dumps([f"descents {kind} {method}", digest.hexdigest()]), flush=True)

# minimize_on_simplex on one row per call, at the same budgets and step
# sizes: every kind (tsallis at alphas 1.2, 1.5, 2 and 3) under both
# methods, on seeded rows of m = 1 to 16, every third at scale 100.
def one_row_regularizers(rng, m):
    yield from (reg for reg in regularizers(rng, m) if reg.kind != "tsallis")
    for alpha in (1.2, 1.5, 2.0, 3.0):
        yield RegularizerSpec.tsallis(alpha)

one_rows = []
for m in range(1, 17):
    rng = np.random.default_rng([m, 18])
    x = rng.uniform(-5.0, 5.0, m) * (100.0 if m % 3 == 0 else 1.0)
    one_rows += [(Scores(x), reg) for reg in one_row_regularizers(rng, m)]
digests = {}
for method in (EXPONENTIATED_GRADIENT, PROJECTED_GRADIENT):
    for budget in (1, 2, 3, 7, 40, 300):
        for step_size in (0.1, 5.0):
            cfg = SolverConfig(max_iterations=budget, step_size=step_size, method=method)
            for s, reg in one_rows:
                label = f"{reg.kind} {reg.alpha}" if reg.kind == "tsallis" else reg.kind
                digest = digests.setdefault(f"{label} {method}", hashlib.sha256())
                try:
                    digest.update(outcome_bytes(oracle.minimize_on_simplex(s, reg, cfg)))
                except (NumericalFailure, ValueError) as error:
                    digest.update(repr(error).encode())
for label, digest in digests.items():
    print(json.dumps([f"one-row descents {label}", digest.hexdigest()]), flush=True)

# Grid searches of a seeded list, each case searched twice in a row.
for m in (1, 2, 3):
    for resolution in (100, 2000, 10**6)[: 3 if m <= 2 else 2]:
        digest = hashlib.sha256()
        for row in range(2):
            rng = np.random.default_rng([m, resolution, row, 7])
            x = rng.uniform(-5.0, 5.0, m)
            for reg in regularizers(rng, m):
                if reg.kind == "tsallis" and reg.alpha not in (1.5, 2.0, 3.0):
                    continue
                for _ in range(2):
                    digest.update(search_bytes(grid_search(Scores(x), reg, resolution)))
        print(json.dumps([f"grid searches m={m} resolution={resolution}", digest.hexdigest()]), flush=True)

# Grid searches around the 2^14-row chunks a search evaluates at a time:
# m=2 grids of 2^14 - 1, 2^14 and 2^14 + 1 points, an m=3 grid just over
# one chunk (16,471 points), and at m=2, resolution 2^15 - 1, equal scores
# whose two tied minima straddle the first chunk boundary.  Each case runs
# on seeded, equal (1.0) and constant (0.3) scores.
for m, resolution in ((2, 2**14 - 2), (2, 2**14 - 1), (2, 2**14), (2, 2**15 - 1), (3, 180)):
    digest = hashlib.sha256()
    rng = np.random.default_rng([m, resolution, 12])
    for x in (rng.uniform(-5.0, 5.0, m), np.full(m, 1.0), np.full(m, 0.3)):
        for reg in regularizers(rng, m):
            if reg.kind == "tsallis" and reg.alpha not in (1.5, 2.0, 3.0):
                continue
            digest.update(search_bytes(grid_search(Scores(x), reg, resolution)))
    print(json.dumps([f"grid searches m={m} resolution={resolution} chunk edges", digest.hexdigest()]), flush=True)

# m=3 searches whose screen keeps more than one chunk: equal scores, whose
# near-uniform minima (one point's permutations) straddle a chunk boundary
# at resolutions 241 and 1000; and m=3 searches near the double range:
# scores near +-1e300 under every kind, whose screen keeps one chunk or,
# tied along an edge, every chunk, and ones whose screen stands down, so
# every chunk is evaluated: scores near +-DBL_MAX, an alibi penalty that
# overflows (NaN objectives) and kl_prior at tau 1e308.  Warnings are
# silenced: the NaN objectives warn on every tree.
import warnings
for resolution in (241, 1000):
    digest = hashlib.sha256()
    for x in (np.full(3, 1.0), np.full(3, -0.25)):
        for reg in regularizers(np.random.default_rng([resolution, 13]), 3):
            if reg.kind == "tsallis" and reg.alpha not in (1.5, 2.0, 3.0):
                continue
            digest.update(search_bytes(grid_search(Scores(x), reg, resolution)))
    print(json.dumps([f"grid searches m=3 resolution={resolution} tied across chunks", digest.hexdigest()]), flush=True)
digest = hashlib.sha256()
rng = np.random.default_rng(14)
prior = SimplexDistribution.renormalized(0.9 * rng.dirichlet(np.ones(3)) + 0.1 / 3)
with warnings.catch_warnings(), np.errstate(all="ignore"):
    warnings.simplefilter("ignore")
    for resolution in (180, 2000):
        x = rng.uniform(-5.0, 5.0, 3)
        cases = [(x, RegularizerSpec.alibi(1.7e308, 1, 1.7e308)), (x, RegularizerSpec.kl_prior(prior, 1e308))]
        for large in (rng.uniform(-1e300, 1e300, 3), np.array([1e300, -1e300, 1e300]), np.array([1.7e308, -1.7e308, 1e308])):
            cases += [(large, reg) for reg in regularizers(rng, 3) if reg.kind != "tsallis" or reg.alpha == 2.0]
        for x, reg in cases:
            digest.update(search_bytes(grid_search(Scores(x), reg, resolution)))
print(json.dumps(["grid searches m=3 near the double range", digest.hexdigest()]), flush=True)

# entmax on tied rows and on rows with one dominant score.
for m, rows in ((16, 40), (1000, 4)):
    for shape in ("tied", "dominant"):
        digests = {alpha: hashlib.sha256() for alpha in (1.5, 2.0, 3.0)}
        for row in range(rows):
            rng = np.random.default_rng([m, row, 3])
            x = rng.uniform(-5.0, 5.0, m)
            if shape == "tied":
                x = np.round(x)
            else:
                x[rng.integers(m)] += 50.0
            for alpha, digest in digests.items():
                try:
                    digest.update(solvers.entmax(Scores(x), alpha).distribution.weights.tobytes())
                except NumericalFailure as error:
                    digest.update(repr(error).encode())
        for alpha, digest in digests.items():
            print(json.dumps([f"solve tsallis {alpha} {shape} m={m}", digest.hexdigest()]), flush=True)

# entmax on the rows whose candidate set, probes and replay gate changed:
# m=1e5 rows (uniform and tied) at alphas 1.5, 2, 3 and 10; rows whose top
# score leads the next by just under 1/(alpha-1), so the root lies just
# below y = 0 (m = 128, 200 and 1000); and alphas 1 + 1e-5 and 1 + 3e-5 at
# m=16 and 1000.  And sparsemax on rows of spread <= 0.8 at m = 1024, 4096
# and 1e5, where every entry is a candidate.
def hash_rows(label, rows, solve):
    digest = hashlib.sha256()
    for x, arg in rows:
        try:
            digest.update(solve(Scores(x), *arg).distribution.weights.tobytes())
        except NumericalFailure as error:
            digest.update(repr(error).encode())
    print(json.dumps([label, digest.hexdigest()]), flush=True)

rng = np.random.default_rng([10**5, 23])
x = rng.uniform(-5.0, 5.0, 10**5)
for alpha in (1.5, 2.0, 3.0, 10.0):
    hash_rows(f"solve tsallis {alpha} m=100000", [(x, (alpha,)), (np.round(x), (alpha,))], solvers.entmax)
for m in (128, 200, 1000):
    rng = np.random.default_rng([m, 24])
    rows = []
    for alpha in (1.5, 2.0, 3.0, 10.0):
        for u in range(-13, -5):
            x = rng.uniform(-5.0, 5.0, m)
            x[rng.integers(m)] = x.max() + 1.0 / (alpha - 1.0) - 10.0**u
            rows.append((x, (alpha,)))
    hash_rows(f"solve tsallis root near y=0 m={m}", rows, solvers.entmax)
for m in (16, 1000):
    rng = np.random.default_rng([m, 25])
    for alpha in (1.00001, 1.00003):
        rows = [(rng.uniform(-5.0, 5.0, m), (alpha,)) for _ in range(8 if m == 16 else 2)]
        hash_rows(f"solve tsallis {alpha} m={m}", rows, solvers.entmax)
for m in (1024, 4096, 10**5):
    rng = np.random.default_rng([m, 26])
    rows = []
    for spread in (1e-8, 0.1, 0.4, 0.8):
        x = rng.uniform(-0.5 * spread, 0.5 * spread, m)
        rows += [(x, ()), (np.round(x * 64.0) / 64.0, ()), (x + 1e6, ())]
    hash_rows(f"solve l2 all candidates m={m}", rows, solvers.sparsemax)

# entmax on rows of at least 128 keys whose replay ends above the tolerance,
# so the stiff corner reads its upper weights from the candidates' buffer:
# U(-5, 5) at alpha 10 (about half of these rows) and one m=1e5 row at
# alpha 6.  And sparsemax at m = 1024, 2048 and 1e5 on rows whose spread,
# or only m times it, overflows.
for m in (128, 200):
    rng = np.random.default_rng([m, 10])
    rows = [(rng.uniform(-5.0, 5.0, m), (10.0,)) for _ in range(20)]
    hash_rows(f"solve tsallis 10.0 stiff corner m={m}", rows, solvers.entmax)
x = np.random.default_rng([10**5, 6, 10]).uniform(-5.0, 5.0, 10**5)
hash_rows("solve tsallis 6.0 stiff corner m=100000", [(x, (6.0,))], solvers.entmax)
for m in (1024, 2048, 10**5):
    rng = np.random.default_rng([m, 28])
    x = rng.uniform(-5.0, 5.0, m)
    rows = [(x * 1e305, ())]
    for base in (x, np.round(x)):
        for low in (-1.7e308, -1e304):
            row = base.copy()
            row[rng.integers(m)] = low
            rows.append((row, ()))
    hash_rows(f"solve l2 overflowing spread m={m}", rows, solvers.sparsemax)

# entmax at alpha 1.5, which sorts: rows of at least 1024 keys on which more
# than 1024 entries pass the first cut, so the K-th largest bound applies;
# one dominant score over a plateau at 0.5 to 2.5 below it, at alphas 1.5,
# 2 and 3; and rows whose spread, or only its half, overflows.
for m in (1025, 4096, 10**5):
    rng = np.random.default_rng([m, 29])
    rows = []
    for spread in (0.1, 1.0, 2.0, 10.0):
        x = rng.uniform(-0.5 * spread, 0.5 * spread, m)
        rows += [(x, (1.5,)), (np.round(x * 64.0) / 64.0, (1.5,))]
    hash_rows(f"solve tsallis 1.5 second cut m={m}", rows, solvers.entmax)
for m in (16, 1000, 10**5):
    rng = np.random.default_rng([m, 30])
    for alpha in (1.5, 2.0, 3.0):
        rows = []
        for gap in (0.5, 1.9, 1.99, 2.0, 2.5):
            x = np.full(m, rng.uniform(-5.0, 5.0))
            x[rng.integers(m)] += gap
            rows.append((x, (alpha,)))
        hash_rows(f"solve tsallis {alpha} dominant plateau m={m}", rows, solvers.entmax)
for m in (16, 1024, 10**5):
    rng = np.random.default_rng([m, 31])
    x = rng.uniform(-5.0, 5.0, m)
    rows = [(x * 1e305, (1.5,)), (x * (1.7e308 / 5.0), (1.5,))]
    for base in (x, np.round(x)):
        row = base.copy()
        row[rng.integers(m)] = -1.7e308
        rows.append((row, (1.5,)))
    hash_rows(f"solve tsallis 1.5 overflowing spread m={m}", rows, solvers.entmax)

# The softmax family where most shifted logits fall below exp's underflow
# cut, and sparsemax on both sides of its candidate threshold (1024 keys).
import math
def solve_bytes(result):
    return result.distribution.weights.tobytes() + repr(result.support_size).encode()

cases = []
for m in (10**4, 10**5):
    x = np.random.default_rng([m, 8]).uniform(-5.0, 5.0, m)
    for position in (1, m):
        for gamma, t in ((0.3, 1.0), (2.0, 0.5)):
            label = f"alibi m={m} query {position} gamma {gamma} t={t}"
            cases.append((label, x, RegularizerSpec.alibi(gamma, position, t)))
x = np.random.default_rng([10**5, 9]).uniform(-5.0, 5.0, 10**5)
cases.append(("shannon m=100000 t=0.001", x, RegularizerSpec.shannon(1e-3)))
for m in (16, 1000, 10**5):
    rng = np.random.default_rng([m, 10])
    prior = rng.dirichlet(np.ones(m))
    tiny = rng.random(m) < 0.3
    prior[tiny] = 10.0 ** -rng.uniform(290.0, 320.0, int(tiny.sum()))
    prior = SimplexDistribution(prior / prior.sum())
    x = rng.uniform(-5.0, 5.0, m)
    for t in (0.1, 1.0):
        cases.append((f"kl_prior tiny prior m={m} t={t}", x, RegularizerSpec.kl_prior(prior, t)))
# Penalties within a factor of 2 of DBL_MAX that do not overflow: alibi's
# gamma * |i - j| at its farthest key, at tau 1 and tau = gamma, and
# kl_prior's tau * log(prior) at prior entries down to 1e-300.
DBL_MAX = sys.float_info.max
for m in (16, 10**5):
    rng = np.random.default_rng([m, 16])
    x = rng.uniform(-5.0, 5.0, m)
    for position in (1, m // 2, m):
        far = max(position - 1, m - position)
        for share in (0.5, 0.99):
            gamma = share * DBL_MAX / far
            for t, name in ((1.0, "1"), (gamma, "gamma")):  # at gamma, weights ~ exp(-|i - j|)
                label = f"alibi near DBL_MAX m={m} query {position} share {share} t={name}"
                cases.append((label, x, RegularizerSpec.alibi(gamma, position, t)))
    prior = rng.dirichlet(np.ones(m))
    prior[rng.random(m) < 0.3] = 1e-300
    prior = SimplexDistribution(prior / prior.sum())
    for share in (0.5, 0.99):
        t = share * DBL_MAX / -math.log(prior.weights.min())
        cases.append((f"kl_prior near DBL_MAX m={m} share {share}", x, RegularizerSpec.kl_prior(prior, t)))
# Softmax rows that take the overflow guard: a spread that overflows, quotients
# by tau that overflow, and one score at -1.7e308 whose quotient overflows
# while the others' terms count.
for m in (16, 1000):
    x = np.random.default_rng([m, 32]).uniform(-5.0, 5.0, m)
    low = x.copy()
    low[0] = -1.7e308
    guarded = (("spread", x * (1.7e308 / 5.0), 1.0), ("quotients", x * 1e305, 1e-3), ("bottom", low, 0.1))
    for name, row, t in guarded:
        cases.append((f"shannon guarded {name} m={m} t={t}", row, RegularizerSpec.shannon(t)))
for m in (1023, 1024, 10**5):
    rng = np.random.default_rng([m, 11])
    x = rng.uniform(-5.0, 5.0, m)
    rows = {"uniform": x, "tied": np.round(x * 4.0) / 4.0, "tied integers": np.round(x)}
    for name, row in rows.items():
        cases.append((f"l2 {name} m={m}", row, RegularizerSpec.l2()))
# ALiBi rows whose window engages: the query at both ends, in the middle and
# past the row, with keys at the window's edges whose shifted logits lie
# within 1e-9 of -746 on either side; rows where it stands down: gamma 0,
# and far keys whose penalty overflows, so the guarded path runs.  And
# dense rows whose weights underflow to exact zeros, so the support is
# counted.
for m in (10**4, 10**5, 10**6):
    rng = np.random.default_rng([m, 33])
    x = rng.uniform(-5.0, 5.0, m)
    for position in (1, m // 2, m, m + 5, m + 3000, 10**15):
        for gamma, t in ((1.0, 1.0), (2.0, 0.5), (0.3, 1.5)):
            cases.append((f"alibi window m={m} query {position} gamma {gamma} t={t}", x, RegularizerSpec.alibi(gamma, position, t)))
    for position in (1, m // 3, m + 5):
        for gamma, t in ((1.0, 1.0), (1.0 + 1e-12, 0.5)):
            edged = x.copy()
            nearest = min(position, m)
            edged[nearest - 1] = 5.0
            reach = int((position - nearest) + 746.0 * t / gamma)  # about the window's radius
            for key in range(position - reach - 2, position + reach + 3):
                if abs(abs(position - key) - reach) <= 2 and 1 <= key <= m:
                    d = abs(position - key)
                    edged[key - 1] = 5.0 + gamma * d - 746.0 * t + rng.uniform(-1e-9, 1e-9)
            cases.append((f"alibi window edges m={m} query {position} gamma {gamma} t={t}", edged, RegularizerSpec.alibi(gamma, position, t)))
    for position in (1, m // 2, m + 5):
        cases.append((f"alibi gamma 0 m={m} query {position}", x, RegularizerSpec.alibi(0.0, position, 1.0)))
        for gamma in (1e305, 1.7e308):
            cases.append((f"alibi overflowing far keys m={m} query {position} gamma {gamma}", x, RegularizerSpec.alibi(gamma, position, 1.0)))
for m in (16, 1000, 10**5):
    x = np.random.default_rng([m, 34]).uniform(-5.0, 5.0, m)
    for t in (0.01, 0.05):
        cases.append((f"shannon underflowing m={m} t={t}", x, RegularizerSpec.shannon(t)))
    cases.append((f"shannon underflowing wide m={m}", x * 200.0, RegularizerSpec.shannon(1.0)))
# The softmax family on rows of 1e3, 1e5 and 1e6 keys where 0.1%, 1% and 9%
# of the shifted quotients lie above the cut, as one window or scattered:
# softmax, lse and kl_prior (a prior within a factor of 3 of uniform) at tau
# 1 and 1e-3; alibi with the window engaged (query mid-row) and standing
# down: scores near 3e307, whose bound fails, and a query past 2^53.
for m in (10**3, 10**5, 10**6):
    rng = np.random.default_rng([m, 35])
    prior = rng.uniform(0.5, 1.5, m)
    prior = SimplexDistribution(prior / prior.sum())
    for share in (0.001, 0.01, 0.09):
        count = max(1, round(share * m))
        for layout in ("window", "scattered"):
            q = rng.uniform(-3000.0, -746.5, m)
            alive = np.arange(m) < count if layout == "window" else rng.permutation(m) < count
            q[alive] = rng.uniform(-700.0, 0.0, count)
            q[alive.nonzero()[0][0]] = 0.0
            for t in (1.0, 1e-3):
                name = f"m={m} share {share} {layout} t={t}"
                cases.append((f"shannon cut {name}", q * t, RegularizerSpec.shannon(t)))
                cases.append((f"kl_prior cut {name}", q * t, RegularizerSpec.kl_prior(prior, t)))
        x = rng.uniform(-5.0, 5.0, m)
        radius = share * m / 2.0
        gamma = (746.0 + 10.0) / radius
        cases.append((f"alibi cut window m={m} share {share}", x, RegularizerSpec.alibi(gamma, m // 2, 1.0)))
        t = 1e295  # scores 3e307 + t * U(-5, 5): B > DBL_MAX / 8
        cases.append((f"alibi cut near 3e307 m={m} share {share}", 3e307 + x * t, RegularizerSpec.alibi(gamma * t, m // 2, t)))
        position = 2**53 + 2 * m
        cases.append((f"alibi cut past 2^53 m={m} share {share}", x, RegularizerSpec.alibi(gamma / 2.0, position, 1.0)))
for label, x, reg in cases:
    try:
        result = solvers.solve(Scores(x), reg)
        out = hashlib.sha256(solve_bytes(result)).hexdigest()
    except (NumericalFailure, ValueError) as error:
        result, out = None, repr(error)
    print(json.dumps([f"solve {label}", out]), flush=True)
    if result is not None and result.potential is not None:
        print(json.dumps([f"potential, lse and primal_value {label}", potentials(result, x, reg)]), flush=True)

# The gradient and transport outputs on a fixed seeded list: 40 rows at
# m=16, every fourth at scale 1000, where softmax weights can underflow to
# exact zeros, and one 64x64 batch.
from vattn import QueryKeyBatch, UtilityVector, ValueSet, core, gradient

def output_bytes(out):
    # An array, or a validated type's fields in order.
    fields = vars(out).values() if dataclasses.is_dataclass(out) else [out]
    return b"".join(np.asarray(field, dtype=np.float64).tobytes() for field in fields)

digests = {}
def record(label, call):
    digest = digests.setdefault(label, hashlib.sha256())
    try:
        digest.update(output_bytes(call()))
    except (NumericalFailure, ValueError) as error:
        digest.update(repr(error).encode())

for row in range(40):
    rng = np.random.default_rng([16, row, 2])
    scale = 1000.0 if row % 4 == 3 else 5.0
    s = Scores(rng.uniform(-scale, scale, 16))
    t = float(rng.uniform(0.25, 4.0))
    p = solvers.softmax(s, t).distribution
    u = UtilityVector(rng.uniform(-3.0, 3.0, 16))
    record("advantage_gradient", lambda: gradient.advantage_gradient(p, u, t))
    record("chain_rule_gradient", lambda: gradient.chain_rule_gradient(p, u, t))
    record("softmax_jacobian", lambda: gradient.softmax_jacobian(p, t))
    record("fisher_matrix", lambda: gradient.fisher_matrix(p, t))
rng = np.random.default_rng([64, 64])
batch = QueryKeyBatch(*(rng.uniform(-1.0, 1.0, (64, 16)) / 4.0 for _ in range(2)))
plan = transport.attention_matrix(batch, 0.7)
record("cost_matrix", lambda: transport.cost_matrix(batch))
record("attention_matrix", lambda: plan)
record("context", lambda: transport.context(plan, ValueSet(rng.uniform(-1.0, 1.0, (64, 8)))))
for label, digest in digests.items():
    print(json.dumps([f"{label} outputs", digest.hexdigest()]), flush=True)

# attention_matrix at several shapes and temperatures, and on one batch
# whose every third row's quotients by tau overflow (the guarded path).
digests = {}
for n, m in ((1, 1), (1, 7), (7, 1), (13, 37), (512, 512)):
    rng = np.random.default_rng([n, m, 5])
    batch = QueryKeyBatch(rng.uniform(-1.0, 1.0, (n, 16)), rng.uniform(-1.0, 1.0, (m, 16)))
    for t in (1e-8, 1.0, 1e8):
        record(f"attention_matrix {n}x{m} t={t}", lambda: transport.attention_matrix(batch, t))
rng = np.random.default_rng([13, 37, 6])
scale = np.where(np.arange(13) % 3 == 0, 1e308, 1.0)[:, np.newaxis]
batch = QueryKeyBatch(rng.uniform(-1.0, 1.0, (13, 37)) * scale, np.eye(37))
for t in (1e-8, 0.5):
    record(f"attention_matrix guarded 13x37 t={t}", lambda: transport.attention_matrix(batch, t))
# attention_matrix where under a tenth of each cut row survives, with cut,
# plain and guarded rows in one matrix: the similarities are the queries
# themselves (keys = I), shifted quotients times tau.
for t in (1e-3, 1.0):
    rng = np.random.default_rng([24, 300, 36])
    rows = []
    for k in range(24):
        q = rng.uniform(-3000.0, -746.5, 300)
        if k % 4 == 3:
            q = rng.uniform(-1.0, 1.0, 300) * 1e308  # guarded: its spread overflows
        elif k % 4 == 2:
            q = rng.uniform(-700.0, 0.0, 300)  # plain, no entry at the cut
        else:
            alive = rng.permutation(300) < (3, 15, 27)[k % 3]
            q[alive] = rng.uniform(-700.0, 0.0, int(alive.sum()))
        rows.append(q * t if k % 4 != 3 else q)
    batch = QueryKeyBatch(np.array(rows), np.eye(300))
    record(f"attention_matrix cut and guarded 24x300 t={t}", lambda: transport.attention_matrix(batch, t))
for label, digest in digests.items():
    print(json.dumps([f"{label} outputs", digest.hexdigest()]), flush=True)
# eot_matrix_objective, objective_value and regularizer_value as float.hex on
# plans and weights with exact zeros: attention plans whose rows underflow,
# sparse rows, one-hot rows, every kind.
values = []
rng = np.random.default_rng([37])
for n, m, t in ((5, 9, 1e-3), (13, 37, 0.05), (64, 64, 0.7)):
    batch = QueryKeyBatch(rng.uniform(-1.0, 1.0, (n, 8)) * 4.0, rng.uniform(-1.0, 1.0, (m, 8)))
    plan, cost = transport.attention_matrix(batch, t), transport.cost_matrix(batch)
    values += [transport.eot_matrix_objective(plan, cost, eps).hex() for eps in (t, 0.5, 3.0)]
    sparse = np.zeros((n, m))
    sparse[np.arange(n), rng.integers(0, m, n)] = 1.0
    sparse[0] = solvers.sparsemax(Scores(rng.uniform(-1.0, 1.0, m))).distribution.weights
    values.append(transport.eot_matrix_objective(transport.TransportPlan(sparse), cost, 0.5).hex())
for m in (1, 3, 16, 1000):
    rng = np.random.default_rng([m, 38])
    x = rng.uniform(-5.0, 5.0, m)
    rows = [solvers.sparsemax(Scores(x * scale)).distribution for scale in (0.1, 1.0, 10.0)]
    rows.append(solvers.softmax(Scores(x * 100.0), 0.1).distribution)
    onehot = np.zeros(m)
    onehot[m // 2] = 1.0
    rows.append(SimplexDistribution(onehot))
    regs = [reg for reg in regularizers(rng, m) if reg.kind != "tsallis" or reg.alpha in (1.0001, 1.5, 2.0, 3.0)]
    for p in rows:
        for reg in regs:
            values.append((core.objective_value(p, Scores(x), reg).hex(), core.regularizer_value(p, reg).hex()))
print(json.dumps(["objectives on weights with exact zeros", hashlib.sha256(repr(values).encode()).hexdigest()]), flush=True)
# solve_full_eot plans of seeded finite batches under small and default
# budgets: the plan bytes, or the error's type and text.
for budget in (1, 5, 300):
    digest = hashlib.sha256()
    for row in range(12):
        rng = np.random.default_rng([row, budget, 17])
        n, m, d = (int(k) for k in rng.integers(1, 9, 3))
        batch = QueryKeyBatch(rng.uniform(-1.0, 1.0, (n, d)), rng.uniform(-1.0, 1.0, (m, d)))
        eps, cfg = float(rng.choice([0.5, 1.0, 2.0])), SolverConfig(max_iterations=budget)
        try:
            digest.update(transport.solve_full_eot(batch, eps, cfg).entries.tobytes())
        except (NumericalFailure, ValueError) as error:
            digest.update(repr((type(error).__name__, str(error))).encode())
    print(json.dumps([f"solve_full_eot plans budget {budget}", digest.hexdigest()]), flush=True)
# A batch whose similarities overflow: the error's type and text.
try:
    transport.attention_matrix(QueryKeyBatch([[0.5], [1e200]], [[1e200], [1.0]]), 1.0)
    failure = "no error"
except ValueError as error:
    failure = repr(error)
print(json.dumps(["attention_matrix non-finite", failure]), flush=True)

# The validated types on a seeded list of edge inputs: each outcome is the
# accepted bytes, or the type and message of the exception raised, with
# every warning raised as an exception.
import warnings
from vattn import FisherMatrix, JacobianMatrix, SolveResult

def validated(build):  # (the built object or None, its outcome's bytes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            built = build()
        except Exception as error:  # a refused input's outcome is its error
            return None, repr((type(error).__name__, str(error))).encode()
    if isinstance(built, SolveResult):
        state = (built.potential, built.support_size)
        return built, built.distribution.weights.tobytes() + repr(state).encode()
    if isinstance(built, SimplexDistribution):
        return built, built.weights.tobytes()
    return built, built.entries.tobytes() + built.temperature.hex().encode()

def sum_edges():
    # The last sums accepted on each side of 1 and the first ulp past them.
    atol, edges = 1e-12, []
    for side in (1.0, -1.0):
        total = 1.0 + side * atol
        while abs(total - 1.0) > atol:
            total = math.nextafter(total, 1.0)
        while abs(math.nextafter(total, 2.0 * side) - 1.0) <= atol:
            total = math.nextafter(total, 2.0 * side)
        edges += [total, math.nextafter(total, 2.0 * side)]
    return edges

ODD = [np.nan, np.inf, -np.inf, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, 1.7e308, -1e308, 2.0]
weight_rows = [[], [[0.5, 0.5]], [1.0], [-0.0, 1.0], ["0.5", 0.5], [1e308, 1e308], [1e308, 1e308, np.inf]]
for total in sum_edges():
    weight_rows += [[total], [total / 2.0] * 2, [total / 16.0] * 16]
for row in range(60):
    rng = np.random.default_rng([row, 14])
    m = int(rng.choice([1, 2, 3, 7, 16, 129, 1000]))
    w = rng.dirichlet(np.full(m, 0.3))
    if row % 3 == 1:
        picks = rng.random(m) < 0.3
        w[picks] = rng.choice(ODD, int(picks.sum()))
    elif row % 3 == 2:
        w = rng.uniform(-0.1, 1.0, m) * 10.0 ** rng.uniform(-310.0, 308.0)
    weight_rows += [w, w.tolist()]
digest = hashlib.sha256()
for w in weight_rows:
    dist, outcome = validated(lambda: SimplexDistribution(w))
    digest.update(outcome)
    if dist is not None:
        support = int(np.count_nonzero(dist.weights))
        for count in (support, support - 1, support + 1):
            digest.update(validated(lambda: SolveResult(dist, 0.5, count))[1])
print(json.dumps(["SimplexDistribution and SolveResult outcomes", digest.hexdigest()]), flush=True)

def covariance_cases():
    for row in range(60):
        rng = np.random.default_rng([row, 15])
        m = int(rng.choice([1, 2, 3, 16, 100]))
        t = float(10.0 ** rng.uniform(-4.0, 4.0))
        least = float(rng.choice([-10.0, -1.0, -0.99, -0.5, -0.49, 0.0, 1.0])) * 1e-10
        if row % 4 == 0:  # the library's own matrix, one diagonal entry nudged
            w = rng.dirichlet(np.full(m, 0.5))
            e = (np.diag(w) - np.outer(w, w)) / (t * t)
            e[0, 0] += least * max(1.0, float(np.abs(e).max()))
        elif row % 4 == 1 and m > 1:  # least eigenvalue ``least`` off the ones vector
            basis = np.linalg.qr(np.column_stack([np.ones(m), rng.standard_normal((m, m - 1))]))[0]
            spectrum = rng.uniform(0.0, 3.0, m - 1)
            spectrum[0] = least
            e = (basis[:, 1:] * spectrum) @ basis[:, 1:].T
            e = (e + e.T) / 2.0
        else:  # 2x2 blocks [[a, -a], [-a, a]]: Gershgorin's bound is tight
            e = np.zeros((m, m))
            for k in range(m // 2):
                a = least / 2.0 if k == 0 else float(rng.uniform(0.0, 1.0))
                e[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[a, -a], [-a, a]]
        yield e, t
        if row % 5 == 0 and m > 1:
            skewed = e.copy()
            skewed[0, 1] = math.nextafter(skewed[0, 1], 1.0)
            yield skewed, t
    yield [[0.0]], 1.0
    yield [[1.0, -1.0]], 1.0
    yield [[np.nan]], 1.0
    yield [[1e308, -1e308], [-1e308, 1e308]], 1.0
    yield [[0.0]], 0.0
    yield [[0.0]], "1"

digests = {"FisherMatrix": hashlib.sha256(), "JacobianMatrix": hashlib.sha256()}
for e, t in covariance_cases():
    digests["FisherMatrix"].update(validated(lambda: FisherMatrix(e, t))[1])
    digests["JacobianMatrix"].update(validated(lambda: JacobianMatrix(e, t))[1])
for label, digest in digests.items():
    print(json.dumps([f"{label} outcomes", digest.hexdigest()]), flush=True)

import contextlib, io, os, re, tempfile
from vattn.cli import main
SCORES = [0.7, -1.3, 2.1, 0.2, -0.4]
INPUTS = {
    "scores": {"scores": SCORES},
    "nan": {"scores": ["a", 1.0]},
    "prior": [0.1, 0.2, 0.3, 0.25, 0.15],
    "file-shannon": {"scores": SCORES, "temperature": 0.7, "regularizer": {"kind": "shannon"}},
    "file-l2": {"scores": SCORES, "regularizer": {"kind": "l2"}},
    "file-tsallis": {"scores": SCORES, "regularizer": {"kind": "tsallis", "alpha": 1.5}},
    "file-alibi": {
        "scores": SCORES,
        "temperature": 0.9,
        "regularizer": {"kind": "alibi", "gamma": 0.3, "query_position": 2},
    },
    "file-kl": {
        "scores": SCORES,
        "temperature": 1.1,
        "regularizer": {"kind": "kl", "prior": [0.1, 0.2, 0.3, 0.25, 0.15]},
    },
    "file-kl-uniform": {
        "scores": SCORES,
        "temperature": 1.1,
        "regularizer": {"kind": "kl_prior", "prior": "uniform"},
    },
    "qk": {
        "queries": [[0.3, -0.8, 0.5], [1.2, 0.1, -0.4]],
        "keys": [[0.9, 0.2, -0.1], [-0.5, 0.7, 0.3], [0.0, -1.1, 0.6], [0.4, 0.4, 0.4]],
    },
    "grad": {"scores": SCORES, "temperature": 0.8, "utilities": [0.5, -1.0, 0.25, 2.0, -0.3]},
    # Malformed numbers: strings, booleans, non-finite values, wrong shapes.
    "qk-string": {"queries": [["0.3", -0.8]], "keys": [[0.9, 0.2]]},
    "qk-bool": {"queries": [[0.3, -0.8]], "keys": [[True, 0.2]]},
    "grad-values-string": {"scores": SCORES[:2], "temperature": 0.8, "values": [["1"], [2.0]]},
    "prior-string": ["0.1", 0.2, 0.3, 0.25, 0.15],
    "prior-negative": [-0.1, 0.4, 0.3, 0.25, 0.15],
    "prior-sum": [0.1, 0.2, 0.3, 0.25, 0.16],
    "prior-long": [0.1, 0.2, 0.3, 0.2, 0.1, 0.1],
    "file-kl-string": {
        "scores": SCORES,
        "temperature": 1.1,
        "regularizer": {"kind": "kl", "prior": ["0.1", 0.2, 0.3, 0.25, 0.15]},
    },
    "file-kl-scalar": {
        "scores": SCORES,
        "temperature": 1.1,
        "regularizer": {"kind": "kl", "prior": "0.5"},
    },
    "file-kl-nested": {
        "scores": SCORES,
        "temperature": 1.1,
        "regularizer": {"kind": "kl", "prior": [[0.5, 0.5]]},
    },
    "file-kl-long": {
        "scores": SCORES,
        "temperature": 1.1,
        "regularizer": {"kind": "kl", "prior": [0.1, 0.2, 0.3, 0.2, 0.1, 0.1]},
    },
    "file-shannon-nan": {
        "scores": SCORES,
        "temperature": float("nan"),
        "regularizer": {"kind": "shannon"},
    },
    "file-alibi-inf": {
        "scores": SCORES,
        "temperature": 0.9,
        "regularizer": {"kind": "alibi", "gamma": float("inf"), "query_position": 2},
    },
    "qk-nan": {"queries": [[0.3]], "keys": [[0.9]], "temperature": float("nan")},
}
CALLS = [
    ["attn", "scores", "--reg", "shannon", "--tau", "0.7"],
    ["attn", "scores", "--reg", "l2"],
    ["attn", "scores", "--reg", "tsallis", "--alpha", "1.5"],
    ["attn", "scores", "--reg", "alibi", "--tau", "0.9", "--gamma", "0.3", "--pos", "2"],
    ["attn", "scores", "--reg", "kl", "--tau", "1.1", "--prior", "prior"],
    ["attn", "scores", "--reg", "kl", "--tau", "1.1", "--prior", "uniform"],
    ["attn", "file-shannon"],
    ["attn", "file-l2"],
    ["attn", "file-tsallis"],
    ["attn", "file-alibi"],
    ["attn", "file-kl"],
    ["attn", "file-kl-uniform"],
    ["transport", "qk", "--tau", "0.8"],
    ["transport", "qk", "--tau", "0.8", "--method", "oracle"],
    ["gradcheck", "grad"],
    ["attn", "missing", "--reg", "l2"],
    ["attn", "badjson", "--reg", "l2"],
    ["attn", "nan", "--reg", "l2"],
    ["attn", "scores", "--reg", "shannon"],
    ["attn", "scores", "--reg", "l2", "--tau", "1"],
    ["attn", "scores", "--reg", "shannon", "--tau", "1", "--alpha", "2"],
    ["attn", "scores", "--reg", "tsallis", "--alpha", "0.5"],
    ["attn", "scores", "--reg", "bogus"],
    ["attn", "scores"],
    ["transport", "qk-string", "--tau", "0.8"],
    ["transport", "qk-bool", "--tau", "0.8"],
    ["gradcheck", "grad-values-string"],
    ["attn", "scores", "--reg", "kl", "--tau", "1.1", "--prior", "prior-string"],
    ["attn", "scores", "--reg", "kl", "--tau", "1.1", "--prior", "prior-negative"],
    ["attn", "scores", "--reg", "kl", "--tau", "1.1", "--prior", "prior-sum"],
    ["attn", "scores", "--reg", "kl", "--tau", "1.1", "--prior", "prior-long"],
    ["attn", "file-kl-string"],
    ["attn", "file-kl-scalar"],
    ["attn", "file-kl-nested"],
    ["attn", "file-kl-long"],
    ["attn", "file-shannon-nan"],
    ["attn", "file-alibi-inf"],
    ["transport", "qk-nan"],
]
with tempfile.TemporaryDirectory() as tmp:
    for name, payload in INPUTS.items():
        with open(os.path.join(tmp, name), "w") as handle:
            json.dump(payload, handle)
    with open(os.path.join(tmp, "badjson"), "w") as handle:
        handle.write("{not json")
    files = {*INPUTS, "missing", "badjson"}
    for argv in CALLS:
        resolved = [os.path.join(tmp, arg) if arg in files else arg for arg in argv]
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(resolved)
        except Exception as error:  # an escaped error is that call's report
            code = f"raised {type(error).__name__}: {error}"
        text = re.sub(r'"wall_time_ms": \\d+', '"wall_time_ms": 0', out.getvalue())
        print(json.dumps(["cli " + " ".join(argv), [code, text]]), flush=True)
"""


def reports(src: str, seeds: list[int], trials: int) -> list[tuple[str, str]]:
    """(label, canonical report) for every check and suite, in run order."""
    if not os.path.isdir(os.path.join(src, "vattn")):
        raise SystemExit(f"{src}: no vattn package in this directory")
    out = subprocess.run(
        [sys.executable, "-c", CHILD, os.path.abspath(src), str(trials), *map(str, seeds)],
        check=True,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": ""},
    ).stdout
    rows = [tuple(json.loads(line)) for line in out.splitlines()]
    (label, module), *rest = rows
    print(f"{src}: {module}")
    return rest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--trials", type=int, default=100)
    args = parser.parse_args(argv)
    old = reports(args.old_src, args.seeds, args.trials)
    new = reports(args.new_src, args.seeds, args.trials)
    differing = [(a, b) for a, b in zip(old, new) if a != b]
    for (label, before), (label_new, after) in differing:
        print(f"difference\n  old {label}: {before}\n  new {label_new}: {after}")
    if len(old) != len(new):
        print(f"report counts differ: {len(old)} old, {len(new)} new")
    if differing or len(old) != len(new):
        print(f"{len(differing)} of {min(len(old), len(new))} reports differ")
        return 1
    print(f"identical: {len(old)} reports, seeds {args.seeds}, {args.trials} trials")
    return 0


if __name__ == "__main__":
    sys.exit(main())
