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
the error a solve raised.  Each tree also hashes the ``solvers.solve``
weight bytes (or the error) of a fixed seeded list of rows, with each
result's potential (as ``float.hex``) and support size: every kind at m=16
and m=1000, tsallis at nine alphas from 1.0001 to 10 (10 enters entmax's
stiff corner), and one 1e6-key row per kind; and tsallis at alphas 1.5, 2
and 3 on tied rows and on rows with one dominant score (entmax's root at y
= 0), at m=16 and m=1000.  It hashes the grid searches of a seeded list,
each searched twice in a row: m from 1 to 3, every kind (tsallis at alphas
1.5, 2 and 3), at resolutions 100, 2000 and, for m <= 2, 1e6.  It hashes
the output bytes (or the error) of ``advantage_gradient``,
``chain_rule_gradient``, ``softmax_jacobian`` and ``fisher_matrix`` on 40
seeded rows at m=16, and of ``cost_matrix``, ``attention_matrix`` and
``context`` on one seeded 64x64 batch; the ``attention_matrix`` plans at n
x m in {1x1, 1x7, 7x1, 13x37, 512x512} and temperatures 1e-8, 1 and 1e8,
and on a 13x37 batch whose rows at scale 1e308 take the overflow-guarded
path; and the error text of a batch whose similarities overflow.  Last,
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
            digest = digests.setdefault(label, hashlib.sha256())
            try:
                result = solvers.solve(Scores(x), reg)
                digest.update(result.distribution.weights.tobytes())
                potential = None if result.potential is None else result.potential.hex()
                digest.update(repr((potential, result.support_size)).encode())
            except (NumericalFailure, ValueError) as error:
                digest.update(repr(error).encode())
    for label, digest in digests.items():
        print(json.dumps([f"solve {label} m={m}", digest.hexdigest()]), flush=True)

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

# The gradient and transport outputs on a fixed seeded list: 40 rows at
# m=16, every fourth at scale 1000, where softmax weights can underflow to
# exact zeros, and one 64x64 batch.
from vattn import QueryKeyBatch, UtilityVector, ValueSet, gradient

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
for label, digest in digests.items():
    print(json.dumps([f"{label} outputs", digest.hexdigest()]), flush=True)
# A batch whose similarities overflow: the error's type and text.
try:
    transport.attention_matrix(QueryKeyBatch([[0.5], [1e200]], [[1e200], [1.0]]), 1.0)
    failure = "no error"
except ValueError as error:
    failure = repr(error)
print(json.dumps(["attention_matrix non-finite", failure]), flush=True)

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
