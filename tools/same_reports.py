"""Check that two source trees give the same verify reports, check by check.

    python3 tools/same_reports.py OLD_SRC NEW_SRC --seeds 0 1 2 3 4 --trials 100

OLD_SRC and NEW_SRC are directories holding the ``vattn`` package (a
checkout's ``src/``).  Each tree runs ``suites.run_suite`` for every suite
and seed in its own subprocess, one tree after the other.  A check's
canonical report is its ``CheckResult`` repr (residuals at full
precision); a suite's is its ``RunReport`` with ``wall_time_ms`` zeroed.
A report keeps only a check's worst residual, so a changed solve could
hide behind an unchanged maximum.  So each tree also records every row
that ``oracle._descend`` solves while a suite runs (its score bytes, its
regularizer and configuration, and its outcome: weight bytes, objective,
iterations, convergence and trace, or the error) and reports, per seed
and suite, the row count and a SHA-256 of the sorted row digests: the
multiset of row outcomes, whatever order or grouping the rows were solved
in.  And it solves, per seed and transport check, the ``solve_full_eot``
plan of every batch the transport suite draws (same generator keys) and
reports a SHA-256 of the plan bytes, or the error a solve raised.  Last, each tree makes a fixed list of in-process
``vattn.cli.main`` calls (``attn`` for every kind, by flags and by a file
``regularizer`` object; ``transport`` closed form and oracle;
``gradcheck``; malformed inputs and flag combinations) on inputs written
to a temporary directory, and reports each call's exit code and stdout,
with ``wall_time_ms`` zeroed; stderr is not compared.  Prints the first
report that differs and exits 1, or exits 0 when every report is
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

def row_digest(s, reg, cfg, outcome):
    digest = hashlib.sha256(s.tobytes())
    fields = (reg.kind, reg.temperature, reg.alpha, reg.gamma, reg.query_position, cfg)
    digest.update(repr(fields).encode())
    if reg.prior is not None:
        digest.update(reg.prior.weights.tobytes())
    if isinstance(outcome, NumericalFailure):
        digest.update(repr(outcome).encode())
    else:
        digest.update(outcome.distribution.weights.tobytes())
        trace = [value.hex() for value in outcome.objective_trace]
        digest.update(repr((outcome.objective.hex(), outcome.iterations, outcome.converged, trace)).encode())
    return digest.hexdigest()

# Older trees' _descend takes one regularizer for all rows, newer ones one per row.
recorded = []
descend = oracle._descend
def recording_descend(S, reg, cfg):
    outcomes = descend(S, reg, cfg)
    regs = [reg] * len(S) if isinstance(reg, RegularizerSpec) else reg
    recorded.extend(map(row_digest, S, regs, [cfg] * len(S), outcomes))
    return outcomes
oracle._descend = recording_descend

for seed in seeds:
    for name in suites.SUITE_NAMES:
        recorded.clear()
        report = suites.run_suite(name, seed, trials)
        for check in report.per_check:
            print(json.dumps([f"seed {seed} {name} {check.name}", repr(check)]), flush=True)
        suite = dataclasses.replace(report, wall_time_ms=0)
        print(json.dumps([f"seed {seed} {name}", repr(suite)]), flush=True)
        rows = hashlib.sha256("\\n".join(sorted(recorded)).encode()).hexdigest()
        print(json.dumps([f"seed {seed} {name} descent rows", f"{len(recorded)} {rows}"]), flush=True)
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
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(resolved)
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
    for (label, before), (label_new, after) in zip(old, new):
        if (label, before) != (label_new, after):
            print(f"first difference\n  old {label}: {before}\n  new {label_new}: {after}")
            return 1
    if len(old) != len(new):
        print(f"report counts differ: {len(old)} old, {len(new)} new")
        return 1
    print(f"identical: {len(old)} reports, seeds {args.seeds}, {args.trials} trials")
    return 0


if __name__ == "__main__":
    sys.exit(main())
