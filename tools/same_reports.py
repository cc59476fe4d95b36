"""Check that two source trees give the same verify reports, check by check.

    python3 tools/same_reports.py OLD_SRC NEW_SRC --seeds 0 1 2 3 4 --trials 100

OLD_SRC and NEW_SRC are directories holding the ``vattn`` package (a
checkout's ``src/``).  Each tree runs ``suites.run_suite`` for every suite
and seed in its own subprocess, one tree after the other.  A check's
canonical report is its ``CheckResult`` repr (residuals at full
precision); a suite's is its ``RunReport`` with ``wall_time_ms`` zeroed.
Prints the first report that differs and exits 1, or exits 0 when every
report is byte-identical.
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
import vattn
from vattn import suites
print(json.dumps(["module", vattn.__file__]), flush=True)
for seed in seeds:
    for name in suites.SUITE_NAMES:
        report = suites.run_suite(name, seed, trials)
        for check in report.per_check:
            print(json.dumps([f"seed {seed} {name} {check.name}", repr(check)]), flush=True)
        suite = dataclasses.replace(report, wall_time_ms=0)
        print(json.dumps([f"seed {seed} {name}", repr(suite)]), flush=True)
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
