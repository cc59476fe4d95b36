"""The benchmark's own checks.

    python3 perfbench/selfcheck.py            # about three minutes

1. ``BENCHMARK.json`` has the documented shape.
2. Every workload, untraced and traced, ends its output with the result
   line, naming every metric of ``BENCHMARK.json`` with its unit; every
   end-to-end value is positive, and every per-layer metric is non-zero
   on at least one workload.
3. A deliberately wrong answer from the library is counted as failed, on
   each workload's own correctness check.
4. Without the library's source the benchmark exits non-zero and prints
   no result.

Exits 0 when every check holds and prints one line per failure otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

problems: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def check_spec(spec: dict) -> None:
    expect(
        set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        f"BENCHMARK.json keys: {sorted(spec)}",
    )
    expect(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    expect(1 <= len(spec["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    expect(1 <= len(spec["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    expect(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(len(names) == len(set(names)), "names are used once")
    for name in names:
        expect(bool(NAME.fullmatch(name)), f"bad name {name!r}")
    for w in spec["workloads"]:
        expect(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"],
               f"workload {w['name']}")
    for m in spec["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
               f"end-to-end metric {m['name']}")
    for m in spec["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, f"per-layer metric {m['name']}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        expect(bool(UNIT.fullmatch(m["unit"])) and m["better"] in ("lower", "higher"),
               f"unit or direction of {m['name']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(
        len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
        and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
        "setup_s: unit s, lower is better, the largest bound",
    )
    expect(len(json.dumps(spec)) <= 64 * 1024, "BENCHMARK.json is at most 64 KiB")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


def check_outputs(spec: dict) -> None:
    nonzero: set[str] = set()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = run(workload, trace)
            where = f"{workload} --trace {trace}"
            expect(done.returncode == 0, f"{where}: exit {done.returncode}: {done.stderr[-500:]}")
            if done.returncode != 0:
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(set(result) == RESULT_KEYS, f"{where}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{where}: correct {result['correct']}, failed {result['failed']}")
            metrics = result["metrics"]
            expect(set(metrics) == {m["name"] for m in declared}, f"{where}: metric names")
            for m in declared:
                got = metrics.get(m["name"], {})
                expect(got.get("unit") == m["unit"], f"{where}: unit of {m['name']}")
                if trace == 0:
                    expect(got.get("value", 0) > 0, f"{where}: {m['name']} is not positive")
                elif got.get("value", 0) != 0:
                    nonzero.add(m["name"])
    for m in spec["per_layer"]:
        # A passing run has no non-converged oracle solve.
        if not m["name"].endswith(".nonconverged"):
            expect(m["name"] in nonzero, f"per-layer metric {m['name']} is 0 on every workload")


def check_wrong_answers() -> None:
    """Corrupt one library result per workload and count the failures."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench_cli
    import bench_solve
    import bench_verify
    import clock as clockmod
    import harness
    import vattn
    import vattn.cli

    with clockmod.Clock() as clock:
        # solve: one softmax row gets its first two weights swapped.
        state = bench_solve.setup(vattn, 7, OUT)
        original = vattn.solvers.softmax
        calls = {"n": 0}

        def wrong_softmax(s, temperature):
            result = original(s, temperature)
            calls["n"] += 1
            if calls["n"] != 5:
                return result
            w = result.distribution.weights.copy()
            w[[0, 1]] = w[[1, 0]]
            return vattn.SolveResult(vattn.SimplexDistribution(w), result.potential, result.support_size)

        vattn.solvers.softmax = wrong_softmax
        try:
            rec = harness.Recorder(clock)
            bench_solve.run_pass(state, rec)
        finally:
            vattn.solvers.softmax = original
        expect(rec.failed == 1 and rec.attempted > 1, f"solve: wrong row counted {rec.failed}")

        # verify: the second report of a suite differs in one residual.
        bench_verify.TRIALS = 1
        state = bench_verify.setup(vattn, 7, OUT)
        original_suite = vattn.suites.run_suite
        seen: set[str] = set()

        def drifting_suite(name, seed, trials, **kwargs):
            report = original_suite(name, seed, trials, **kwargs)
            if name in seen and name == "gradient-identities":
                report = dataclasses.replace(
                    report, max_residual=math.nextafter(report.max_residual, math.inf)
                )
            seen.add(name)
            return report

        vattn.suites.run_suite = drifting_suite
        try:
            rec = harness.Recorder(clock)
            bench_verify.run_pass(state, rec)
            bench_verify.run_pass(state, rec)
        finally:
            vattn.suites.run_suite = original_suite
        expect(rec.failed == 1 and rec.attempted == 10, f"verify: drift counted {rec.failed}")

        # cli: a printed weight off by one unit in the last place.
        state = bench_cli.setup(vattn, 7, OUT)
        done = bench_cli._call(state, [sys.executable, "-m", "vattn"] + state.commands["attn.l2"])
        document = json.loads(done.stdout)
        expect(bench_cli.output_ok("attn.l2", done.returncode, done.stdout, state), "cli: true output")
        document["distribution"][0] = math.nextafter(document["distribution"][0], 2.0)
        expect(not bench_cli.output_ok("attn.l2", 0, json.dumps(document), state),
               "cli: a one-ulp change is not caught")


def check_bare_directory() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("solve", 0, cwd=bare)
    expect(done.returncode != 0 and not done.stdout.strip(),
           f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    OUT.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    check_bare_directory()
    check_wrong_answers()
    check_outputs(spec)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck: ok" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
