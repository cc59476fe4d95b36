"""Run every workload untraced and traced, print the named figures, and
write them with machine facts to ``perfbench/results/baseline.json``.

    python3 perfbench/baseline.py [--seed 0]

Each run lasts ``run_seconds`` from ``BENCHMARK.json``; one ``run.py``
process runs at a time.  Prints each workload's end-to-end figures by
name with units, the oracle's and the grid's share of the traced
``verify`` pass, and whether the layers' self times add up to it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT = HERE / "results" / "baseline.json"


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} failed:\n{done.stderr}")
    record = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text(encoding="utf-8"))


def shares(traced: dict) -> dict[str, float]:
    v = traced["values"]
    base = v["trace.pass_s"]
    layer_sum = sum(v.get(f"{layer}.self_s", 0.0) for layer in LAYERS) + v["trace.outside_s"]
    return {
        "base_s (traced verify pass)": base,
        "oracle.minimize share (span time incl. children)": v["oracle.minimize.total_s"] / base,
        "oracle.grid share (span time incl. objective_rows)": v["oracle.grid.total_s"] / base,
        "oracle layer self share": v["oracle.self_s"] / base,
        "layer self times + outside, over base": layer_sum / base,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    baseline = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        plain = run(workload, args.seed, seconds, 0)
        traced = run(workload, args.seed, seconds, 1)
        baseline["machine"] = plain["machine"]
        entry = {
            "end_to_end": plain["metrics"],
            "figures": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in plain["figures"].items()},
            "failed_share": plain["failed_share"],
            "attempted": plain["attempted"] + traced["attempted"],
            "raw_pass_s": plain["raw_pass_s"],
            "setup_s.raw": plain["setup_s.raw"],
            "host_slowdown": {"untraced": plain["host_slowdown"], "traced": traced["host_slowdown"]},
            "items": plain["items"],
            "per_layer": traced["metrics"],
        }
        if workload == "verify":
            entry["shares"] = shares(traced)
        baseline["workloads"][workload] = entry

        print(f"== {workload} (seed {args.seed}, {seconds} s)")
        rows = [(k, m["value"], m["unit"]) for k, m in plain["metrics"].items()]
        rows += [(k, f["value"], f["unit"]) for k, f in entry["figures"].items()]
        rows += [("failed_share", plain["failed_share"], f"of {plain['attempted']}")]
        for name, value in entry.get("shares", {}).items():
            rows.append((name, value, "s" if name.startswith("base") else "share"))
        for name, value, unit in rows:
            print(f"  {name:<52} {value:>14.6g} {unit}")

    RESULT.parent.mkdir(parents=True, exist_ok=True)
    RESULT.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {RESULT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
