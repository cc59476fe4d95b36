"""Benchmark of the vattn library: one workload per run.

    python3 perfbench/run.py --workload verify|solve|cli --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports the library from ``src/``
and refuses to run (exit 2, no result) when that is missing.  Inputs come
from ``--seed`` only.  Each workload is one closed-loop caller in this
process (plus at most one child process at a time for ``cli``).

With ``--trace 0`` the run times passes of the workload for ``--seconds``
and reports the end-to-end metrics of ``BENCHMARK.json``.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics; a layer the workload never calls reads 0.  Every
output is checked outside the timed region; a wrong one counts in
``failed``.  Times are normalized to a reference host speed (see
``clock.py``); raw times are printed beside them.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it report the workload's
named figures and the machine.  A full record, and with ``--trace 1`` the
spans, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

import bench_cli
import bench_solve
import bench_verify
import clock as clockmod
import harness
import layers
import machine
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"

WORKLOADS = {"verify": bench_verify, "solve": bench_solve, "cli": bench_cli}
SETUP_REPEATS = 5


def import_vattn():
    """A fresh import of the library, as a new process would do it."""
    for name in [n for n in sys.modules if n == "vattn" or n.startswith("vattn.")]:
        del sys.modules[name]
    vattn = importlib.import_module("vattn")
    importlib.import_module("vattn.cli")
    return vattn


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "vattn" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: no library at {SRC} or no {SPEC.name}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    clock = clockmod.Clock()
    rec = harness.Recorder(clock)
    with clock:
        setups = []
        for _ in range(SETUP_REPEATS):
            begin = clock.stamp()
            vattn = import_vattn()
            state = workload.setup(vattn, args.seed, OUT)
            setups.append(clock.interval(begin, clock.stamp()))
        if Path(vattn.__file__).resolve().parent != SRC / "vattn":
            print(f"perfbench: imported vattn from {vattn.__file__}, not {SRC}", file=sys.stderr)
            return 2
        if args.trace:
            tracer = Tracer(clock=clock.work_time)
            plain, traced, windows = layers.traced_passes(
                workload.TRACED_PASS, state, clock, tracer, args.seconds, workload.MAX_TRACED
            )
            finish_extras = (
                workload.trace_extras(state, rec)
                if hasattr(workload, "trace_extras")
                else lambda: {}
            )
        else:
            harness.run_passes(workload.run_pass, state, rec, args.seconds, workload.MIN_PASSES)

    setup_s = clockmod.median(clock.normalized(iv) for iv in setups)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine.facts(),
        "setup_s": setup_s,
        "setup_s.raw": clockmod.median(iv.seconds for iv in setups),
        "host_slowdown": clock.median_slowdown(),
    }
    if args.trace:
        items = workload.ITEMS
        values = layers.span_metrics(tracer, windows, clock)
        values["trace.overhead_s"] = traced.pass_seconds(items) - plain.pass_seconds(items)
        values.update(workload.layer_figures(plain, traced))
        values.update(finish_extras())
        names = spec["per_layer"]
        recorders = (rec, plain, traced)
        record["passes"] = {"untraced": plain.passes, "traced": traced.passes}
        record["spans"] = len(tracer.spans)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.tsv.gz")
    else:
        values = {"setup_s": setup_s, "pass_s": rec.pass_seconds(workload.ITEMS)}
        names = spec["end_to_end"]
        recorders = (rec,)
        record["passes"] = rec.passes
        record["figures"] = workload.figures(rec)
        record["items"] = {
            item: {"median_s": clockmod.median(s), "samples": len(s), "units": rec.units(item)}
            for item, s in rec.samples().items()
            if item in workload.ITEMS
        }
        record["raw_pass_s"] = rec.raw_pass_seconds(workload.ITEMS)
    attempted = sum(r.attempted for r in recorders)
    failed = sum(r.failed for r in recorders)
    record["attempted"], record["failed"] = attempted, failed
    record["failed_share"] = failed / attempted if attempted else 1.0
    record["values"] = values
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in names}
    record["metrics"] = metrics

    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    _print_report(record)
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _print_report(record: dict) -> None:
    facts = record["machine"]
    print(f"# vattn benchmark: workload {record['workload']}, seed {record['seed']}, "
          f"trace {record['trace']}, passes {record['passes']}")
    print(f"# machine: nproc {facts['nproc']}, {facts['cpu_model']}, L2 {facts['l2_cache']}, "
          f"L3 {facts['l3_cache']}, python {facts['python']}, numpy {facts['numpy']}")
    print(f"# {facts['tracing']}")
    print(f"# host slowdown (median probe / reference): {record['host_slowdown']:.3f}; "
          "seconds below are at reference speed unless marked raw")
    rows = [("setup_s", record["setup_s"], "s"), ("setup_s.raw", record["setup_s.raw"], "s")]
    if "figures" in record:
        rows += [("pass_s.raw", record["raw_pass_s"], "s")]
        rows += [(name, value, unit) for name, (value, unit) in record["figures"].items()]
    rows += [("failed_share", record["failed_share"], f"of {record['attempted']}")]
    rows += [(name, m["value"], m["unit"]) for name, m in record["metrics"].items()]
    for name, value, unit in rows:
        print(f"{name:<44} {value:>16.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
