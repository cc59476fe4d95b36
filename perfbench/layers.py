"""Per-layer figures from the spans of traced passes.

Counts are per pass.  Seconds are normalized per pass by the host
slowdown measured during that pass, like every other figure.  The layers'
self times plus ``trace.outside_s`` (benchmark code between library calls)
add up to ``trace.pass_s``, the traced pass time.
"""

from __future__ import annotations

import time
from collections import defaultdict

import harness
from tracer import ATTRS, END, LAYERS, NAME, PARENT, START

METHODS = {"exponentiated-gradient": "eg", "projected-gradient": "pg"}


def span_metrics(tracer, windows, clock) -> dict[str, float]:
    """``windows`` holds one ``(lo, hi, begin, end)`` per traced pass: its
    span index range and its clock stamps."""
    acc: dict[str, float] = defaultdict(float)
    for lo, hi, begin, end in windows:
        slow = clock.slowdown(begin[0], end[0])
        summary = tracer.summary(lo, hi)
        calls, self_s = summary["calls"], summary["self_s"]
        for layer in LAYERS:
            acc[f"{layer}.calls"] += calls[layer]
            acc[f"{layer}.self_s"] += self_s[layer] / slow
        for group in ("core.objective", "oracle.minimize", "oracle.grid", "transport.solve_full_eot"):
            acc[f"{group}.calls"] += calls[group]
            acc[f"{group}.self_s"] += self_s[group] / slow
            acc[f"{group}.total_s"] += summary["total_s"][group] / slow
        acc["gradient.fd.evaluations"] += calls["gradient.fd.f"]
        roots = 0.0
        for span, own in zip(summary["spans"], summary["own"]):
            name = span[NAME]
            if span[PARENT] < 0:
                roots += span[END] - span[START]
            if name == "oracle.minimize_on_simplex":
                method, iterations, converged = span[ATTRS]
                acc["oracle.minimize.iterations"] += iterations
                acc["oracle.minimize.nonconverged"] += 0 if converged else 1
                acc[f"oracle.{METHODS[method]}.iterations"] += iterations
                acc[f"oracle.{METHODS[method]}.self_s"] += own / slow
            elif name == "oracle.grid_search_simplex":
                acc["oracle.grid.points"] += span[ATTRS][0]
            elif name == "transport.solve_full_eot":
                acc["transport.solve_full_eot.rows"] += span[ATTRS][0]
            elif name == "suites.run_suite":
                acc[f"suites.{span[ATTRS][0]}.s"] += (span[END] - span[START]) / slow
        pass_s = clock.interval(begin, end).seconds
        acc["trace.pass_s"] += pass_s / slow
        acc["trace.outside_s"] += (pass_s - roots) / slow
    passes = len(windows)
    out = {name: value / passes for name, value in acc.items()}
    for method in METHODS.values():
        iterations = out.pop(f"oracle.{method}.iterations", 0.0)
        seconds = out.pop(f"oracle.{method}.self_s", 0.0)
        out[f"oracle.{method}.us_per_iter"] = 1e6 * seconds / iterations if iterations else 0.0
    return out


def traced_passes(run_pass, state, clock, tracer, seconds, max_traced) -> tuple:
    """Alternate untraced and traced passes of ``run_pass``, at least one
    each and at most ``max_traced`` traced ones.

    Returns the untraced and traced recorders and, per traced pass, the
    window ``span_metrics`` takes.
    """
    plain = harness.Recorder(clock)
    traced = harness.Recorder(clock)
    windows = []
    started = time.perf_counter()
    while traced.passes < 1 or (
        traced.passes < max_traced and time.perf_counter() - started < seconds
    ):
        run_pass(state, plain)
        plain.passes += 1
        lo = len(tracer.spans)
        begin = clock.stamp()
        with tracer:
            run_pass(state, traced)
        end = clock.stamp()
        traced.passes += 1
        windows.append((lo, len(tracer.spans), begin, end))
    return plain, traced, windows
