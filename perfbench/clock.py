"""Timing on a host whose speed changes under the benchmark.

On the shared 2-vCPU KVM host (Intel Xeon) this benchmark was built on,
interpreter-bound code runs at two speeds that alternate within
milliseconds, and the slow share drifts over tens of seconds to minutes:
a fixed 1.1 ms loop read 1.1 ms or 2.0 ms, and the median slowdown of a
run ranged from 1.0 to 2.9.  Raw medians of 30-second runs moved by up to
~60% with the host alone.

So every interval is normalized by a reference task sampled near it.
``Clock`` runs ``probe``, a fixed interpreter-bound loop, from a timer
signal every ``PERIOD_S`` and subtracts the probe time from every interval
it measures.  A ``Series`` holds the samples of one reference task;
workloads keep their own series for work that slows unlike the
interpreter.  An interval of ``raw`` seconds is reported as
``raw / slowdown``: seconds at the speed where the reference task takes
its reference duration.

Only this process's own work is timed; the probe adds about 1.5% load on
one core.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02
# Full-speed duration of ``probe`` on that host; any constant works, since
# every comparison is a ratio.
PROBE_REF_S = 3.3e-4
# A normalization window holds at least this many probes.
MIN_PROBES = 25

_PROBE_DATA = np.linspace(0.0, 1.0, 16)


def probe() -> None:
    total = 0.0
    for _ in range(100):
        total += float(np.sum(_PROBE_DATA * 1.5))


class Series:
    """Durations of one fixed reference task, sampled through a run.

    ``slowdown`` compares the samples near an interval with the task's
    reference duration: the work done in a stretch of wall time is
    proportional to the time average of the speed, hence the harmonic
    mean.  A window holds at least ``min_samples`` samples.
    """

    def __init__(self, reference_s: float, min_samples: int):
        self.reference_s = reference_s
        self.min_samples = min_samples
        self.starts: list[float] = []
        self.durations: list[float] = []

    def add(self, start: float, duration: float) -> None:
        self.starts.append(start)
        self.durations.append(duration)

    def slowdown(self, start: float, end: float) -> float:
        starts = self.starts
        lo = bisect.bisect_left(starts, start)
        hi = bisect.bisect_left(starts, end)
        while hi - lo < self.min_samples and (lo > 0 or hi < len(starts)):
            lo = max(0, lo - 1)
            hi = min(len(starts), hi + 1)
        if hi <= lo:
            raise RuntimeError("no reference sample was recorded")
        window = self.durations[lo:hi]
        return len(window) / sum(self.reference_s / d for d in window)


class Clock:
    """Interval timer that excludes and records speed probes."""

    def __init__(self):
        self.probes = Series(PROBE_REF_S, MIN_PROBES)
        self.probe_total = 0.0
        self._active = False

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()
        duration = time.perf_counter() - start
        self.probes.add(start, duration)
        self.probe_total += duration

    def __enter__(self) -> "Clock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._active = True
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._active = False

    @contextlib.contextmanager
    def paused(self):
        """Context in which no probe fires (around a child process, whose
        start-up the probe would otherwise compete with)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        try:
            yield
        finally:
            if self._active:
                signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def work_time(self) -> float:
        """Wall clock minus the probe time spent so far."""
        return time.perf_counter() - self.probe_total

    def stamp(self) -> tuple[float, float]:
        """(wall clock, cumulative probe time) at this instant."""
        return time.perf_counter(), self.probe_total

    def interval(self, begin: tuple[float, float], end: tuple[float, float]) -> "Interval":
        return Interval(begin[0], end[0], (end[0] - begin[0]) - (end[1] - begin[1]))

    def slowdown(self, start: float, end: float) -> float:
        """How many times slower than reference speed the host ran
        interpreter-bound code near [start, end]."""
        return self.probes.slowdown(start, end)

    def normalized(self, interval: "Interval") -> float:
        return interval.seconds / self.slowdown(interval.start, interval.end)

    def median_slowdown(self) -> float:
        return statistics.median(d / PROBE_REF_S for d in self.probes.durations)


class Interval:
    __slots__ = ("start", "end", "seconds")

    def __init__(self, start: float, end: float, seconds: float):
        self.start, self.end, self.seconds = start, end, seconds


median = statistics.median


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest whole percentile with at least ten
    samples above it, or the maximum and 100 when there are ten or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    percentile = math.floor(100.0 * (n - 10) / n)
    index = max(0, math.ceil(percentile / 100.0 * n) - 1)
    return float(percentile), ordered[index]
