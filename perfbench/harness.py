"""Pass loop, sample recording and outcome counting shared by the workloads.

A workload is a closed loop of passes; a pass runs the workload's fixed
list of timed items once, in one process, one call at a time.  Every item
is timed per pass and its samples are normalized by ``clock`` when the run
ends.  An item's figure is the median of its samples; ``pass_s`` is the sum
of the item medians, the time of one pass.
"""

from __future__ import annotations

import time
from collections import defaultdict

import clock as clockmod


class Recorder:
    def __init__(self, clock: clockmod.Clock):
        self.clock = clock
        self._intervals: dict[str, list] = defaultdict(list)
        self._parts: dict[str, list] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.passes = 0

    def time(self, item: str, begin, end, units: int = 1, series=None) -> None:
        """Record that ``units`` operations of ``item`` ran from stamp
        ``begin`` to stamp ``end``; ``series`` is the reference task that
        normalizes it (the interpreter probe unless given)."""
        self._intervals[item].append((self.clock.interval(begin, end), units, series))

    def part(self, item: str, seconds: float, begin, end, series=None) -> None:
        """Record ``seconds``, summed from ``clock.interval`` figures (so
        without probe time) inside [begin, end], as a sample of ``item``
        (a share of a timed batch, such as input validation)."""
        self._parts[item].append((seconds, begin[0], end[0], series))

    def check(self, ok: bool, operations: int = 1) -> None:
        self.attempted += operations
        if not ok:
            self.failed += operations

    def samples(self) -> dict[str, list[float]]:
        """Normalized seconds per sample, for every item."""
        out = {}
        for item, entries in self._intervals.items():
            out[item] = [
                iv.seconds / (series or self.clock.probes).slowdown(iv.start, iv.end)
                for iv, _, series in entries
            ]
        for item, entries in self._parts.items():
            out[item] = [
                s / (series or self.clock.probes).slowdown(a, b) for s, a, b, series in entries
            ]
        return out

    def raw_samples(self) -> dict[str, list[float]]:
        out = {item: [e[0].seconds for e in entries] for item, entries in self._intervals.items()}
        out.update({item: [e[0] for e in entries] for item, entries in self._parts.items()})
        return out

    def units(self, item: str) -> int:
        """Operations per sample of ``item`` (the same in every pass)."""
        return self._intervals[item][0][1]

    def medians(self) -> dict[str, float]:
        return {item: clockmod.median(s) for item, s in self.samples().items()}

    def pass_seconds(self, items) -> float:
        samples = self.samples()
        return sum(clockmod.median(samples[item]) for item in items)

    def raw_pass_seconds(self, items) -> float:
        samples = self.raw_samples()
        return sum(clockmod.median(samples[item]) for item in items)


def run_passes(run_pass, state, recorder: Recorder, seconds: float, min_passes: int) -> None:
    """Closed loop: passes back to back until ``seconds`` have elapsed and
    at least ``min_passes`` ran."""
    started = time.perf_counter()
    while recorder.passes < min_passes or time.perf_counter() - started < seconds:
        run_pass(state, recorder)
        recorder.passes += 1
