"""verify workload: ``suites.run_suite`` over all five suites at 100 trials.

This is ``vattn verify all --seed SEED --trials 100``, the library's
certification path, called in process.  Its cost sits in the oracle
(exponentiated gradient for the entropy family, projected gradient for
the sparse family) and the grid searches; the closed forms do little of
the work.  The trial count stays at 100: grid checks are capped at 10
trials, so at low trial counts they, not the oracle, dominate.

Correctness: every suite passes, and every report for a suite is
byte-identical (``wall_time_ms`` aside) to the first one of the run,
traced or not.  One operation is one ``run_suite`` call.
"""

from __future__ import annotations

import dataclasses

import harness

TRIALS = 100
MIN_PASSES = 2
# The warm-up runs every suite at one trial with a fixed seed: that lone
# grid-sandwich trial searches 2e3 or 2e6 grid points depending on the
# seed, which would make set-up time a property of the seed.
WARMUP_SEED = 0
ITEMS = ("closed-forms", "oracle-equivalence", "gradient-identities", "duality", "transport")


class State:
    def __init__(self, vattn, seed: int):
        self.vattn = vattn
        self.seed = seed
        self.reports: dict[str, str] = {}


def setup(vattn, seed: int, workdir) -> State:
    if tuple(vattn.suites.SUITE_NAMES) != ITEMS:
        raise RuntimeError(f"suite list changed: {vattn.suites.SUITE_NAMES}")
    for name in ITEMS:
        vattn.suites.run_suite(name, WARMUP_SEED, 1)
    return State(vattn, seed)


def canonical(report) -> str:
    return repr(dataclasses.replace(report, wall_time_ms=0))


def run_pass(state: State, rec: harness.Recorder) -> None:
    suites = state.vattn.suites
    for name in ITEMS:
        begin = rec.clock.stamp()
        report = suites.run_suite(name, state.seed, TRIALS)
        rec.time(name, begin, rec.clock.stamp())
        text = canonical(report)
        rec.check(report.passed and text == state.reports.setdefault(name, text))


TRACED_PASS = run_pass
MAX_TRACED = 1


def figures(rec: harness.Recorder) -> dict[str, tuple[float, str]]:
    return {
        "verify_s": (rec.pass_seconds(ITEMS), "s"),
        "verify_s.raw": (rec.raw_pass_seconds(ITEMS), "s"),
    }


def layer_figures(plain: harness.Recorder, traced: harness.Recorder) -> dict[str, float]:
    return {}
