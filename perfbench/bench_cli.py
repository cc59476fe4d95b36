"""cli workload: cold ``python -m vattn`` processes, one at a time.

One pass runs seven commands, each in a fresh interpreter: ``attn`` for
each of the five kinds at m = 16, ``transport`` (closed form) at 64 x 64
and ``gradcheck`` at m = 8 with utilities.  This is the latency a user of
the command sees; most of it is interpreter and numpy start-up, so this
is the one workload where import and argument parsing dominate.

Correctness: every call exits 0 and prints JSON that parses; ``attn``
prints exactly the 17-digit weights, potential and objective that
``solvers.solve`` gives in process for the same input, and ``transport``
the plan ``attention_matrix`` gives.  One operation is one child process
(the floor calls below included).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import clock as clockmod
import harness

M_ATTN = 16
M_GRADCHECK = 8
TRANSPORT_SHAPE = (64, 64, 16)  # queries, keys, dimension
MIN_PASSES = 3
CALL_TIMEOUT_S = 60
IMPORT_REPEATS = 5
TRACE_COLD_PASSES = 3
# A cold call is mostly process start-up, which a busy host slows more than
# it slows the in-process probe.  Calls are normalized instead by the
# floor every call pays, a cold ``python -c "import numpy"``, run twice a
# pass; FLOOR_REF_S is its duration at reference speed.
FLOOR_CODE = "import numpy"
FLOOR_REF_S = 0.1
FLOOR_EVERY = 4
ITEMS = ("attn.shannon", "attn.l2", "attn.tsallis", "attn.alibi", "attn.kl", "transport", "gradcheck")
SUBCOMMANDS = ("attn", "transport", "gradcheck")


class State:
    def __init__(self, vattn, workdir, src):
        self.vattn = vattn
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env.pop("VATTN_TOL_SCALE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.commands: dict[str, list[str]] = {}
        self.expected: dict[str, dict] = {}
        self.floor = clockmod.Series(FLOOR_REF_S, 4)


def _write(path, document) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return str(path)


def setup(vattn, seed: int, workdir) -> State:
    src = Path(vattn.__file__).resolve().parent.parent
    workdir = Path(workdir) / f"cli-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    state = State(vattn, workdir, src)
    rng = np.random.default_rng([seed, 4])

    scores = [float(x) for x in rng.uniform(-5.0, 5.0, M_ATTN)]
    attn_input = _write(workdir / "attn.json", {"scores": scores})
    prior = [float(x) for x in 0.9 * rng.dirichlet(np.ones(M_ATTN)) + 0.1 / M_ATTN]
    prior_path = _write(workdir / "prior.json", prior)
    tau = [round(float(rng.uniform(0.5, 2.0)), 6) for _ in range(3)]
    gamma = round(float(rng.uniform(0.0, 2.0)), 6)
    position = int(rng.integers(1, M_ATTN + 1))
    flags = {
        "attn.shannon": ["--reg", "shannon", "--tau", repr(tau[0])],
        "attn.l2": ["--reg", "l2"],
        "attn.tsallis": ["--reg", "tsallis", "--alpha", "1.5"],
        "attn.alibi": ["--reg", "alibi", "--tau", repr(tau[1]), "--gamma", repr(gamma), "--pos", str(position)],
        "attn.kl": ["--reg", "kl", "--tau", repr(tau[2]), "--prior", prior_path],
    }
    spec = vattn.RegularizerSpec
    regs = {
        "attn.shannon": spec.shannon(tau[0]),
        "attn.l2": spec.l2(),
        "attn.tsallis": spec.tsallis(1.5),
        "attn.alibi": spec.alibi(gamma, position, tau[1]),
        "attn.kl": spec.kl_prior(
            vattn.SimplexDistribution.renormalized(np.asarray(prior, dtype=np.float64)), tau[2]
        ),
    }
    s = vattn.Scores(scores)
    for item, reg in regs.items():
        state.commands[item] = ["attn", attn_input] + flags[item]
        result = vattn.solvers.solve(s, reg)
        state.expected[item] = {
            "distribution": [float(x) for x in result.distribution.weights],
            "support_size": result.support_size,
            "potential": result.potential,
            "objective": vattn.core.objective_value(result.distribution, s, reg),
        }

    n, m, d = TRANSPORT_SHAPE
    queries = rng.uniform(-1.0, 1.0, (n, d)) / np.sqrt(d)
    keys = rng.uniform(-1.0, 1.0, (m, d)) / np.sqrt(d)
    epsilon = round(float(rng.uniform(0.5, 2.0)), 6)
    transport_input = _write(
        workdir / "transport.json", {"queries": queries.tolist(), "keys": keys.tolist()}
    )
    state.commands["transport"] = ["transport", transport_input, "--tau", repr(epsilon)]
    plan = vattn.transport.attention_matrix(vattn.QueryKeyBatch(queries, keys), epsilon)
    state.expected["transport"] = {"plan": plan.entries.tolist()}

    gradcheck_input = _write(
        workdir / "gradcheck.json",
        {
            "scores": [float(x) for x in rng.uniform(-5.0, 5.0, M_GRADCHECK)],
            "temperature": round(float(rng.uniform(0.5, 2.0)), 6),
            "utilities": [float(x) for x in rng.uniform(-3.0, 3.0, M_GRADCHECK)],
        },
    )
    state.commands["gradcheck"] = ["gradcheck", gradcheck_input]

    for item in ("attn.shannon", "transport", "gradcheck"):
        _call(state, [sys.executable, "-m", "vattn"] + state.commands[item])
    return state


def _call(state: State, argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv,
        cwd=state.workdir,
        env=state.env,
        capture_output=True,
        text=True,
        timeout=CALL_TIMEOUT_S,
        check=False,
    )


def output_ok(item: str, returncode: int, stdout: str, state: State) -> bool:
    if returncode != 0:
        return False
    try:
        document = json.loads(stdout)
    except json.JSONDecodeError:
        return False
    expected = state.expected.get(item)
    if expected is None:
        return isinstance(document, dict) and all(
            check.get("passed") is True
            for report in document.get("reports", [])
            for check in report.get("per_check", [])
        )
    return all(document.get(key) == value for key, value in expected.items())


def _timed_call(state: State, rec: harness.Recorder, item: str, argv: list[str]):
    clock = rec.clock
    with clock.paused():
        begin = clock.stamp()
        done = _call(state, argv)
        end = clock.stamp()
    rec.time(item, begin, end, series=state.floor)
    return done


def _floor(state: State, rec: harness.Recorder) -> None:
    with rec.clock.paused():
        begin = rec.clock.stamp()
        done = _call(state, [sys.executable, "-c", FLOOR_CODE])
        interval = rec.clock.interval(begin, rec.clock.stamp())
    state.floor.add(interval.start, interval.seconds)
    rec.check(done.returncode == 0)


def run_pass(state: State, rec: harness.Recorder) -> None:
    for index, item in enumerate(ITEMS):
        if index % FLOOR_EVERY == 0:
            _floor(state, rec)
        done = _timed_call(state, rec, item, [sys.executable, "-m", "vattn"] + state.commands[item])
        rec.check(output_ok(item, done.returncode, done.stdout, state))


def run_in_process(state: State, rec: harness.Recorder) -> None:
    """The same seven commands through ``cli.main`` in this process."""
    for item in ITEMS:
        out = io.StringIO()
        begin = rec.clock.stamp()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = state.vattn.cli.main(list(state.commands[item]))
        rec.time(item, begin, rec.clock.stamp())
        rec.check(output_ok(item, code, out.getvalue(), state))


# The traced run times the commands warm, in process, where spans can see
# them; its cold figures come from untraced cold passes and bare imports.
TRACED_PASS = run_in_process
MAX_TRACED = 3


def _per_subcommand(medians: dict[str, float]) -> dict[str, float]:
    """Mean of the item medians of each subcommand (``attn`` over its
    five kinds)."""
    out = {}
    for sub in SUBCOMMANDS:
        items = [item for item in ITEMS if item.split(".")[0] == sub]
        out[sub] = sum(medians[i] for i in items) / len(items)
    return out


def trace_extras(state: State, rec: harness.Recorder):
    """Cold passes, and cold ``import vattn`` against the floor.  Returns a
    function giving the figures once the run's probes are all in."""
    for _ in range(TRACE_COLD_PASSES):
        run_pass(state, rec)
    for _ in range(IMPORT_REPEATS):
        _floor(state, rec)
        done = _timed_call(state, rec, "import", [sys.executable, "-c", "import vattn"])
        rec.check(done.returncode == 0)

    def finish() -> dict[str, float]:
        med, raw = rec.medians(), rec.raw_samples()
        floor = clockmod.median(state.floor.durations)
        out = {
            "cli.import.ms": 1e3 * med["import"],
            "cli.floor.ms": 1e3 * floor,
            "cli.floor_share_of_call": floor / clockmod.median(s for i in ITEMS for s in raw[i]),
        }
        for sub, seconds in _per_subcommand(med).items():
            out[f"cli.{sub}.ms"] = 1e3 * seconds
        return out

    return finish


def figures(rec: harness.Recorder) -> dict[str, tuple[float, str]]:
    calls = [s for item in ITEMS for s in rec.samples()[item]]
    percentile, tail = clockmod.tail(calls)
    return {
        "cli_ms.p50": (1e3 * clockmod.median(calls), "ms"),
        f"cli_ms.tail (p{percentile:g} of {len(calls)})": (1e3 * tail, "ms"),
    }


def layer_figures(plain: harness.Recorder, traced: harness.Recorder) -> dict[str, float]:
    """Warm in-process ``cli.main`` time per subcommand, untraced."""
    return {f"cli.main.{sub}.us": 1e6 * s for sub, s in _per_subcommand(plain.medians()).items()}
