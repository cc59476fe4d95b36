"""List the statements of the library that no benchmark workload executes.

    python3 tools/workload_paths.py [--seed N]

Run it from the root of a checkout.  It runs one pass of each workload of
``perfbench/`` in this process, importing the bench modules read-only and
the library from ``src/``: ``verify`` at 100 trials (its set-up's one-trial
suites included), ``solve``, and ``cli`` through ``cli.main`` on the
commands ``bench_cli`` builds (its set-up's cold calls run in child
processes, which are not traced).  The library is imported under
``sys.settrace``, so its import-time statements count as executed.  A
statement is a line that holds bytecode in ``src/vattn``; one that no
workload reached is printed as ``path:line`` with its text, consecutive
lines grouped, and then the count per module.  A path that no workload
takes is code whose results the benchmark never checks.  The traced passes
take about 10 s on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vattn"


def statement_lines(path: Path) -> set[int]:
    """Every line of ``path`` that holds bytecode, nested code included."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo += [const for const in code.co_consts if hasattr(const, "co_lines")]
    return lines


def run_workloads(seed: int, executed: dict[str, set[int]]) -> None:
    """One pass of each workload, with every executed line of the
    package's files recorded in ``executed``."""
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        executed.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import bench_cli
    import bench_solve
    import bench_verify
    import clock
    import harness

    sys.settrace(trace)
    try:
        import vattn
        import vattn.cli

        with tempfile.TemporaryDirectory() as workdir:
            for bench, run in (
                (bench_verify, bench_verify.run_pass),
                (bench_solve, bench_solve.run_pass),
                (bench_cli, bench_cli.run_in_process),
            ):
                state = bench.setup(vattn, seed, workdir)
                recorder = harness.Recorder(clock.Clock())
                with contextlib.redirect_stdout(io.StringIO()):
                    run(state, recorder)
                if recorder.failed:
                    raise SystemExit(f"{bench.__name__}: {recorder.failed} outputs were wrong")
    finally:
        sys.settrace(None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    executed: dict[str, set[int]] = {}
    run_workloads(args.seed, executed)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        statements = statement_lines(path)
        missed = sorted(statements - executed.get(str(path), set()))
        text = path.read_text().splitlines()
        name = path.relative_to(ROOT)
        groups: list[list[int]] = []
        for line in missed:
            if groups and line == groups[-1][-1] + 1:
                groups[-1].append(line)
            else:
                groups.append([line])
        for group in groups:
            span = f"{group[0]}" if len(group) == 1 else f"{group[0]}-{group[-1]}"
            print(f"{name}:{span}  {text[group[0] - 1].strip()}")
        print(f"# {name}: {len(missed)} of {len(statements)} statements not executed")
        total += len(missed)
    print(f"# {total} statements not executed by any workload (seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
