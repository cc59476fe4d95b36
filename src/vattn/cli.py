"""The ``vattn`` command line: solve attention variants from JSON files,
run the verification suites, and emit machine-readable reports.

Exit codes: 0 success, 1 numerical failure or any failed check, 2
malformed input, 3 invalid flag combination.  Reports are byte-identical
for identical (input, flags, seed) apart from the wall_time_ms field;
floats are printed with 17 significant digits so documents round-trip
exactly.  The environment variable VATTN_TOL_SCALE (default 1) multiplies
every suite tolerance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import core, solvers, suites, transport
from .core import (
    NumericalFailure,
    QueryKeyBatch,
    RegularizerSpec,
    Scores,
    SimplexDistribution,
    UtilityVector,
    ValueSet,
)
from .suites import SUITE_NAMES, RunReport

__all__ = ["main"]

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_INPUT = 2
EXIT_FLAGS = 3

# The command line spells kl_prior as kl.
_CLI_KINDS = {"kl": core.KL_PRIOR}
_REG_CHOICES = sorted(set(core.REGULARIZER_KINDS) - set(_CLI_KINDS.values()) | set(_CLI_KINDS))

# The attn flag that sets each RegularizerSpec field.
_FIELD_FLAGS = {
    "temperature": "tau",
    "alpha": "alpha",
    "gamma": "gamma",
    "query_position": "pos",
    "prior": "prior",
}


class InputError(Exception):
    """Malformed input document or unreadable file (exit 2)."""


class FlagError(Exception):
    """Flags that do not form a valid request (exit 3)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_FLAGS, f"{self.prog}: error: {message}\n")


def _format_json(value, indent: int = 0) -> str:
    """Fixed-layout JSON with floats at 17 significant digits."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{pad}  {json.dumps(key)}: {_format_json(entry, indent + 1)}"
            for key, entry in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(f"{pad}  {_format_json(entry, indent + 1)}" for entry in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _emit(document: dict, out_path: str | None) -> None:
    text = _format_json(document) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise InputError(f"{path} must contain a JSON object")
    return document


def _vector_field(document: dict, name: str, required: bool = False):
    if name not in document:
        if required:
            raise InputError(f"input is missing the required field {name!r}")
        return None
    raw = document[name]
    if not isinstance(raw, list) or not raw or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw
    ):
        raise InputError(f"field {name!r} must be a non-empty array of numbers")
    arr = np.asarray(raw, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise InputError(f"field {name!r} must be finite")
    return arr


def _matrix_field(document: dict, name: str, required: bool = False):
    if name not in document:
        if required:
            raise InputError(f"input is missing the required field {name!r}")
        return None
    raw = document[name]
    if not isinstance(raw, list) or not raw or not all(isinstance(row, list) for row in raw):
        raise InputError(f"field {name!r} must be a non-empty array of number arrays")
    widths = {len(row) for row in raw}
    if len(widths) != 1 or 0 in widths:
        raise InputError(f"field {name!r} must have equal-length non-empty rows")
    try:
        arr = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"field {name!r} must contain only numbers") from exc
    if not np.all(np.isfinite(arr)):
        raise InputError(f"field {name!r} must be finite")
    return arr


def _scalar_field(document: dict, name: str):
    if name not in document:
        return None
    raw = document[name]
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise InputError(f"field {name!r} must be a number")
    return raw


def _load_scores(document: dict) -> Scores:
    return Scores(_vector_field(document, "scores", required=True))


def _load_prior(spec: str, m: int) -> SimplexDistribution:
    if spec == "uniform":
        return SimplexDistribution.uniform(m)
    try:
        with open(spec, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read prior file {spec}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"prior file {spec} is not valid JSON: {exc}") from exc
    if isinstance(raw, dict):
        raw = raw.get("prior")
    if not isinstance(raw, list):
        raise InputError(f"prior file {spec} must hold an array (or an object with 'prior')")
    try:
        return SimplexDistribution.renormalized(np.asarray(raw, dtype=np.float64))
    except (TypeError, ValueError) as exc:
        raise InputError(f"prior file {spec}: {exc}") from exc


def _file_prior(raw, m: int) -> SimplexDistribution | None:
    if raw is None:
        return None
    if raw == "uniform":
        return SimplexDistribution.uniform(m)
    return SimplexDistribution.renormalized(np.asarray(raw, dtype=np.float64))


def _build_regularizer(args, document: dict, m: int) -> RegularizerSpec:
    """Resolve the regularizer from flags first, then the input document."""
    file_reg = document.get("regularizer")
    if file_reg is not None and not isinstance(file_reg, dict):
        raise InputError("field 'regularizer' must be an object")
    file_reg = file_reg or {}

    name = getattr(args, "reg", None)
    if name is None:
        name = file_reg.get("kind")
        if name is None:
            raise FlagError("no regularizer given: pass --reg or a 'regularizer' object")
    kind = _CLI_KINDS.get(name, name) if isinstance(name, str) else None
    if kind not in core.REGULARIZER_KINDS:  # only a file's kind can be unknown
        raise InputError(f"unknown regularizer kind {name!r} in input")

    # The document's top-level temperature is read for every kind.
    tau = getattr(args, "tau", None)
    if tau is None:
        tau = _scalar_field(document, "temperature")

    fields = core._KINDS[kind].fields
    for field, flag in _FIELD_FLAGS.items():
        if getattr(args, flag, None) is not None and field not in fields:
            raise FlagError(f"--{flag} is not valid with --reg {name}")

    values = {}
    try:
        for field in fields:
            flag_value = getattr(args, _FIELD_FLAGS[field], None)
            if field == "temperature":
                values[field] = tau
            elif field == "prior":
                values[field] = (
                    _load_prior(flag_value, m)
                    if flag_value is not None
                    else _file_prior(file_reg.get("prior"), m)
                )
            else:
                values[field] = (
                    flag_value if flag_value is not None else _scalar_field(file_reg, field)
                )
        missing = [f"--{_FIELD_FLAGS[field]}" for field in fields if values[field] is None]
        if missing:
            raise FlagError(f"the {name} regularizer needs {', '.join(missing)}")
        return RegularizerSpec(kind, **values)
    except (TypeError, ValueError) as exc:
        raise FlagError(str(exc)) from exc


def _report_document(report: RunReport) -> dict:
    checks = []
    for check in report.per_check:
        entry = {
            "name": check.name,
            "residual": check.residual,
            "tolerance": check.tolerance,
            "passed": check.passed,
        }
        if check.details is not None:
            entry["details"] = check.details
        checks.append(entry)
    return {
        "suite": report.suite,
        "cases_run": report.cases_run,
        "cases_passed": report.cases_passed,
        "max_residual": report.max_residual,
        "per_check": checks,
        "seed": report.seed,
        "wall_time_ms": report.wall_time_ms,
    }


def _summarize(report: RunReport) -> None:
    status = "ok" if report.passed else "FAILED"
    print(
        f"{status} {report.suite}: {report.cases_passed}/{report.cases_run} checks passed "
        f"(max residual {report.max_residual:.3e}, {report.wall_time_ms} ms)",
        file=sys.stderr,
    )


def _tolerance_scale() -> float:
    raw = os.environ.get("VATTN_TOL_SCALE", "1")
    try:
        return core._check_positive_real(raw, "VATTN_TOL_SCALE")
    except ValueError as exc:
        raise InputError(f"VATTN_TOL_SCALE must be a positive finite real, got {raw!r}") from exc


def _cmd_attn(args) -> int:
    document = _load_document(args.input)
    try:
        scores = _load_scores(document)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    reg = _build_regularizer(args, document, len(scores))
    result = solvers.solve(scores, reg)
    objective = core.objective_value(result.distribution, scores, reg)
    _emit(
        {
            "distribution": [float(x) for x in result.distribution.weights],
            "support_size": result.support_size,
            "potential": result.potential,
            "objective": objective,
        },
        args.out,
    )
    return EXIT_OK


def _check_run_flags(args) -> None:
    if getattr(args, "seed", 0) < 0:
        raise FlagError("--seed must be a nonnegative 64-bit integer")
    if getattr(args, "trials", 1) < 1:
        raise FlagError("--trials must be at least 1")


def _cmd_verify(args) -> int:
    _check_run_flags(args)
    scale = _tolerance_scale()
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    reports = [
        suites.run_suite(name, args.seed, args.trials, tolerance_scale=scale)
        for name in names
    ]
    for report in reports:
        _summarize(report)
    _emit({"reports": [_report_document(r) for r in reports]}, args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_NUMERICAL


def _cmd_gradcheck(args) -> int:
    _check_run_flags(args)
    scale = _tolerance_scale()
    document = _load_document(args.input)
    try:
        scores = _load_scores(document)
        temperature = _scalar_field(document, "temperature")
        if temperature is None:
            raise InputError("gradcheck input must provide 'temperature'")
        utilities_arr = _vector_field(document, "utilities")
        utilities = UtilityVector(utilities_arr) if utilities_arr is not None else None
        values_arr = _matrix_field(document, "values")
        values = ValueSet(values_arr) if values_arr is not None else None
        context_grad = _vector_field(document, "context_gradient")
        if utilities is not None and len(utilities) != len(scores):
            raise InputError("'utilities' must match the length of 'scores'")
        if values is not None and values.values.shape[0] != len(scores):
            raise InputError("'values' must have one row per score")
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    try:
        report = suites.gradcheck_report(
            scores,
            temperature,
            utilities=utilities,
            values=values,
            context_gradient=context_grad,
            seed=args.seed,
            tolerance_scale=scale,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _summarize(report)
    _emit({"reports": [_report_document(report)]}, args.out)
    return EXIT_OK if report.passed else EXIT_NUMERICAL


def _cmd_transport(args) -> int:
    document = _load_document(args.input)
    try:
        queries = _matrix_field(document, "queries", required=True)
        keys = _matrix_field(document, "keys", required=True)
        batch = QueryKeyBatch(queries, keys)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    epsilon = args.tau if args.tau is not None else _scalar_field(document, "temperature")
    if epsilon is None:
        raise FlagError("transport needs --tau (the entropy weight) or a 'temperature' field")
    try:
        if args.method == "oracle":
            plan = transport.solve_full_eot(batch, epsilon)
        else:
            plan = transport.attention_matrix(batch, epsilon)
        objective = transport.eot_matrix_objective(plan, transport.cost_matrix(batch), epsilon)
    except ValueError as exc:
        raise FlagError(str(exc)) from exc
    _emit(
        {
            "plan": [[float(x) for x in row] for row in plan.entries],
            "objective": objective,
            "method": args.method,
        },
        args.out,
    )
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="vattn",
        description=(
            "Attention weight maps as exact minimizers of regularized convex "
            "programs over the simplex, with machine-checked identities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    attn = sub.add_parser("attn", help="solve one score vector under a chosen regularizer")
    attn.add_argument("input", help="JSON file with a 'scores' array")
    attn.add_argument("--reg", choices=_REG_CHOICES, help="regularizer kind")
    attn.add_argument("--tau", type=float, help="temperature (entropy weight)")
    attn.add_argument("--alpha", type=float, help="tsallis exponent (> 1)")
    attn.add_argument("--gamma", type=float, help="locality penalty weight (>= 0)")
    attn.add_argument("--pos", type=int, help="1-based query position for --reg alibi")
    attn.add_argument("--prior", help="prior for --reg kl: a JSON file path or 'uniform'")
    attn.add_argument("--out", help="output path (default stdout)")
    attn.set_defaults(handler=_cmd_attn)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("suite", choices=list(SUITE_NAMES) + ["all"])
    verify.add_argument("--seed", type=int, default=0, help="RNG seed (PCG64)")
    verify.add_argument("--trials", type=int, default=100, help="trials per check")
    verify.add_argument("--out", help="output path (default stdout)")
    verify.set_defaults(handler=_cmd_verify)

    gradcheck = sub.add_parser(
        "gradcheck", help="finite-difference certification of one instance file"
    )
    gradcheck.add_argument(
        "input",
        help="JSON file with 'scores', 'temperature', optional 'utilities', "
        "'values', 'context_gradient'",
    )
    gradcheck.add_argument("--seed", type=int, default=0, help="recorded in the report")
    gradcheck.add_argument("--out", help="output path (default stdout)")
    gradcheck.set_defaults(handler=_cmd_gradcheck)

    trans = sub.add_parser("transport", help="full transport plan for a queries/keys file")
    trans.add_argument("input", help="JSON file with 'queries' and 'keys' matrices")
    trans.add_argument("--tau", type=float, help="entropy weight (a.k.a. temperature)")
    trans.add_argument(
        "--method",
        choices=["closed-form", "oracle"],
        default="closed-form",
        help="row-wise softmax, or the iterative solver for cross-checking",
    )
    trans.add_argument("--out", help="output path (default stdout)")
    trans.set_defaults(handler=_cmd_transport)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"vattn: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FlagError as exc:
        print(f"vattn: invalid flags: {exc}", file=sys.stderr)
        return EXIT_FLAGS
    except NumericalFailure as exc:
        print(f"vattn: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
