"""The ``vattn`` command line: solve attention variants from JSON files,
run the verification suites, and emit machine-readable reports.

Exit codes: 0 success, 1 numerical failure or any failed check, 2
malformed input, 3 invalid flag combination.  Every outside number goes
through ``_read``: a value that is not finite JSON numbers of the
expected shape is malformed input; a regularizer value of the right shape
outside its domain is a flag error, wherever it came from.  Reports are
byte-identical for identical (input, flags, seed) apart from the
wall_time_ms field; floats are printed with 17 significant digits so
documents round-trip exactly.  The environment variable VATTN_TOL_SCALE
(default 1) multiplies every suite tolerance.
"""

from __future__ import annotations

import argparse
import dataclasses
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


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_document(path: str) -> dict:
    document = _load_json(path)
    if not isinstance(document, dict):
        raise InputError(f"{path} must contain a JSON object")
    return document


_RANKS = (
    "a number",
    "a non-empty array of numbers",
    "a non-empty array of equal-length, non-empty number arrays",
)


def _read(raw, name: str, rank: int):
    """The one reader of outside numbers: ``raw`` must be a JSON number
    (rank 0), a non-empty array of them (rank 1) or a non-empty array of
    equal-length, non-empty number arrays (rank 2), every number within
    the double range and finite.  Returns the raw number for rank 0, so an
    integer field keeps its type, and a float64 array otherwise."""
    rows = [[raw]] if rank == 0 else [raw] if rank == 1 else raw
    if not (
        isinstance(rows, list)
        and rows
        and all(isinstance(row, list) for row in rows)
        and len({len(row) for row in rows}) == 1
        and rows[0]
        # json parses numbers as int or float only; bool, str and None fail here.
        and {type(x) for row in rows for x in row} <= {int, float}
    ):
        raise InputError(f"field {name!r} must be {_RANKS[rank]}")
    try:
        arr = np.array(rows, dtype=np.float64)
    except OverflowError as exc:  # a JSON integer has no size limit
        raise InputError(f"field {name!r} holds a number beyond the double range") from exc
    if not np.isfinite(arr).all():
        raise InputError(f"field {name!r} must be finite")
    return raw if rank == 0 else arr[0] if rank == 1 else arr


def _field(document: dict, name: str, rank: int, required: bool = False):
    if name in document:
        return _read(document[name], name, rank)
    if required:
        raise InputError(f"input is missing the required field {name!r}")
    return None


def _prior(raw, scores: Scores) -> SimplexDistribution:
    """A kl prior as a document's ``regularizer.prior`` or a ``--prior``
    file holds it: "uniform", or one weight per score, renormalized."""
    if raw == "uniform":
        return SimplexDistribution.uniform(len(scores))
    weights = _read(raw, "prior", 1)
    core._check_lengths(weights, scores, "prior", "scores")
    return SimplexDistribution.renormalized(weights)


def _prior_flag(spec: str):
    """The prior a ``--prior`` flag names: "uniform", or a file holding
    the prior or an object with it under "prior"."""
    if spec == "uniform":
        return spec
    raw = _load_json(spec)
    return raw.get("prior") if isinstance(raw, dict) else raw


def _build_regularizer(args, document: dict, scores: Scores) -> RegularizerSpec:
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
        tau = _field(document, "temperature", 0)

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
            elif field == "prior" and flag_value is not None:
                values[field] = _prior(_prior_flag(flag_value), scores)
            elif field == "prior":
                values[field] = _prior(file_reg[field], scores) if field in file_reg else None
            else:
                values[field] = (
                    flag_value if flag_value is not None else _field(file_reg, field, 0)
                )
        missing = [f"--{_FIELD_FLAGS[field]}" for field in fields if values[field] is None]
        if missing:
            raise FlagError(f"the {name} regularizer needs {', '.join(missing)}")
        return RegularizerSpec(kind, **values)
    except (TypeError, ValueError) as exc:
        raise FlagError(str(exc)) from exc


def _report_document(report: RunReport) -> dict:
    document = dataclasses.asdict(report)
    for check in document["per_check"]:
        if check["details"] is None:
            del check["details"]
    return document


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
        return core._check_positive_real(float(raw), "VATTN_TOL_SCALE")
    except ValueError as exc:
        raise InputError(f"VATTN_TOL_SCALE must be a positive finite real, got {raw!r}") from exc


def _cmd_attn(args) -> int:
    document = _load_document(args.input)
    scores = Scores(_field(document, "scores", 1, required=True))
    reg = _build_regularizer(args, document, scores)
    try:
        result = solvers.solve(scores, reg)
    except ValueError as exc:  # a penalty that overflows at every key
        raise FlagError(str(exc)) from exc
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
    scores = Scores(_field(document, "scores", 1, required=True))
    temperature = _field(document, "temperature", 0, required=True)
    utilities_arr = _field(document, "utilities", 1)
    utilities = UtilityVector(utilities_arr) if utilities_arr is not None else None
    values_arr = _field(document, "values", 2)
    values = ValueSet(values_arr) if values_arr is not None else None
    context_grad = _field(document, "context_gradient", 1)
    if utilities is not None and len(utilities) != len(scores):
        raise InputError("'utilities' must match the length of 'scores'")
    if values is not None and len(values) != len(scores):
        raise InputError("'values' must have one row per score")
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
    queries = _field(document, "queries", 2, required=True)
    keys = _field(document, "keys", 2, required=True)
    if queries.shape[1] != keys.shape[1]:
        raise InputError("'queries' and 'keys' must have the same number of columns")
    batch = QueryKeyBatch(queries, keys)
    epsilon = args.tau if args.tau is not None else _field(document, "temperature", 0)
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
