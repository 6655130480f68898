"""Command line front end.

Every subcommand reads JSON documents, prints a single JSON report to
stdout, and exits with 0 (checks passed), 1 (a verdict or residual
failed), or 2 (malformed input or violated precondition).  Reports go
through the canonical serializer, so numbers carry 17 significant
digits and parsing the report recovers them exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import factorization as fz
from .errors import ColligateError, StructureError, WitnessError
from .fileio import (
    digest_file,
    dumps_canonical,
    load_colligation,
    load_kernel,
    load_table,
    load_values,
    load_witness,
    save_colligation,
)
from .linalg import DEFAULT_ATOL, _check_atol
from .realization import (
    Colligation,
    _round_robin_representation,
    direct_sum,
    evaluate,
    evaluate_all,
    product,
    random_colligation,
)
from .testfn import _norm_bracket, is_admissible, validate_test_family

__all__ = ["main"]

# entries of each violation tuple that a bad-table message lists
_SHOWN = 8


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="colligate",
        description="Evaluate, factor, and certify isometric colligations "
        "over finite test-function families.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument(
            "--atol",
            type=float,
            default=DEFAULT_ATOL,
            help="tolerance for validation and verdicts",
        )
        return p

    p = add("eval", "evaluate the transfer function at table points", _cmd_eval)
    p.add_argument("colligation")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--point", type=int, default=None, help="single point index")
    g.add_argument("--all", action="store_true", help="every table point (the default)")

    p = add("check", "test factorizability conditions for one variant", _cmd_check)
    p.add_argument("colligation")
    p.add_argument("--variant", choices=fz.VARIANTS, required=True)
    p.add_argument("--witness", default=None, help="witness document")
    p.add_argument(
        "--auto",
        action="store_true",
        help="search for missing witnesses instead of reading them",
    )

    p = add("factor", "split a colligation into two isometric factors", _cmd_factor)
    p.add_argument("colligation")
    p.add_argument("--variant", choices=fz.VARIANTS, required=True)
    p.add_argument("--witness", default=None)
    p.add_argument("--auto", action="store_true")
    p.add_argument("-o", "--output", required=True, help="stem for <stem>.f1.json and <stem>.f2.json")

    p = add("multiply", "compose two colligations over the same table", _cmd_multiply)
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("-o", "--output", required=True)

    p = add("verify", "check that two factors multiply back to a parent", _cmd_verify)
    p.add_argument("parent")
    p.add_argument("first")
    p.add_argument("second")

    p = add("random", "draw a random isometric colligation with a split state space", _cmd_random)
    p.add_argument("--table", required=True)
    p.add_argument("--value-dim", type=int, required=True)
    p.add_argument("--state-dims", required=True, help="two sizes, e.g. 3,2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)

    p = add("admissible", "test positivity of a kernel against a table", _cmd_admissible)
    p.add_argument("kernel")
    p.add_argument("table")

    p = add("norm-bound", "lower bound the smallest bound certified by kernels", _cmd_norm_bound)
    p.add_argument("values")
    p.add_argument("--kernels", required=True, help="comma-separated kernel files")

    return top


def _require_valid_table(table, path: str, atol: float) -> None:
    diag = validate_test_family(table, atol=atol)
    if not diag.passed:
        raise StructureError(f"{path}: test-function table fails validation: {_summary(diag)}")


def _summary(diag) -> str:
    """``repr(diag)`` with every violation tuple of more than _SHOWN entries
    cut to its first _SHOWN and its count, so one bad table cannot make a
    message of megabytes."""
    def shown(value) -> str:
        if isinstance(value, tuple) and len(value) > _SHOWN:
            return f"({', '.join(map(repr, value[:_SHOWN]))}, ... {len(value)} in all)"
        return repr(value)

    fields = (f"{f.name}={shown(getattr(diag, f.name))}" for f in dataclasses.fields(diag))
    return f"{type(diag).__name__}({', '.join(fields)})"


def _loaded_colligation(path: str, atol: float) -> Colligation:
    col = load_colligation(path)
    _require_valid_table(col.table, path, atol)
    col.validate(atol)
    return col


def _resolve_witnesses(split, variant: fz.Variant, witness_path, auto, atol):
    """Return (witness dict, source tag).  Raises on unusable input."""
    given = load_witness(witness_path) if witness_path else {}
    if all(k in given for k in variant.witnesses):
        return {k: given[k] for k in variant.witnesses}, "file"
    if not auto and all(k in given for k in variant.given):
        rest = variant.witnesses[len(variant.given):]
        raise StructureError(
            f"{variant.name} variant needs {fz._quoted(rest)} in the witness, or --auto"
        )
    return variant.search(split, given, atol), "auto"


def _false_verdict(report, exc: WitnessError) -> int:
    report["verdict"] = False
    report["witness_error"] = str(exc)
    if exc.certificate is not None:
        report["residuals"] = exc.certificate.residuals
    return 1


def _cmd_eval(args, report):
    col = _loaded_colligation(args.colligation, args.atol)
    if args.point is None:
        indices, values = range(col.table.n), evaluate_all(col)
    else:
        indices, values = [args.point], [evaluate(col, args.point)]
    report["value_dim"] = col.value_dim
    report["evaluations"] = [
        {
            "index": i,
            "label": col.table.points.labels[i],
            "value": value,
        }
        for i, value in zip(indices, values)
    ]
    return 0


def _cmd_check(args, report):
    variant = fz.VARIANT_TABLE[args.variant]
    col = _loaded_colligation(args.colligation, args.atol)
    split = fz.split_blocks(col, atol=args.atol)
    report["variant"] = args.variant
    try:
        witnesses, source = _resolve_witnesses(
            split, variant, args.witness, args.auto, args.atol
        )
    except WitnessError as exc:
        report["witness_source"] = "auto"
        return _false_verdict(report, exc)
    cert = variant.check(split, witnesses, args.atol)
    report["witness_source"] = source
    report["witnesses"] = witnesses
    report["residuals"] = cert.residuals
    report["verdict"] = cert.verdict
    return 0 if cert.verdict else 1


def _verification(parent, first, second) -> str:
    """The path verify_factorization takes: one defect pass or three."""
    return "one pass" if fz._shares_blocks(parent, first, second) else "three passes"


def _cmd_factor(args, report):
    variant = fz.VARIANT_TABLE[args.variant]
    col = _loaded_colligation(args.colligation, args.atol)
    split = fz.split_blocks(col, atol=args.atol)
    report["variant"] = args.variant
    try:
        witnesses, source = _resolve_witnesses(
            split, variant, args.witness, args.auto, args.atol
        )
        first, second = variant.extract(split, witnesses, args.atol)
    except WitnessError as exc:
        return _false_verdict(report, exc)
    paths = {"first": f"{args.output}.f1.json", "second": f"{args.output}.f2.json"}
    save_colligation(first, paths["first"])
    save_colligation(second, paths["second"])
    report["witness_source"] = source
    report["witnesses"] = witnesses
    report["product_residual"] = fz.verify_factorization(col, first, second)
    report["verification"] = _verification(col, first, second)
    report["outputs"] = paths
    report["verdict"] = True
    return 0


def _cmd_multiply(args, report):
    first = _loaded_colligation(args.first, args.atol)
    second = _loaded_colligation(args.second, args.atol)
    combined = product(first, second)
    save_colligation(combined, args.output)
    report["state_dim"] = combined.state_dim
    report["split"] = list(combined.rep.split)
    report["output"] = args.output
    return 0


def _cmd_verify(args, report):
    parent = _loaded_colligation(args.parent, args.atol)
    first = _loaded_colligation(args.first, args.atol)
    second = _loaded_colligation(args.second, args.atol)
    residual = fz.verify_factorization(parent, first, second)
    report["residual"] = residual
    report["verification"] = _verification(parent, first, second)
    report["verdict"] = residual <= args.atol
    return 0 if residual <= args.atol else 1


def _cmd_random(args, report):
    table = load_table(args.table)
    _require_valid_table(table, args.table, args.atol)
    parts = args.state_dims.split(",")
    if len(parts) != 2:
        raise StructureError("--state-dims takes exactly two sizes, e.g. 3,2")
    try:
        n1, n2 = (int(p) for p in parts)
    except ValueError as exc:
        raise StructureError(f"--state-dims: {exc}") from exc
    if n1 < 1 or n2 < 1 or args.value_dim < 1:
        raise StructureError("state and value dimensions must be positive")
    rep = direct_sum(
        _round_robin_representation(table.m, n1),
        _round_robin_representation(table.m, n2),
    )
    col = random_colligation(args.value_dim, rep, table, seed=args.seed)
    save_colligation(col, args.output)
    report["value_dim"] = col.value_dim
    report["state_dim"] = col.state_dim
    report["split"] = list(col.rep.split)
    report["seed"] = args.seed
    report["isometry_defect"] = col.isometry_defect()
    report["output"] = args.output
    return 0


def _cmd_admissible(args, report):
    kernel = load_kernel(args.kernel)
    table = load_table(args.table)
    _require_valid_table(table, args.table, args.atol)
    verdict = is_admissible(kernel, table, atol=args.atol)
    report["block_dim"] = kernel.block_dim
    report["verdict"] = verdict
    return 0 if verdict else 1


def _cmd_norm_bound(args, report):
    points, stack = load_values(args.values)
    kernels = [load_kernel(p) for p in args.kernels.split(",")]
    for path, kernel in zip(args.kernels.split(","), kernels):
        if kernel.points.labels != points.labels:
            raise StructureError(f"{path}: kernel labels do not match the values file")
    lo, bound, checks = _norm_bracket(stack, kernels, args.atol)
    report["kernel_count"] = len(kernels)
    report["bound"] = bound
    report["bracket"] = [lo, bound]
    report["witness_checks"] = checks
    return 0


_INPUT_ARGS = (
    "colligation",
    "first",
    "second",
    "parent",
    "kernel",
    "table",
    "values",
    "witness",
)


def _input_digests(args) -> dict:
    digests = {}
    for name in _INPUT_ARGS:
        path = getattr(args, name, None)
        if path:
            digests[path] = digest_file(path)
    if getattr(args, "kernels", None):
        for path in args.kernels.split(","):
            digests[path] = digest_file(path)
    return digests


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    report = {
        "command": args.command,
        "argv": list(sys.argv[1:] if argv is None else argv),
        "atol": args.atol,
    }
    try:
        report["inputs"] = _input_digests(args)
        _check_atol(args.atol)
        code = args.handler(args, report)
    except (ColligateError, OSError) as exc:
        report["error"] = type(exc).__name__
        report["detail"] = str(exc)
        sys.stdout.write(dumps_canonical(report))
        return 2
    sys.stdout.write(dumps_canonical(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
