"""Command-line front end: eval | verify | export.

Rationals cross this boundary as exact strings ("p/q" or integers);
floats are opt-in via --float and only for export.  Exit codes: 0 all
good, 1 at least one check failed, 2 usage error.  Identical arguments
(and seed) produce byte-identical output; wall-clock timings are only
included when --timings is passed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .core import enumerate_degrees, family_lattice
from .families import FAMILIES
from .measures import gram_matrix, weight_table
from .operators import OperatorSpec, operator_matrix
from .polynomials import eigenpoly, eigenpoly_table, eigenpoly_tables
from .serialize import (
    csv_text,
    gram_json,
    gram_rows,
    json_text,
    matrix_json,
    matrix_triplets,
    parse_rational,
    rational_str,
    value_str,
    weight_table_json,
    weight_table_rows,
)
from . import verify as V

def _parse_rational_list(text: str):
    return tuple(parse_rational(part) for part in text.split(","))


def _parse_int_list(text: str):
    return tuple(int(part) for part in text.split(","))


def _lattice_point(params, text: str):
    """--x as a point of the family's lattice: x >= 0, and |x| <= N if bounded."""
    x = _parse_int_list(text)
    params.check_point(x)
    if any(c < 0 for c in x):
        raise ValueError(f"coordinates must be non-negative, got {text}")
    if params.N is not None and sum(x) > params.N:
        raise ValueError(f"|x| = {sum(x)} exceeds N = {params.N}")
    return x


def _non_negative(args, dest: str):
    """The integer option ``dest`` of ``args``, None when absent; a negative value is an error."""
    value = getattr(args, dest)
    if value is not None and value < 0:
        raise ValueError(f"--{dest.replace('_', '-')} must be >= 0, got {value}")
    return value


def build_params(args):
    """The family bundle: --a, then the family's own fields (--b, --N, --beta)."""
    a = _parse_rational_list(args.a)
    if args.n is not None and len(a) != args.n:
        raise ValueError(f"--a has {len(a)} entries but --n is {args.n}")
    family = FAMILIES[args.family]
    names = [f.name for f in fields(family)][1:]
    values = [getattr(args, name) for name in names]
    if None in values:
        raise ValueError(f"{args.family} needs " + " and ".join(f"--{k}" for k in names))
    return family(a, *(v if isinstance(v, int) else parse_rational(v) for v in values))


def _family_args(p):
    p.add_argument("--family", required=True, choices=tuple(FAMILIES))
    p.add_argument("--n", type=int, help="number of variables (checked against --a)")
    p.add_argument("--N", type=int, help="lattice bound (hahn/krawtchouk)")
    p.add_argument("--a", required=True, help="comma-separated positive rationals, e.g. 1/2,3,2")
    p.add_argument("--b", help="hahn reservoir parameter (positive rational)")
    p.add_argument("--beta", help="meixner parameter (positive rational)")
    p.add_argument("--xmax", type=int, help="meixner truncation bound")


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_eval(args) -> int:
    params = build_params(args)
    m = _parse_int_list(args.m)
    if args.x is not None:
        value = eigenpoly(m, _lattice_point(params, args.x), params)
        _emit(args, rational_str(value) + "\n")
        return 0
    lattice = family_lattice(params, xmax=_non_negative(args, "xmax"))
    table = eigenpoly_table(m, params, lattice)
    if args.format == "json":
        payload = {
            "family": params.family,
            "m": list(m),
            "points": [list(p) for p in lattice.points],
            "values": [value_str(v) for v in table.values],
        }
        _emit(args, json_text(payload))
    elif args.format == "csv":
        header = [f"x{i+1}" for i in range(lattice.n)] + ["value"]
        rows = [
            list(map(str, p)) + [value_str(v)]
            for p, v in zip(lattice.points, table.values)
        ]
        _emit(args, csv_text(header, rows))
    else:
        lines = [
            f"{p} {rational_str(v)}" for p, v in zip(lattice.points, table.values)
        ]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args) -> int:
    params = build_params(args)
    names = V.SUITE if args.check is None else (args.check,)
    reports = V.run_checks(params, names, _non_negative(args, "m_max"),
                           _non_negative(args, "xmax"), args.seed)
    failed = any(r.status == V.FAIL for r in reports)
    if args.format == "json":
        payload = {
            "instance": params.label,
            "reports": [r.to_dict(with_timing=args.timings) for r in reports],
            "failed": failed,
        }
        _emit(args, json_text(payload))
    else:
        lines = [r.text_row() for r in reports]
        lines.append(f"{sum(r.status == V.PASS for r in reports)} pass, "
                     f"{sum(r.status == V.FAIL for r in reports)} fail, "
                     f"{sum(r.status == V.SKIP for r in reports)} skipped")
        _emit(args, "\n".join(lines) + "\n")
    return 1 if failed else 0


def _parse_op(text: str):
    if text in ("total", "single"):
        return text, None
    if text.startswith("exchange"):
        return "exchange", int(text[len("exchange"):])
    raise ValueError(f"unknown operator {text!r} (total, single, exchangeK)")


def cmd_export(args) -> int:
    params = build_params(args)
    as_float = args.float
    if args.what == "weights":
        w = weight_table(params, xmax=_non_negative(args, "xmax"))
        if args.format == "json":
            _emit(args, json_text(weight_table_json(w, as_float)))
        else:
            _emit(args, csv_text(*weight_table_rows(w, as_float)))
        return 0
    if args.what == "operator":
        kind, index = _parse_op(args.op)
        spec = OperatorSpec(params, kind, index)
        M = operator_matrix(spec, family_lattice(params, xmax=_non_negative(args, "xmax")))
        if args.format == "json":
            _emit(args, json_text(matrix_json(M, as_float)))
        else:
            _emit(args, csv_text(*matrix_triplets(M, as_float)))
        return 0
    if args.what == "gram":
        mm = _non_negative(args, "m_max")
        if mm is None:
            mm = 1 if params.N is None else min(params.N, 3)
        if params.N is not None and mm > params.N:
            raise ValueError("need m_max <= N")
        w = weight_table(params, xmax=_non_negative(args, "xmax"))
        degrees = enumerate_degrees(params.n, mm)
        G = gram_matrix(eigenpoly_tables(degrees, params, w.lattice), w)
        if args.format == "json":
            _emit(args, json_text(gram_json(degrees, G, as_float)))
        else:
            _emit(args, csv_text(*gram_rows(degrees, G, as_float)))
        return 0
    raise ValueError(f"unknown export target {args.what!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvortho",
        description="Exact multivariate Hahn/Krawtchouk/Meixner systems: "
        "evaluate, verify, export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an eigenpolynomial")
    _family_args(p_eval)
    p_eval.add_argument("--m", required=True, help="degree multi-index, e.g. 0,1")
    p_eval.add_argument("--x", help="lattice point; omit for the full table")
    p_eval.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_eval.add_argument("--output", help="write to a file instead of stdout")
    p_eval.set_defaults(fn=cmd_eval)

    p_verify = sub.add_parser("verify", help="run identity checks")
    _family_args(p_verify)
    p_verify.add_argument("--check", choices=tuple(V.CHECKS), help="run a single check")
    p_verify.add_argument("--m-max", type=int, dest="m_max")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--timings", action="store_true",
                          help="include wall times in JSON output")
    p_verify.add_argument("--output", help="write to a file instead of stdout")
    p_verify.set_defaults(fn=cmd_verify)

    p_export = sub.add_parser("export", help="export tables and matrices")
    _family_args(p_export)
    p_export.add_argument("--what", required=True, choices=("weights", "operator", "gram"))
    p_export.add_argument("--op", default="total", help="total | single | exchangeK")
    p_export.add_argument("--m-max", type=int, dest="m_max")
    p_export.add_argument("--format", choices=("csv", "json"), default="csv")
    p_export.add_argument("--float", action="store_true",
                          help="emit floats instead of exact rationals")
    p_export.add_argument("--output", help="write to a file instead of stdout")
    p_export.set_defaults(fn=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
