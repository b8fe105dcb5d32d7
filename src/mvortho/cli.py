"""Command-line front end: eval | verify | export.

Rationals cross this boundary as exact strings ("p/q" or integers);
floats are opt-in via --float and only for export.  Exit codes: 0 all
good, 1 at least one check failed, 2 usage error.  Identical arguments
(and seed) produce byte-identical output; wall-clock timings are only
included when --timings is passed.

One process may serve many calls of :func:`main`, so it keeps what every
call would otherwise pay for again: the parser (:func:`build_parser`),
the latest parsed bundles (:func:`build_params`), the factor dict of
``eval``'s latest bundle, and a frozen start-up heap.  The first call of
:func:`main` in a process calls ``gc.freeze()``: the objects of the
interpreter, the imports, the parser and whatever the caller built before
leave the generations the collector scans, so a collection inside a call
no longer walks them (some 15k objects after the imports).  Objects
created afterwards are collected as before; the collector stays on with
its thresholds.  Only :func:`main` touches the collector: a library call
such as ``run_suite`` leaves it alone.

When a call names its subcommand first, that subcommand's parser reads
the rest of it.  Every other call, and every call from which that parser
leaves arguments over, is read by the full parser, so each help and
error text is the one the full parser prints.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys

from .core import enumerate_degrees, family_lattice
from .families import FAMILIES
from .measures import gram_matrix, weight_table
from .operators import OperatorSpec, operator_matrix
from .polynomials import eigenpoly, eigenpoly_tables
from .serialize import (
    gram_csv,
    gram_json,
    json_text,
    lattice_json,
    matrix_csv,
    matrix_json,
    parse_rational,
    rational_str,
    table_csv,
    value_strs,
    weight_table_csv,
    weight_table_json,
)
from . import verify as V

def _parse_int_list(text: str, flag: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated integers, got {text!r}") from None


def _non_negative(args, dest: str):
    """The integer option ``dest`` of ``args``, None when absent; a negative value is an error."""
    value = getattr(args, dest)
    if value is not None and value < 0:
        raise ValueError(f"--{dest.replace('_', '-')} must be >= 0, got {value}")
    return value


def _box(params, xmax):
    """The --xmax value, which the unbounded family's lattice needs."""
    if xmax is None and params.N is None:
        raise ValueError(f"{params.family} needs --xmax")
    return xmax


def build_params(args):
    """The family bundle: --a, then the family's own fields (--b, --N, --beta).
    The process keeps the latest ``BUNDLE_CACHE_SIZE`` bundles, keyed by the
    seven flags they are parsed from, so a later call on the same flags gets
    the same object (see :func:`_bundle`)."""
    return _bundle(args.family, args.a, args.n, args.b, args.N, args.beta, args.xmax)


BUNDLE_CACHE_SIZE = 8


@functools.lru_cache(maxsize=BUNDLE_CACHE_SIZE)
def _bundle(name: str, a_text: str, n, b, N, beta, xmax):
    """The bundle of :func:`build_params`, from the seven flags it reads; an
    error is raised again on every call, as lru_cache keeps no exception."""
    a = tuple(parse_rational(part, "--a") for part in a_text.split(","))
    if n is not None and len(a) != n:
        raise ValueError(f"--a has {len(a)} entries but --n is {n}")
    family = FAMILIES[name]
    names = family._fields[1:]
    flags = {"b": b, "N": N, "beta": beta, "xmax": xmax}
    # a bounded family takes --N; only the unbounded one takes the box --xmax
    takes = set(names) if "N" in names else {*names, "xmax"}
    foreign = [k for k, v in flags.items() if v is not None and k not in takes]
    if foreign:
        raise ValueError(f"{name} takes no --{foreign[0]}")
    values = [flags[k] for k in names]
    if None in values:
        raise ValueError(f"{name} needs " + " and ".join(f"--{k}" for k in names))
    return family(a, *(v if isinstance(v, int) else parse_rational(v, f"--{k}")
                       for k, v in zip(names, values)))


@functools.lru_cache(maxsize=1)
def _eval_factors(params) -> dict:
    """The factor dict of :func:`cmd_eval`'s tables, one per bundle."""
    return {}


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
    """One value (--x) or the table over the lattice, in the chosen format;
    the one value's JSON and CSV are the table's, restricted to its point.
    The tables of the process's latest bundle are built from one factor dict,
    so a later call reads the slot values and the nested tables P_hat that
    earlier calls built (see :func:`eigenpoly_tables`)."""
    params = build_params(args)
    m = _parse_int_list(args.m, "--m")
    xmax = _non_negative(args, "xmax")
    if args.x is None:
        lattice = family_lattice(params, xmax=_box(params, xmax))
        points = lattice.points
        table, = eigenpoly_tables([m], params, lattice, _eval_factors(params))
        values = value_strs(*table.integer_form())
    else:
        points = (params.lattice_point(_parse_int_list(args.x, "--x")),)
        values = [rational_str(eigenpoly(m, points[0], params))]
    fields = {"family": params.family, "m": list(m), "values": values}
    if args.format == "json":
        _emit(args, lattice_json(fields, lattice) if args.x is None
              else json_text({**fields, "points": [list(points[0])]}))
    elif args.format == "csv":
        _emit(args, table_csv(points, values, "value"))
    elif args.x is None:
        _emit(args, "".join(f"{p} {v}\n" for p, v in zip(points, values)))
    else:
        _emit(args, values[0] + "\n")
    return 0


def cmd_verify(args) -> int:
    params = build_params(args)
    names = V.SUITE if args.check is None else args.check
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
    if text.startswith("exchange") and text[len("exchange"):].isdecimal():
        return "exchange", int(text[len("exchange"):])
    raise ValueError(f"unknown operator {text!r} (total, single, exchangeK)")


def cmd_export(args) -> int:
    params = build_params(args)
    xmax = _box(params, _non_negative(args, "xmax"))
    if args.what == "weights":
        data, writers = (weight_table(params, xmax=xmax),), (weight_table_json, weight_table_csv)
    elif args.what == "operator":
        kind, index = _parse_op(args.op)
        M = operator_matrix(OperatorSpec(params, kind, index), family_lattice(params, xmax=xmax))
        data, writers = (M,), (matrix_json, matrix_csv)
    elif args.what == "gram":
        mm = _non_negative(args, "m_max")
        if mm is None:
            mm = 1 if params.N is None else min(params.N, 3)
        params.check_m_max(mm)
        w = weight_table(params, xmax=xmax)
        degrees = enumerate_degrees(params.n, mm)
        data = degrees, gram_matrix(eigenpoly_tables(degrees, params, w.lattice), w)
        writers = gram_json, gram_csv
    else:
        raise ValueError(f"unknown export target {args.what!r}")
    to_json, to_csv = writers
    _emit(args, (to_json if args.format == "json" else to_csv)(*data, args.float))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: argparse sizes its
    help formatter for every argument it adds, and parsing leaves the
    parser unchanged, so every call of :func:`main` reuses it.  Its
    ``subcommands`` maps each subcommand to the parser of its arguments."""
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
    p_verify.add_argument("--check", choices=tuple(V.CHECKS), action="append",
                          help="run this registry entry instead of the whole suite; repeat "
                          "the flag to run several, in the order given")
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
    parser.subcommands = sub.choices
    return parser


@functools.cache
def _freeze_start_up_heap() -> None:
    """``gc.freeze()``, on the first call of :func:`main` in a process only."""
    gc.freeze()


def _parse(argv: list):
    """The namespace of ``argv``, read by its subcommand's parser when that
    parser reads all of ``argv[1:]``, and by the full parser otherwise,
    which then prints the help or error text it always printed."""
    parser = build_parser()
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    _freeze_start_up_heap()
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
