"""Command-line surface: norming constants, approximation/exact tables,
rate studies, Mills-series comparisons, simulation export, and the
verification suite.

Exit codes: 0 success, 1 domain/computation error (one ``error:`` line on
stderr, also when the output cannot be written), 2 usage error. All
output is byte-stable for fixed flags: number formatting is deterministic,
tables are assembled in input order, and simulation is seeded.

Each verb computes all of its values first, so any error is raised before
the output file is opened or a byte is written. ``_table_blocks`` then
turns the columns of every verb but ``verify`` into text ``BLOCK_ROWS`` rows
at a time: the memory a verb needs is its columns plus one block of text.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
from typing import Iterable, Iterator, Sequence

from .convergence_lab import MAX_GRID_POINTS, Scaling, default_n_grid, error_curve, rate_fit
from .errors import InsufficientDataError, InternalError, PowexError
from .expansions import ApproxOrder, cdf_approx, pdf_approx
from .norming import norming_constants
from .special_functions import mills_series_bound, mills_series_survival, survival

# default significant digits: residual-like columns vs norming constants
PRECISION_RESIDUALS = 12
PRECISION_CONSTANTS = 5

# A double's exact decimal expansion has at most 767 significant digits and
# both formatting branches strip trailing zeros, so more digits print nothing
# new; the ceiling keeps a huge --precision from allocating gigabytes.
MAX_PRECISION = 800

# Rows formatted per block of output text; the text of one block is all
# that is held at a time beyond the values themselves.
BLOCK_ROWS = 4096


def format_number(value: float, precision: int) -> str:
    """Deterministic significant-digit formatting.

    Scientific notation exactly when |v| >= 1e6 or 0 < |v| < 1e-4, plain
    decimal otherwise; trailing zeros trimmed; integral values in the plain
    range print as integers. nan, inf and -inf print as ``str`` spells them.
    """
    v = float(value)
    if not math.isfinite(v):
        return str(v)
    if v == 0.0:
        return "0"
    av = abs(v)
    if av >= 1e6 or av < 1e-4:
        mantissa, exponent = f"{v:.{precision - 1}e}".split("e")
        if "." in mantissa:
            mantissa = mantissa.rstrip("0").rstrip(".")
        return f"{mantissa}e{exponent}"
    if v == int(v):
        return str(int(v))
    s = f"{v:.{precision}g}"
    if "e" in s:
        # %g switches to scientific once the exponent reaches the precision;
        # the contract keeps plain notation everywhere below 1e6. The rounded
        # value is then an integer of at most 7 digits, so exact as a float
        s = str(int(float(s)))
    return s


def _table_blocks(columns: Sequence[Sequence[float]], schema: Sequence[str],
                  format: str, precision: int) -> Iterator[str]:
    """The text of a table, ``BLOCK_ROWS`` rows at a time, from one list or
    float array per ``schema`` name. CSV: a header line, then one line per
    row, values via ``format_number``. JSON: ``json.dumps(records, indent=2)``
    and a newline, record i mapping each name to row i of its column, each
    value (a bool or int too) spelled by ``json.dumps``."""
    # checked before the generator starts, so that an error comes before
    # the first block is asked for
    schema = list(schema)
    count = len(columns[0]) if columns else 0
    if (len(columns) != len(schema) or len(set(schema)) != len(schema)
            or any(len(column) != count for column in columns)):
        raise InternalError(f"columns of lengths {[len(c) for c in columns]} "
                            f"do not match schema {schema}")
    if format == "csv":
        head, sep, tail = ",".join(schema) + "\n", "", ""
        row = ",".join(["%s"] * len(schema)) + "\n"
        spell = lambda values: [format_number(v, precision) for v in values]
    elif format == "json":
        head, sep, tail = ("[\n", ",\n", "\n]\n") if count else ("[]\n", "", "")
        row = "  {\n" + ",\n".join(f"    {json.dumps(name)}: %s" for name in schema) + "\n  }"
        spell = lambda values: json.dumps(values)[1:-1].split(", ")
    else:
        raise InternalError(f"unknown table format {format!r}")
    # A block is its rows, the template's pieces with the values between,
    # joined by sep. It is one join (a % per row is slower on simulate's one
    # column) of parts in row order: row r's value j, then the text up to the
    # next value, which after a row's last is the row's end, sep and start.
    pieces = row.split("%s")
    between = pieces[1:-1] + [pieces[-1] + sep + pieces[0]]

    def blocks() -> Iterator[str]:
        yield head
        for i in range(0, count, BLOCK_ROWS):
            rows, k = min(BLOCK_ROWS, count - i), len(columns)
            parts = [""] * (2 * k * rows)
            for j, column in enumerate(columns):
                chunk = column[i:i + rows]
                # an array slice becomes Python floats, without importing numpy here
                parts[2 * j::2 * k] = spell(chunk.tolist() if hasattr(chunk, "tolist") else chunk)
                parts[2 * j + 1::2 * k] = [between[j]] * rows
            parts[-1] = pieces[-1]  # the block's last row: no sep, no next row
            yield (sep if i else "") + pieces[0] + "".join(parts)
        yield tail

    return blocks()


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")


def _parse_precision(text: str) -> int:
    try:
        precision = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if precision < 1:
        raise argparse.ArgumentTypeError(f"precision must be >= 1, got {precision}")
    if precision > MAX_PRECISION:
        raise argparse.ArgumentTypeError(f"precision must be <= {MAX_PRECISION}, got {precision}")
    return precision


def parse_grid(text: str) -> list[float]:
    """A single value, or start:stop:step with inclusive endpoints
    (within half a step), of at most ``MAX_GRID_POINTS`` points."""
    parts = text.split(":")
    if len(parts) == 1:
        return [_parse_float(parts[0])]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"grid must be VALUE or START:STOP:STEP, got {text!r}"
        )
    start, stop, step = (_parse_float(p) for p in parts)
    if step <= 0:
        raise argparse.ArgumentTypeError(f"grid step must be > 0, got {step}")
    if stop < start:
        raise argparse.ArgumentTypeError(f"grid stop {stop} below start {start}")
    steps = (stop - start) / step + 0.5
    if not steps < MAX_GRID_POINTS:  # inf and nan too
        raise argparse.ArgumentTypeError(f"grid exceeds the {MAX_GRID_POINTS:.0e} point budget")
    return [start + i * step for i in range(int(steps) + 1)]


def parse_n_grid(text: str) -> list[float]:
    """Comma-separated sizes, or START:STOP:FACTOR geometric."""
    if "," in text:
        return [_parse_float(p) for p in text.split(",")]
    parts = text.split(":")
    if len(parts) == 1:
        return [_parse_float(parts[0])]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"n-grid must be comma list or START:STOP:FACTOR, got {text!r}"
        )
    start, stop, factor = (_parse_float(p) for p in parts)
    try:
        return default_n_grid(start, stop, factor)
    except PowexError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_orders(text: str) -> list[ApproxOrder]:
    orders = []
    for name in text.split(","):
        name = name.strip()
        try:
            order = ApproxOrder(name)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"unknown order {name!r}; choose from limit,second,third,exact"
            )
        if order in orders:
            raise argparse.ArgumentTypeError(f"repeated order {name!r}")
        orders.append(order)
    return orders


_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _merge_negative_args(argv: list[str]) -> list[str]:
    # argparse misreads "--x -1:4:0.25" as flag-plus-unknown-option; join
    # such pairs into --x=-1:4:0.25 before parsing
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok.startswith("--") and "=" not in tok and i + 1 < len(argv)
                and _NEGATIVE_VALUE.match(argv[i + 1])):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


def _add_output_flags(sub: argparse.ArgumentParser, precision: int) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="output format (default csv)")
    sub.add_argument("--precision", type=_parse_precision, default=precision,
                     help=f"significant digits for CSV values (default {precision})")
    sub.add_argument("--out", default="-",
                     help="output path, or - for standard output (default)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powex",
        description="Evaluate and verify higher-order Gumbel approximations "
                    "for powered maxima of standard normal samples.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("norming", help="norming constants b, c, d for (n, t)")
    p.set_defaults(run=_cmd_norming)
    p.add_argument("--n", type=_parse_float, required=True,
                   help="sample size (>= 2; scientific notation accepted)")
    p.add_argument("--t", type=_parse_float, default=1.0,
                   help="power index (> 0, default 1)")
    _add_output_flags(p, PRECISION_CONSTANTS)

    p = sub.add_parser("table", help="approximation/exact values on an x-grid")
    p.set_defaults(run=_cmd_table)
    p.add_argument("--n", type=_parse_float, required=True, help="sample size")
    p.add_argument("--t", type=_parse_float, required=True, help="power index")
    p.add_argument("--x", type=parse_grid, required=True,
                   help="x value or START:STOP:STEP (use --x=-1:4:0.25 or "
                        "--x -1:4:0.25 for negative starts)")
    p.add_argument("--orders", type=_parse_orders, default=None,
                   help="comma list from limit,second,third,exact "
                        "(default all four)")
    p.add_argument("--target", choices=("cdf", "pdf"), default="cdf",
                   help="distribution or density values (default cdf)")
    _add_output_flags(p, PRECISION_RESIDUALS)

    p = sub.add_parser("rates", help="residual decay across an n-grid with slope fit")
    p.set_defaults(run=_cmd_rates)
    p.add_argument("--t", type=_parse_float, required=True, help="power index")
    p.add_argument("--x", type=_parse_float, required=True, help="evaluation point")
    p.add_argument("--target", choices=("cdf", "pdf"), default="cdf")
    p.add_argument("--scaling", choices=tuple(s.value for s in Scaling),
                   default=Scaling.THIRD_ORDER_REMAINDER.value,
                   help="residual definition (default third_order_remainder)")
    p.add_argument("--order", choices=tuple(o.value for o in ApproxOrder),
                   default=ApproxOrder.THIRD.value,
                   help="approximation order for raw scaling (default third)")
    p.add_argument("--n-grid", type=parse_n_grid, default=None,
                   help="comma list or START:STOP:FACTOR geometric "
                        "(default 1e3:1e12:10)")
    _add_output_flags(p, PRECISION_RESIDUALS)

    p = sub.add_parser("mills", help="Mills-series tail values vs the survival function")
    p.set_defaults(run=_cmd_mills)
    p.add_argument("--x", type=parse_grid, default=[5.0, 10.0, 15.0, 20.0],
                   help="x value or START:STOP:STEP, all >= 2 (default 5:20:5)")
    p.add_argument("--order", type=int, default=3,
                   help="series truncation order L in [0, 12] (default 3)")
    _add_output_flags(p, PRECISION_RESIDUALS)

    p = sub.add_parser("simulate", help="export normalized powered block maxima")
    p.set_defaults(run=_cmd_simulate)
    p.add_argument("--n", type=_parse_float, required=True, help="block size (integer)")
    p.add_argument("--t", type=_parse_float, required=True, help="power index")
    p.add_argument("--reps", type=_parse_float, required=True, help="replicate count")
    p.add_argument("--seed", type=int, default=0,
                   help="64-bit unsigned generator key (default 0)")
    _add_output_flags(p, PRECISION_RESIDUALS)

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--out", default="-",
                   help="output path, or - for standard output (default)")

    return parser


def _cmd_norming(args: argparse.Namespace) -> Iterator[str]:
    nc = norming_constants(args.n, args.t)
    columns = [[nc.n], [nc.t], [nc.b], [nc.c], [nc.d]]
    return _table_blocks(columns, ["n", "t", "b", "c", "d"], args.format, args.precision)


def _cmd_table(args: argparse.Namespace) -> Iterator[str]:
    nc = norming_constants(args.n, args.t)
    orders = args.orders or list(ApproxOrder)
    approx = cdf_approx if args.target == "cdf" else pdf_approx
    # row by row, so that an error is the one at the first x that has one
    columns = [args.x] + [[] for _ in orders]
    for x in args.x:
        for column, order in zip(columns[1:], orders):
            column.append(approx(nc, x, order).value)
    schema = ["x"] + [o.value for o in orders]
    return _table_blocks(columns, schema, args.format, args.precision)


def _cmd_rates(args: argparse.Namespace) -> Iterator[str]:
    grid = args.n_grid if args.n_grid is not None else default_n_grid()
    curve = error_curve(args.t, args.x, grid, ApproxOrder(args.order),
                        target=args.target, scaling=Scaling(args.scaling))
    columns = [[r.n for r in curve.rows], [r.b for r in curve.rows],
               [r.residual for r in curve.rows]]
    blocks = _table_blocks(columns, ["n", "b", "residual"], args.format, args.precision)
    if args.format != "csv":
        return blocks
    try:
        fit = rate_fit(curve)
        slope, stderr = fit.slope, fit.stderr
    except InsufficientDataError:
        slope, stderr = math.nan, math.nan
    footer = (f"# slope={format_number(slope, PRECISION_CONSTANTS)},"
              f"stderr={format_number(stderr, PRECISION_CONSTANTS)}\n")
    return itertools.chain(blocks, [footer])


def _cmd_mills(args: argparse.Namespace) -> Iterator[str]:
    series = [mills_series_survival(x, args.order).value for x in args.x]
    exact = [survival(x).value for x in args.x]
    columns = [args.x, series, exact, [abs(s - e) for s, e in zip(series, exact)],
               [mills_series_bound(x, args.order) for x in args.x]]
    return _table_blocks(columns, ["x", "series", "survival", "abs_error", "bound"],
                         args.format, args.precision)


def _cmd_simulate(args: argparse.Namespace) -> Iterator[str]:
    from .montecarlo import simulate_block_maxima

    nc = norming_constants(args.n, args.t)
    values = simulate_block_maxima(nc, args.reps, args.seed).values
    return _table_blocks([values], ["value"], args.format, args.precision)


def _cmd_verify(args: argparse.Namespace) -> tuple[list[str], int]:
    from .acceptance import run_all

    results = run_all()
    lines = []
    for r in results:
        lines.append(f"{r.status} {r.check}: "
                     f"measured={format_number(r.measured, 6)} "
                     f"bound={format_number(r.bound, 6)}")
    summary = [r._asdict() for r in results]
    text = "\n".join(lines) + "\n" + json.dumps(summary, indent=2) + "\n"
    code = 0 if all(r.status == "PASS" for r in results) else 1
    return [text], code


def _write_output(blocks: Iterable[str], destination: str) -> None:
    if destination == "-":
        try:
            sys.stdout.writelines(blocks)
            sys.stdout.flush()
        except OSError as exc:
            # what stdout still buffers would fail again, with a traceback,
            # when the interpreter flushes it at exit
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise PowexError(f"cannot write standard output: {exc.strerror or exc}") from None
        return
    try:
        with open(destination, "w") as out:
            out.writelines(blocks)
    except OSError as exc:
        raise PowexError(f"cannot write {destination}: {exc.strerror or exc}") from None


def parse_and_dispatch(argv: Sequence[str]) -> int:
    """Parse argv, run the selected verb, and return the exit code."""
    argv = _merge_negative_args(list(argv))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return int(exc.code or 0)
    try:
        result = args.run(args)
        blocks, code = result if isinstance(result, tuple) else (result, 0)
        _write_output(blocks, args.out)
    except PowexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))
