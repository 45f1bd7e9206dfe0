"""Command-line surface: norming constants, approximation/exact tables,
rate studies, Mills-series comparisons, simulation export, and the
verification suite.

Exit codes: 0 success, 1 domain/computation error, 2 usage error. All
output is byte-stable for fixed flags: number formatting is deterministic,
tables are assembled in input order, and simulation is seeded.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from decimal import Decimal
from pathlib import Path
from typing import Sequence

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


def format_number(value: float, precision: int) -> str:
    """Deterministic significant-digit formatting.

    Scientific notation exactly when |v| >= 1e6 or 0 < |v| < 1e-4, plain
    decimal otherwise; trailing zeros trimmed; integral values in the plain
    range print as integers.
    """
    v = float(value)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
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
    if "e" in s or "E" in s:
        # %g switches to scientific once the exponent reaches the precision;
        # the contract keeps plain notation everywhere below 1e6
        s = format(Decimal(s), "f")
    return s


def emit_table(rows: Sequence[Sequence[float]], schema: Sequence[str],
               format: str = "csv", precision: int = PRECISION_RESIDUALS) -> str:
    """Serialize rows under a column schema.

    CSV: header line then one line per row, values via ``format_number``.
    JSON: an array of objects keyed by the schema names, full-precision
    floats. Row arity must match the schema.
    """
    schema = list(schema)
    for row in rows:
        if len(row) != len(schema):
            raise InternalError(
                f"row arity {len(row)} does not match schema {schema}"
            )
    if format == "json":
        return json.dumps([dict(zip(schema, row)) for row in rows], indent=2) + "\n"
    if format != "csv":
        raise InternalError(f"unknown table format {format!r}")
    lines = [",".join(schema)]
    for row in rows:
        lines.append(",".join(format_number(v, precision) for v in row))
    return "\n".join(lines) + "\n"


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
            orders.append(ApproxOrder(name))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"unknown order {name!r}; choose from limit,second,third,exact"
            )
    if not orders:
        raise argparse.ArgumentTypeError("at least one order required")
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
    p.add_argument("--n", type=_parse_float, required=True,
                   help="sample size (>= 2; scientific notation accepted)")
    p.add_argument("--t", type=_parse_float, default=1.0,
                   help="power index (> 0, default 1)")
    _add_output_flags(p, PRECISION_CONSTANTS)

    p = sub.add_parser("table", help="approximation/exact values on an x-grid")
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
    p.add_argument("--x", type=parse_grid, default=[5.0, 10.0, 15.0, 20.0],
                   help="x value or START:STOP:STEP, all >= 2 (default 5:20:5)")
    p.add_argument("--order", type=int, default=3,
                   help="series truncation order L in [0, 12] (default 3)")
    _add_output_flags(p, PRECISION_RESIDUALS)

    p = sub.add_parser("simulate", help="export normalized powered block maxima")
    p.add_argument("--n", type=_parse_float, required=True, help="block size (integer)")
    p.add_argument("--t", type=_parse_float, required=True, help="power index")
    p.add_argument("--reps", type=_parse_float, required=True, help="replicate count")
    p.add_argument("--seed", type=int, default=0,
                   help="64-bit unsigned generator key (default 0)")
    _add_output_flags(p, PRECISION_RESIDUALS)

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument("--out", default="-",
                   help="output path, or - for standard output (default)")

    return parser


def _cmd_norming(args: argparse.Namespace) -> str:
    nc = norming_constants(args.n, args.t)
    rows = [[nc.n, nc.t, nc.b, nc.c, nc.d]]
    return emit_table(rows, ["n", "t", "b", "c", "d"], args.format, args.precision)


def _cmd_table(args: argparse.Namespace) -> str:
    nc = norming_constants(args.n, args.t)
    orders = args.orders or list(ApproxOrder)
    approx = cdf_approx if args.target == "cdf" else pdf_approx
    rows = [[x] + [approx(nc, x, order).value for order in orders] for x in args.x]
    schema = ["x"] + [o.value for o in orders]
    return emit_table(rows, schema, args.format, args.precision)


def _cmd_rates(args: argparse.Namespace) -> str:
    grid = args.n_grid if args.n_grid is not None else default_n_grid()
    curve = error_curve(args.t, args.x, grid, ApproxOrder(args.order),
                        target=args.target, scaling=Scaling(args.scaling))
    rows = [[r.n, r.b, r.residual] for r in curve.rows]
    text = emit_table(rows, ["n", "b", "residual"], args.format, args.precision)
    if args.format == "csv":
        try:
            fit = rate_fit(curve)
            slope, stderr = fit.slope, fit.stderr
        except InsufficientDataError:
            slope, stderr = math.nan, math.nan
        text += (f"# slope={format_number(slope, PRECISION_CONSTANTS)},"
                 f"stderr={format_number(stderr, PRECISION_CONSTANTS)}\n")
    return text


def _cmd_mills(args: argparse.Namespace) -> str:
    rows = []
    for x in args.x:
        series = mills_series_survival(x, args.order)
        exact = survival(x)
        rows.append([x, series.value, exact.value, abs(series.value - exact.value),
                     mills_series_bound(x, args.order)])
    return emit_table(rows, ["x", "series", "survival", "abs_error", "bound"],
                      args.format, args.precision)


def _cmd_simulate(args: argparse.Namespace) -> str:
    from .montecarlo import simulate_block_maxima

    reps = args.reps
    if not math.isfinite(reps) or reps != int(reps):
        raise PowexError(f"reps must be an integer, got {reps!r}")
    nc = norming_constants(args.n, args.t)
    sample = simulate_block_maxima(nc, int(reps), args.seed)
    if args.format == "json":
        return json.dumps([{"value": float(v)} for v in sample.values],
                          indent=2) + "\n"
    lines = ["value"]
    lines.extend(format_number(v, args.precision) for v in sample.values)
    return "\n".join(lines) + "\n"


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
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
    return text, code


def _write_output(text: str, destination: str) -> None:
    if destination == "-":
        sys.stdout.write(text)
        return
    try:
        Path(destination).write_text(text)
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
    handlers = {
        "norming": _cmd_norming,
        "table": _cmd_table,
        "rates": _cmd_rates,
        "mills": _cmd_mills,
        "simulate": _cmd_simulate,
        "verify": _cmd_verify,
    }
    try:
        result = handlers[args.verb](args)
        text, code = result if isinstance(result, tuple) else (result, 0)
        _write_output(text, args.out)
    except PowexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))
