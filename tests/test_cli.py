"""Command-line surface: formatting contract, grid parsing, verb wiring,
exit codes, and byte-stable output."""
from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

import oracles
from powex import (
    acceptance,
    cli,
    convergence_lab,
    montecarlo,
    norming_constants,
    simulate_block_maxima,
    transformed_quantile,
)
from powex.cli import (
    _merge_negative_args,
    _table_blocks,
    format_number,
    parse_and_dispatch,
    parse_grid,
    parse_n_grid,
)
from powex.errors import InternalError

import argparse


def run_cli(argv):
    code, out, err = acceptance._run_in_process(argv)
    return code, out.decode(), err.decode()


# row counts on either side of the output block edges
B = cli.BLOCK_ROWS
BLOCK_EDGES = [B - 1, B, B + 1, 2 * B + 1]


def table_text(columns, schema, format="csv", precision=12):
    return "".join(_table_blocks(columns, schema, format, precision))


class TestFormatNumber:
    @pytest.mark.parametrize("value,precision,want", [
        (0.5, 12, "0.5"),
        (3.1152837746448987, 5, "3.1153"),
        (1.7939205107404277, 5, "1.7939"),
        (9.498913507306197, 5, "9.4989"),
        (0.0, 5, "0"),
        (-42.0, 5, "-42"),
        (1000.0, 5, "1000"),
        (1e6, 5, "1e+06"),
        (-2.5e7, 4, "-2.5e+07"),
        (123456.789, 5, "123460"),  # plain notation below 1e6, no %g sci
        (0.0001, 6, "0.0001"),
        (9.9e-5, 6, "9.9e-05"),
        (434.3381302742807, 12, "434.338130274"),
        (float("nan"), 5, "nan"),
        (float("inf"), 5, "inf"),
        (float("-inf"), 5, "-inf"),
    ])
    def test_contract(self, value, precision, want):
        assert format_number(value, precision) == want

    def test_boundaries(self):
        assert format_number(999999.4, 8) == "999999.4"
        assert format_number(1e-4, 8) == "0.0001"
        assert format_number(9.999e-5, 3) == "1e-04"

    def test_plain_range_matches_a_decimal_reference(self):
        # Where %g goes scientific below 1e6, the plain spelling is the
        # rounded value written out in full; Decimal spells it exactly
        def reference(v, p):
            return format(Decimal(f"{v:.{p}g}"), "f")

        rng = random.Random(23)
        values = [999999.5, 999999.95, 99999.95, 9999.5]
        for decade in range(-4, 6):
            values += [rng.uniform(1, 10) * 10.0 ** decade for _ in range(40)]
        values = [v for v in values if v != int(v)]  # integral values print as integers
        for v in values + [-v for v in values]:
            for p in range(1, 8):
                assert format_number(v, p) == reference(v, p), (v, p)

    @pytest.mark.parametrize("value,want", [
        (math.nan, ["nan"] * 3), (math.inf, ["inf"] * 3), (-math.inf, ["-inf"] * 3),
        (0.0, ["0"] * 3), (-0.0, ["0"] * 3),
        (5e-324, ["5e-324", "4.94065645841e-324", "4.9406564584124654e-324"]),
        (-1e-320, ["-1e-320", "-9.99988867183e-321", "-9.9998886718268301e-321"]),
    ])
    def test_special_values(self, value, want):
        assert [format_number(value, p) for p in (1, 12, 17)] == want


class TestGridParsing:
    def test_single_value(self):
        assert parse_grid("0.5") == [0.5]

    def test_range(self):
        assert parse_grid("0:2:0.5") == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_negative_start(self):
        grid = parse_grid("-1:4:0.25")
        assert len(grid) == 21
        assert grid[0] == -1.0 and grid[-1] == 4.0

    def test_errors(self):
        for bad in ("1:2", "a", "0:2:0", "0:2:-1", "3:1:0.5", "1:2:3:4"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_grid(bad)

    def test_n_grid_forms(self):
        assert parse_n_grid("1e3,1e6") == [1000.0, 1e6]
        assert parse_n_grid("500") == [500.0]
        assert len(parse_n_grid("1e3:1e12:10")) == 10
        with pytest.raises(argparse.ArgumentTypeError):
            parse_n_grid("1e6:1e3:10")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_n_grid("1e3:1e6:1")

    @pytest.fixture
    def no_build(self, monkeypatch):
        # a refused grid must not start building: range() is never reached
        def refuse(*args):
            raise AssertionError("grid built before the budget check")

        for module in (cli, convergence_lab):
            monkeypatch.setattr(module, "range", refuse, raising=False)

    def test_budget_refused_before_building(self, no_build):
        for bad in ("0:1e6:1e-9", "0:inf:1", "-inf:0:1"):
            with pytest.raises(argparse.ArgumentTypeError, match="point budget"):
                parse_grid(bad)
        for bad in ("1e3:1e300:1.0000001", "1e-300:1e300:10"):
            with pytest.raises(argparse.ArgumentTypeError, match="point budget"):
                parse_n_grid(bad)

    def test_budget_boundary(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 5)
        assert parse_grid("0:4:1") == [0.0, 1.0, 2.0, 3.0, 4.0]
        with pytest.raises(argparse.ArgumentTypeError, match="point budget"):
            parse_grid("0:5:1")
        monkeypatch.setattr(convergence_lab, "MAX_GRID_POINTS", 3)
        assert parse_n_grid("1e3:1e5:10") == [1e3, 1e4, 1e5]
        with pytest.raises(argparse.ArgumentTypeError, match="point budget"):
            parse_n_grid("1e3:1e6:10")

    @pytest.mark.parametrize("argv", [
        ["table", "--n", "10", "--t", "1", "--x=0:1e6:1e-9"],
        ["rates", "--t", "1", "--x", "0", "--n-grid", "1e3:1e300:1.0000001"],
    ])
    def test_budget_is_a_usage_error(self, no_build, argv):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        assert "point budget" in err.strip().split("\n")[-1]

    def test_merge_negative_args(self):
        assert _merge_negative_args(["--x", "-1:4:0.25"]) == ["--x=-1:4:0.25"]
        assert _merge_negative_args(["--x", "-1"]) == ["--x=-1"]
        assert _merge_negative_args(["--x=-1", "--t", "2"]) == ["--x=-1", "--t", "2"]
        assert _merge_negative_args(["--seed", "42"]) == ["--seed", "42"]
        assert _merge_negative_args(["--flag"]) == ["--flag"]


class TestTableBlocks:
    def test_csv(self):
        assert table_text([[0.0], [0.5]], ["x", "p"]) == "x,p\n0,0.5\n"

    def test_empty_table(self):
        assert table_text([[], []], ["x", "p"]) == "x,p\n"
        assert table_text([[], []], ["x", "p"], "json") == "[]\n"

    @pytest.mark.parametrize("count", [1] + BLOCK_EDGES)
    def test_blocks_join_to_the_whole_text(self, count):
        xs = [i / 7 for i in range(count)]
        ps = [math.exp(-i / 100) for i in range(count)]
        assert table_text([xs, ps], ["x", "p"]) == "x,p\n" + "".join(
            f"{format_number(x, 12)},{format_number(p, 12)}\n" for x, p in zip(xs, ps))
        assert table_text([xs, ps], ["x", "p"], "json") == json.dumps(
            [{"x": x, "p": p} for x, p in zip(xs, ps)], indent=2) + "\n"

    @pytest.mark.parametrize("format", ["csv", "json"])
    @pytest.mark.parametrize("count", BLOCK_EDGES)
    def test_array_column_is_its_list(self, format, count):
        # an array, its tolist() and a list of its numpy scalars print alike
        values = np.linspace(-3.0, 5.0, count) ** 3
        want = table_text([values.tolist(), values.tolist()], ["a", "b"], format)
        assert table_text([values, list(values)], ["a", "b"], format) == want
        assert table_text([values], ["a"], format) == table_text([values.tolist()], ["a"], format)

    @pytest.mark.parametrize("column", [list, np.array])
    def test_non_finite_values(self, column):
        values = [math.nan, math.inf, -math.inf, 0.5, -0.0, 1e300, 5e-324]
        assert table_text([column(values)], ["v"], "json") == json.dumps(
            [{"v": v} for v in values], indent=2) + "\n"
        assert table_text([column(values)], ["v"]) == (
            "v\nnan\ninf\n-inf\n0.5\n0\n1e+300\n4.94065645841e-324\n")

    @pytest.mark.parametrize("count", [1] + BLOCK_EDGES)
    def test_bool_and_int_columns(self, count):
        # a flag or count column beside a float one, in json.dumps's spelling
        flags = [i % 3 == 0 for i in range(count)]
        counts = [i * 7 for i in range(count)]
        xs = [i / 3 for i in range(count)]
        assert table_text([xs, flags, counts], ["x", "f", "c"], "json") == json.dumps(
            [{"x": x, "f": f, "c": c} for x, f, c in zip(xs, flags, counts)], indent=2) + "\n"

    def test_json_full_precision(self):
        text = table_text([[0.1], [0.39881305239127035]], ["x", "v"], "json")
        data = json.loads(text)
        assert data == [{"x": 0.1, "v": 0.39881305239127035}]

    @pytest.mark.parametrize("columns,schema", [
        ([[1.0], [1.0, 2.0]], ["x", "p"]),  # unequal column lengths
        ([[1.0]], ["x", "p"]),  # a name without a column
        ([[1.0], [2.0]], ["x"]),  # a column without a name
        ([[1.0], [2.0]], ["x", "x"]),  # JSON would lose one of them
    ])
    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_mismatched_schema(self, columns, schema, format):
        # raised by the call itself, before the first block is asked for
        with pytest.raises(InternalError, match="do not match schema"):
            _table_blocks(columns, schema, format, 12)

    def test_unknown_format(self):
        with pytest.raises(InternalError, match="unknown table format 'xml'"):
            _table_blocks([[1.0]], ["x"], "xml", 12)


class TestNormingVerb:
    def test_frozen_bytes(self):
        code, out, err = run_cli(["norming", "--n", "1000", "--t", "2"])
        assert (code, err) == (0, "")
        assert out == "n,t,b,c,d\n1000,2,3.1153,1.7939,9.4989\n"

    def test_scientific_n(self):
        code, out, _ = run_cli(["norming", "--n", "1e6", "--t", "0.5"])
        assert code == 0
        assert out == "n,t,b,c,d\n1e+06,0.5,4.7615,0.048123,2.1821\n"

    def test_json(self):
        code, out, _ = run_cli(["norming", "--n", "1000", "--t", "1", "--format", "json"])
        assert code == 0
        row = json.loads(out)[0]
        assert row["b"] == pytest.approx(3.1152837746448987, rel=1e-15)
        assert row["n"] == 1000.0

    def test_default_power_and_small_n(self):
        code, out, err = run_cli(["norming", "--n", "1"])
        assert code == 1
        assert out == ""
        assert "n >= 2" in err

    def test_domain_error_exit_code(self):
        code, _, err = run_cli(["norming", "--n", "1000", "--t", "-1"])
        assert code == 1
        assert err.startswith("error:")

    def test_t2_small_n(self):
        code, _, err = run_cli(["norming", "--n", "4", "--t", "2"])
        assert code == 1
        assert "b^2 > 1" in err

    @pytest.mark.parametrize("argv", [
        ["norming", "--n", "2", "--t", "3000"],  # printed c = d = 0
        ["table", "--n", "2", "--t", "3000", "--x", "0", "--orders", "exact"],  # traceback
    ])
    def test_underflowing_constants(self, argv):
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err == "error: norming constants underflow at n=2.0, t=3000.0\n"


class TestUsageErrors:
    def test_unknown_verb(self):
        assert run_cli(["frobnicate"])[0] == 2

    def test_missing_required(self):
        assert run_cli(["table", "--n", "1000"])[0] == 2

    def test_no_verb(self):
        assert run_cli([])[0] == 2

    def test_help_exits_zero(self):
        assert run_cli(["--help"])[0] == 0

    @pytest.mark.parametrize("argv", [
        ["norming", "--n", "1e6", "--precision", "0"],
        ["table", "--n", "1e6", "--t", "1", "--x", "1", "--precision", "-1"],
    ])
    def test_precision_below_one(self, argv):
        # the scientific branch formats with precision - 1 digits
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage:") and "Traceback" not in err
        assert err.strip().split("\n")[-1].endswith("precision must be >= 1, got " + argv[-1])

    @pytest.mark.parametrize("argv,what", [
        (["table", "--n", "1e6", "--t", "1", "--x", "0", "--orders", "foo"], "unknown order 'foo'"),
        # JSON printed one "limit" key, CSV two columns
        (["table", "--n", "1000", "--t", "1", "--x", "0", "--orders", "limit,limit",
          "--format", "json"], "repeated order 'limit'"),
        (["norming", "--n", "1e6", "--precision", "abc"], "invalid int value: 'abc'"),
        (["table", "--n", "1e6", "--t", "1", "--x", "1:2"], "grid must be VALUE or START:STOP:STEP"),
        (["rates", "--t", "1", "--x", "0", "--n-grid", "1e3:1e6"],
         "n-grid must be comma list or START:STOP:FACTOR"),
        # the point count is nan: these were refused as over the point budget
        (["table", "--n", "1e6", "--t", "1", "--x=nan:1:1"], "grid 'nan:1:1' has no defined"),
        (["table", "--n", "1e6", "--t", "1", "--x=0:nan:1"], "grid '0:nan:1' has no defined"),
        (["mills", "--x=0:1:nan"], "grid '0:1:nan' has no defined"),
        (["table", "--n", "1e6", "--t", "1", "--x=inf:inf:1"], "grid 'inf:inf:1' has no defined"),
    ])
    def test_bad_argument(self, argv, what):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage:") and "Traceback" not in err
        assert what in err.strip().split("\n")[-1]

    def test_precision_one(self):
        code, out, err = run_cli(["norming", "--n", "1e6", "--t", "1", "--precision", "1"])
        assert (code, err) == (0, "")
        assert out == "n,t,b,c,d\n1e+06,1,5,0.2,5\n"

    @pytest.mark.parametrize("argv", [
        ["norming", "--n", "1e6", "--t", "0.5"],
        ["mills", "--x", "5:20:5"],
    ])
    def test_precision_ceiling(self, argv):
        # a double has at most 767 significant decimal digits, so the
        # ceiling prints every digit there is in both notations
        code, out, err = run_cli(argv + ["--precision", "800"])
        assert (code, err) == (0, "")
        assert (code, out, err) == run_cli(argv + ["--precision", "767"])
        code, out, err = run_cli(argv + ["--precision", "801"])
        assert (code, out) == (2, "")
        assert err.startswith("usage:") and "Traceback" not in err
        assert err.strip().split("\n")[-1].endswith("precision must be <= 800, got 801")


class TestTableVerb:
    def test_default_orders(self):
        code, out, _ = run_cli(["table", "--n", "1e6", "--t", "1", "--x", "-1:4:0.25"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,limit,second,third,exact"
        assert len(lines) == 22

    def test_flag_equals_form_identical(self):
        a = run_cli(["table", "--n", "1e6", "--t", "1", "--x", "-1:4:0.25"])
        b = run_cli(["table", "--n", "1e6", "--t", "1", "--x=-1:4:0.25"])
        assert a == b

    def test_order_subset_and_pdf(self):
        code, out, _ = run_cli(["table", "--n", "1000", "--t", "2", "--x", "0:2:0.5",
                                "--orders", "limit,exact", "--target", "pdf"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,limit,exact"
        assert len(lines) == 6

    def test_row_values_are_the_library_values(self):
        from powex import ApproxOrder, cdf_approx, norming_constants
        code, out, _ = run_cli(["table", "--n", "1000", "--t", "1", "--x", "0",
                                "--orders", "third", "--format", "json"])
        assert code == 0
        row = json.loads(out)[0]
        nc = norming_constants(1000.0, 1.0)
        assert row["third"] == cdf_approx(nc, 0.0, ApproxOrder.THIRD).value

    def test_next_to_the_support_boundary(self):
        # once a bare math domain error with a traceback; 2.35e-26 is the
        # oracle's value at the same g
        x = -4.09926514892
        code, out, err = run_cli(["table", "--n", "10", "--t", "0.5", f"--x={x}",
                                  "--orders", "exact"])
        assert (code, err) == (0, "")
        assert out == "x,exact\n-4.09926514892,2.35133708923e-26\n"
        g = transformed_quantile(norming_constants(10.0, 0.5), x).g
        want = float(oracles.hp_exact_cdf_at_g(10.0, g))
        assert abs(float(out.split(",")[-1]) - want) < 5e-12 * want

    def test_json_is_the_text_of_json_dumps(self):
        # 1e4 rows: two full blocks and a part one, written column by column
        grid = "-1:8.999:0.001"
        code, out, err = run_cli(["table", "--n", "1e6", "--t", "1", f"--x={grid}",
                                  "--format", "json"])
        assert (code, err) == (0, "")
        from powex import ApproxOrder, cdf_approx
        nc = norming_constants(1e6, 1.0)
        records = [{"x": x, **{o.value: cdf_approx(nc, x, o).value for o in ApproxOrder}}
                   for x in parse_grid(grid)]
        assert len(records) == 10_000
        assert out == json.dumps(records, indent=2) + "\n"

    def test_out_of_support_x(self):
        code, _, err = run_cli(["table", "--n", "1000", "--t", "2", "--x=-20"])
        assert code == 1
        assert "x_min" in err


class TestOverflowRefused:
    # each ended in a bare OverflowError traceback
    @pytest.mark.parametrize("argv,what", [
        (["table", "--n", "10", "--t", "0.5", "--x", "1e300", "--orders", "exact"],
         "(c*x + d)^(1/t) overflows"),
        (["table", "--n", "1e6", "--t", "1", "--x", "1e300", "--orders", "second"],
         "expansion coefficients overflow"),
        (["rates", "--t", "1", "--x", "1e200"], "expansion coefficients overflow"),
        (["table", "--n", "1e6", "--t", "0.01", "--x=-1000", "--orders", "second"],
         "expansion coefficients overflow"),
        (["norming", "--n", "1e6", "--t", "1000"], "norming constants overflow"),
        # (t-2)^2/8 * x^4 reaches inf while x**4 stays finite: printed nan
        (["table", "--n", "1e6", "--t", "8", "--x", "8e76", "--orders", "second,third"],
         "expansion coefficients overflow"),
        # Lambda'(x) underflows to 0 and the scaled error divided by it
        (["rates", "--t", "1", "--x", "800", "--n-grid", "1e3:1e5:10"],
         "Gumbel density underflows"),
        (["rates", "--t", "1", "--x=-7", "--n-grid", "1e3:1e5:10"],
         "Gumbel density underflows"),
        (["rates", "--t", "1", "--x", "800", "--n-grid", "1e3:1e5:10", "--target", "pdf"],
         "Gumbel density underflows"),
        # |M_n|^t overflows for some replicates: printed inf (Infinity in JSON)
        (["simulate", "--n", "100", "--t", "700", "--reps", "2000", "--seed", "1"],
         "overflows"),
        (["simulate", "--n", "100", "--t", "700", "--reps", "2000", "--seed", "1",
          "--format", "json"], "overflows"),
    ])
    def test_domain_error(self, argv, what):
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and what in err

    def test_simulate_overflow_is_one_error_line(self):
        code, out, err = run_cli(["simulate", "--n", "100", "--t", "700",
                                  "--reps", "2000", "--seed", "1"])
        assert (code, out) == (1, "")
        assert err == "error: simulated (|M_n|^t - d)/c overflows at n=100, t=700.0\n"

    def test_simulate_underflow_is_one_error_line(self):
        # printed x_min = -d/c for the two replicates whose |M_n|^t underflowed
        code, out, err = run_cli(["simulate", "--n", "2", "--t", "1587",
                                  "--reps", "3", "--seed", "0"])
        assert (code, out) == (1, "")
        assert err == "error: simulated |M_n|^t underflows at n=2, t=1587.0\n"


class TestRatesVerb:
    def test_csv_with_slope_comment(self):
        code, out, _ = run_cli(["rates", "--t", "1", "--x", "0",
                                "--n-grid", "1e3:1e10:10"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,b,residual"
        assert lines[-1].startswith("# slope=")
        assert len(lines) == 10  # header + 8 rows + comment

    def test_json_has_no_comment(self):
        code, out, _ = run_cli(["rates", "--t", "1", "--x", "0",
                                "--n-grid", "1e3,1e4,1e5", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert len(data) == 3
        assert set(data[0]) == {"n", "b", "residual"}

    def test_degenerate_fit_prints_nan(self):
        # raw residual of the exact order is identically 0: every row sits
        # on the noise floor and the fit degrades to nan
        code, out, _ = run_cli(["rates", "--t", "1", "--x", "0", "--order", "exact",
                                "--scaling", "raw", "--n-grid", "1e3,1e4,1e5"])
        assert code == 0
        assert out.strip().split("\n")[-1] == "# slope=nan,stderr=nan"

    def test_one_b_grid_prints_nan(self):
        # three n one ulp apart share one b, so the fit has no spread in ln b
        code, out, _ = run_cli(["rates", "--t", "1", "--x", "0", "--n-grid",
                                "1e300,1.0000000000000002e300,1.0000000000000004e300"])
        assert code == 0
        assert out.strip().split("\n")[-1] == "# slope=nan,stderr=nan"

    def test_hall_scaled_rows(self):
        grid = [1e3, 1e6, 1e9]
        code, out, _ = run_cli(["rates", "--t", "1", "--x", "0.5", "--scaling", "hall_scaled",
                                "--n-grid", "1e3,1e6,1e9", "--format", "json"])
        assert code == 0
        gaps = [r.gap for r in convergence_lab.hall_limit_check(1.0, 0.5, grid).rows]
        assert [row["residual"] for row in json.loads(out)] == gaps

    def test_raw_pdf_rows(self):
        code, out, _ = run_cli(["rates", "--t", "1", "--x", "0.5", "--target", "pdf",
                                "--scaling", "raw", "--n-grid", "1e3,1e6,1e9",
                                "--format", "json"])
        assert code == 0
        curve = convergence_lab.error_curve(1.0, 0.5, [1e3, 1e6, 1e9], "third",
                                            target="pdf", scaling="raw")
        assert [row["residual"] for row in json.loads(out)] == [r.residual for r in curve.rows]

    def test_bad_grid(self):
        code, _, _ = run_cli(["rates", "--t", "1", "--x", "0", "--n-grid", "10,20"])
        assert code == 1  # grid points below 100

    def test_non_finite_x(self):
        assert run_cli(["rates", "--t", "1", "--x", "nan"]) == (
            1, "", "error: x must be finite, got nan\n")


class TestMillsVerb:
    def test_frozen_default_table(self):
        code, out, _ = run_cli(["mills", "--order", "3"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,series,survival,abs_error,bound"
        assert lines[1] == "5,2.86591947416e-07,2.86651571879e-07," \
                           "5.96244628922e-11,1.59852082224e-10"
        assert len(lines) == 5

    def test_error_within_bound_column(self):
        code, out, _ = run_cli(["mills", "--x", "5:20:5", "--order", "2",
                                "--format", "json"])
        assert code == 0
        for row in json.loads(out):
            assert row["abs_error"] <= row["bound"]

    def test_domain_error(self):
        code, _, err = run_cli(["mills", "--x", "1"])
        assert code == 1
        assert "x >= 2" in err


class TestSimulateVerb:
    def test_frozen_bytes(self):
        code, out, _ = run_cli(["simulate", "--n", "100", "--t", "2",
                                "--reps", "5", "--seed", "42"])
        assert code == 0
        assert out == ("value\n-0.236757184145\n-0.509882380189\n"
                       "-0.516478091572\n1.66839685047\n1.6539247701\n")

    def test_json(self):
        code, out, _ = run_cli(["simulate", "--n", "100", "--t", "2",
                                "--reps", "3", "--seed", "42", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert [d["value"] for d in data] == pytest.approx(
            [-0.23675718414510918, -0.5098823801890175, -0.51647809157174], rel=1e-15)

    def test_json_is_the_text_of_json_dumps(self):
        # the JSON is written directly, value by value; it must be the
        # text json.dumps gives for the same records
        code, out, _ = run_cli(["simulate", "--n", "10", "--t", "0.5",
                                "--reps", "2000", "--seed", "3", "--format", "json"])
        assert code == 0
        sample = simulate_block_maxima(norming_constants(10.0, 0.5), 2000, 3)
        want = json.dumps([{"value": v} for v in sample.values.tolist()], indent=2)
        assert out == want + "\n"

    @pytest.mark.parametrize("reps", [1] + BLOCK_EDGES)
    def test_block_boundaries(self, reps):
        values = simulate_block_maxima(norming_constants(10.0, 1.0), reps, 7).values.tolist()
        argv = ["simulate", "--n", "10", "--t", "1", "--reps", str(reps), "--seed", "7"]
        assert run_cli(argv) == (
            0, "value\n" + "".join(format_number(v, 12) + "\n" for v in values), "")
        assert run_cli(argv + ["--format", "json"]) == (
            0, json.dumps([{"value": v} for v in values], indent=2) + "\n", "")

    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_output_memory_is_one_block(self, tmp_path, monkeypatch, format):
        # The sample of 5e4 replicates is 0.4 MB and the sampler's two
        # workers hold about 1.2 MB of words each: the traced peak measured
        # 1.8-2.9 MB in both formats (5.6 MB as CSV and 7.4 MB as JSON when
        # the whole text was built before writing). --out, because a
        # StringIO stdout would hold the whole text.
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        target = tmp_path / "sample.txt"
        argv = ["simulate", "--n", "10", "--t", "1", "--format", format, "--out", str(target)]
        assert parse_and_dispatch(argv + ["--reps", "10"]) == 0  # imports outside the trace
        tracemalloc.start()
        try:
            code = parse_and_dispatch(argv + ["--reps", "5e4"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and target.stat().st_size > 750_000
        assert peak < 8 * 50_000 + 4_000_000

    def test_non_integer_reps(self):
        code, _, err = run_cli(["simulate", "--n", "100", "--t", "1", "--reps", "2.5"])
        assert code == 1
        assert "integer" in err

    @pytest.mark.parametrize("reps", ["inf", "nan"])
    def test_non_finite_reps(self, reps):
        # int(reps) raised OverflowError / ValueError
        code, out, err = run_cli(["simulate", "--n", "100", "--t", "2", "--reps", reps])
        assert (code, out) == (1, "")
        assert err == f"error: reps must be an integer, got {reps}\n"

    def test_budget_refused(self, monkeypatch):
        code, _, err = run_cli(["simulate", "--n", "1e5", "--t", "1",
                                "--reps", "1e6", "--seed", "0"])
        assert code == 1
        assert "budget" in err
        # inside the draw budget, but a 40 GB output: refused before allocation
        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated before the budget check")

        monkeypatch.setattr(np, "empty", no_alloc)
        code, out, err = run_cli(["simulate", "--n", "2", "--t", "1",
                                  "--reps", "5e9", "--seed", "0"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "replicate budget" in err


class TestVerifyVerb:
    def test_a_failed_check_fails_the_verb(self, monkeypatch):
        # run in process with a stand-in battery: the FAIL line, the JSON
        # summary and exit code 1
        results = [
            acceptance.CheckResult("good", "PASS", 0.25, 1.0, "fine", 0.5),
            acceptance.CheckResult("bad", "FAIL", 3.0, 2.0, "too big", 0.125),
        ]
        monkeypatch.setattr(acceptance, "run_all", lambda: results)
        code, out, err = run_cli(["verify"])
        assert (code, err) == (1, "")
        lines = out.split("\n")
        assert lines[:2] == ["PASS good: measured=0.25 bound=1", "FAIL bad: measured=3 bound=2"]
        assert json.loads("\n".join(lines[2:])) == [
            {"check": "good", "status": "PASS", "measured": 0.25, "bound": 1.0,
             "detail": "fine", "elapsed_s": 0.5},
            {"check": "bad", "status": "FAIL", "measured": 3.0, "bound": 2.0,
             "detail": "too big", "elapsed_s": 0.125},
        ]
        monkeypatch.setattr(acceptance, "run_all", lambda: results[:1])
        assert run_cli(["verify"])[0] == 0


class TestOutputFile:
    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "norming.csv"
        code, out, _ = run_cli(["norming", "--n", "1000", "--t", "2",
                                "--out", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text() == "n,t,b,c,d\n1000,2,3.1153,1.7939,9.4989\n"

    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_out_file_is_the_stdout_text(self, tmp_path, format):
        argv = ["simulate", "--n", "10", "--t", "1", "--reps", str(2 * B + 1),
                "--seed", "3", "--format", format]
        target = tmp_path / "sample.txt"
        assert run_cli(argv + ["--out", str(target)]) == (0, "", "")
        assert target.read_text() == run_cli(argv)[1]

    @pytest.mark.parametrize("argv,what", [
        (["table", "--n", "10", "--t", "1", "--x=-30:2:0.5", "--orders", "exact"], "x_min"),
        (["simulate", "--n", "100", "--t", "700", "--reps", "2000", "--seed", "1",
          "--format", "json"], "overflows"),
        (["rates", "--t", "1", "--x", "800", "--n-grid", "1e3:1e5:10"],
         "Gumbel density underflows"),
    ])
    def test_failing_verb_writes_nothing(self, tmp_path, argv, what):
        # every check runs before the first write, and before --out is opened
        target = tmp_path / "out.txt"
        for extra in ([], ["--out", str(target)]):
            code, out, err = run_cli(argv + extra)
            assert (code, out) == (1, "")
            assert err.startswith("error:") and err.count("\n") == 1 and what in err
        assert not target.exists()

    @staticmethod
    def child_env(unbuffered):
        env = acceptance._child_env()
        env.pop("PYTHONUNBUFFERED", None)
        return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout(self, unbuffered):
        # the reader goes away after the first of about 3 MB of lines: one
        # error line and exit 1, with no traceback and no "Exception
        # ignored" note from the interpreter's last flush
        proc = subprocess.Popen(
            [sys.executable, "-m", "powex", "simulate", "--n", "10", "--t", "1", "--reps", "2e5"],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=self.child_env(unbuffered))
        try:
            assert proc.stdout.readline() == b"value\n"
            proc.stdout.close()
            code = proc.wait(timeout=120)
            err = proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()
        assert (code, err) == (1, b"error: cannot write standard output: Broken pipe\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_full_stdout(self, unbuffered):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "powex", "norming", "--n", "1000"],
                                  stdin=subprocess.DEVNULL, stdout=full, stderr=subprocess.PIPE,
                                  env=self.child_env(unbuffered), timeout=120)
        assert (proc.returncode, proc.stderr) == (
            1, b"error: cannot write standard output: No space left on device\n")

    @pytest.mark.parametrize("where", ["missing/x.csv", "."])
    def test_unwritable_out(self, tmp_path, where):
        target = tmp_path / where
        code, out, err = run_cli(["table", "--n", "1e6", "--t", "1", "--x", "1",
                                  "--out", str(target)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write {target}:")
        assert "Traceback" not in err


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["norming", "--n", "1e6", "--t", "0.5", "--format", "json"],
        ["mills", "--x", "5:20:5", "--order", "3"],
        ["simulate", "--n", "100", "--t", "2", "--reps", "50", "--seed", "42"],
    ])
    def test_repeat_invocations_identical(self, argv):
        assert run_cli(argv) == run_cli(argv)


# Full-precision stdout of table/rates in JSON, frozen from the release
# before the numeric core was consolidated. JSON prints repr floats, so
# these catch a 1-ulp drift that the 12-digit CSV bytes would hide.
TABLE_CDF_ROWS = [
    (-1.0, 0.06598803584531254, 0.06994388397183789, 0.06966987297778365, 0.0697185938269586),
    (-0.75, 0.12039226207982957, 0.1263643789908967, 0.12580724296953222, 0.12590133333381145),
    (-0.5, 0.1922956455479649, 0.20103554889950984, 0.20011141620253353, 0.20026516082899307),
    (-0.25, 0.27692033409990896, 0.2891729387239103, 0.2878277834739242, 0.288050705356052),
    (0.0, 0.36787944117144233, 0.3841055894356314, 0.38231636273507796, 0.38261283459664985),
    (0.25, 0.4589560693076638, 0.47915560083070774, 0.4769215016473775, 0.477291639678385),
    (0.5, 0.545239211892605, 0.5689422015826766, 0.5662757599052022, 0.5667167643398571),
    (0.75, 0.6235249162568004, 0.6499129026503805, 0.6468360479164257, 0.6473434764805387),
    (1.0, 0.6922006275553464, 0.7202800025835407, 0.7168243902153814, 0.717393100352046),
    (1.25, 0.7508834766393948, 0.7796466052466317, 0.7758550712839118, 0.7764797386803423),
    (1.5, 0.8000107130043536, 0.8285518987942384, 0.8244786101234829, 0.8251538718318997),
    (1.75, 0.8404868737475784, 0.8680669906481197, 0.8637755256165908, 0.8644958853518515),
    (2.0, 0.8734230184931167, 0.8994914916864554, 0.8950513201064706, 0.8958109710950173),
    (2.25, 0.8999651626606278, 0.9241528745030155, 0.9196351732040638, 0.9204278568536367),
    (2.5, 0.9211936551755158, 0.9432894962607267, 0.9387631581421928, 0.9395821193037223),
    (2.75, 0.9380726685202482, 0.9579933248692506, 0.9535217129205555, 0.9543597621234045),
    (3.0, 0.9514319929004534, 0.9691911828665174, 0.9648298623360382, 0.9656795239014919),
    (3.25, 0.96196788944221, 0.9776485116750617, 0.9734439588674216, 0.9742976709435868),
    (3.5, 0.9702540025910624, 0.9839847322636321, 0.9799738833539382, 0.9808242159666032),
    (3.75, 0.9767566411323356, 0.9886933158541849, 0.9849037638215606, 0.985743627755612),
    (4.0, 0.9818510730616665, 0.9921625521570535, 0.9886131962115691, 0.9894360243059592),
]

TABLE_PDF_ROWS = [
    (-1.0, 0.1793740787340172, 0.18617134068596947, 0.1852329769447956, 0.18538154244976926),
    (-0.75, 0.2548704208230367, 0.2643516834700607, 0.2630349991445343, 0.26324770717859386),
    (-0.5, 0.31704192107794216, 0.3297036049671886, 0.328105340072066, 0.3283665435336682),
    (-0.25, 0.35557274738194417, 0.37081529895482757, 0.3690667380646602, 0.3693554347198163),
    (0.0, 0.36787944117144233, 0.38410558943563144, 0.38231636273507796, 0.3826132021850964),
    (0.25, 0.3574353461721825, 0.37267408563944254, 0.370912823571301, 0.37120337620422633),
    (0.5, 0.3307042988904181, 0.3432575819650627, 0.3415660656802952, 0.3418413728972669),
    (0.75, 0.29453231524035467, 0.30334339621390966, 0.30175802755751696, 0.30201367617489394),
    (1.0, 0.2546463800435825, 0.2593603298317591, 0.257923196225917, 0.25815770493652185),
    (1.25, 0.2151317179402431, 0.21595931478283106, 0.21471677959191185, 0.21492991919170246),
    (1.5, 0.17850651851312094, 0.1760173084861763, 0.17501219098577636, 0.17520372207052823),
    (1.75, 0.14605471846945312, 0.14098300277089812, 0.14024668002851157, 0.1404157231849282),
    (2.0, 0.11820495159314313, 0.1113055465189742, 0.11085333872346885, 0.11099831744437424),
    (2.25, 0.09485563027712225, 0.08681470089392002, 0.08664509548556665, 0.08676403958633161),
    (2.5, 0.07561617991742652, 0.06700735045287214, 0.06710410724057372, 0.06719508785050717),
    (2.75, 0.05996897935496824, 0.05124080697214277, 0.051576594693105784, 0.051638124157877774),
    (3.0, 0.04736900967790791, 0.038851263583225305, 0.039391691432551806, 0.03942300229014334),
    (3.25, 0.03729954287267523, 0.029218939504777476, 0.029926250147490584, 0.029927431992886572),
    (3.5, 0.029299132133281516, 0.021798402430626224, 0.02263446425914482, 0.022606475796979646),
    (3.75, 0.022971114449319364, 0.016127828019284182, 0.017056327003031897, 0.017000916656160374),
    (4.0, 0.01798322969671364, 0.01182656542707228, 0.012814450066677299, 0.012734020191445572),
]

RATES_ROWS = [
    (1000.0, 3.1152837746448987, 0.07365605474262887),
    (10000.0, 3.734635614026679, 0.04200464824023514),
    (100000.0, 4.275751857119465, 0.026652989827668422),
    (1000000.0, 4.761513709096467, 0.018271240761813287),
    (10000000.0, 5.205653072078002, 0.013267428424632466),
    (100000000.0, 5.617103535599689, 0.010058869510218213),
    (1000000000.0, 6.002037699901608, 0.007883023363635236),
    (10000000000.0, 6.364921139267791, 0.0063411992296149855),
]


# The same locks at n = 1000 on the t = 2 branch and at t = 0.5, frozen
# before the scalar expansions shared one e^{-x} and one coefficient pass.
TABLE_T2_CDF_ROWS = [
    (0.0, 0.36787944117144233, 0.354208981759268, 0.3599775367890298, 0.3575440412589511),
    (0.5, 0.545239211892605, 0.526805674205569, 0.5351267982752075, 0.5316948308966682),
    (1.0, 0.6922006275553464, 0.6719234120180386, 0.6818594753447987, 0.6776598609254733),
    (1.5, 0.8000107130043536, 0.7805845292440209, 0.7909997176084878, 0.7864019122368696),
    (2.0, 0.8734230184931167, 0.8564804603263061, 0.8664377402337154, 0.8618219079982753),
]
TABLE_T2_PDF_ROWS = [
    (0.0, 0.36787944117144233, 0.35616190453243574, 0.361796307119645, 0.35971591582812695),
    (0.5, 0.3307042988904181, 0.3239127306607948, 0.3282361715262478, 0.3264030722009036),
    (1.0, 0.2546463800435825, 0.2539458811689741, 0.2560225277093758, 0.25483248782997814),
    (1.5, 0.17850651851312094, 0.182226710139743, 0.1821421404781996, 0.18174137085244388),
    (2.0, 0.11820495159314313, 0.12406955369112718, 0.12244287254778713, 0.12274300763484948),
]
TABLE_T05_CDF_ROWS = [
    (0.0, 0.36787944117144233, 0.4057856448442962, 0.39602103097845737, 0.39881305239127035),
    (0.5, 0.545239211892605, 0.6027419328708745, 0.5883761231972692, 0.5926557329145431),
    (1.0, 0.6922006275553464, 0.7643570469744695, 0.7457284883902159, 0.7512283798982391),
    (1.5, 0.8000107130043536, 0.8770325147241698, 0.8542327760752846, 0.8607410719512042),
    (2.0, 0.8734230184931167, 0.9465018666499189, 0.920066499940926, 0.9275405494221263),
]
TABLE_T05_PDF_ROWS = [
    (0.0, 0.36787944117144233, 0.4057856448442962, 0.39602103097845737, 0.3991798348385836),
    (0.5, 0.3307042988904181, 0.3677111925872419, 0.3590099077812179, 0.36173673051667804),
    (1.0, 0.2546463800435825, 0.27463156880377415, 0.26616533872047493, 0.26834247974835174),
    (1.5, 0.17850651851312094, 0.17844871851358649, 0.17040198250795976, 0.17232323114133064),
    (2.0, 0.11820495159314313, 0.10373548215478197, 0.09749218579653429, 0.09946252063024186),
]


def _json_bytes(schema, rows):
    return json.dumps([dict(zip(schema, row)) for row in rows], indent=2) + "\n"


class TestFullPrecisionLocks:
    @pytest.mark.parametrize("target,rows", [
        ("cdf", TABLE_CDF_ROWS),
        ("pdf", TABLE_PDF_ROWS),
    ])
    def test_table_json(self, target, rows):
        code, out, err = run_cli(["table", "--n", "1e6", "--t", "1", "--x=-1:4:0.25",
                                  "--format", "json", "--target", target])
        assert (code, err) == (0, "")
        assert out == _json_bytes(["x", "limit", "second", "third", "exact"], rows)

    @pytest.mark.parametrize("t,target,rows", [
        ("2", "cdf", TABLE_T2_CDF_ROWS),
        ("2", "pdf", TABLE_T2_PDF_ROWS),
        ("0.5", "cdf", TABLE_T05_CDF_ROWS),
        ("0.5", "pdf", TABLE_T05_PDF_ROWS),
    ])
    def test_table_json_small_n(self, t, target, rows):
        code, out, err = run_cli(["table", "--n", "1000", "--t", t, "--x=0:2:0.5",
                                  "--format", "json", "--target", target])
        assert (code, err) == (0, "")
        assert out == _json_bytes(["x", "limit", "second", "third", "exact"], rows)

    def test_rates_json(self):
        code, out, err = run_cli(["rates", "--t", "1", "--x", "0",
                                  "--n-grid", "1e3:1e10:10", "--format", "json"])
        assert (code, err) == (0, "")
        assert out == _json_bytes(["n", "b", "residual"], RATES_ROWS)
