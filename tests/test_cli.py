"""Command-line surface: formatting contract, grid parsing, verb wiring,
exit codes, and byte-stable output."""
from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np
import pytest

from powex.cli import (
    _merge_negative_args,
    emit_table,
    format_number,
    parse_and_dispatch,
    parse_grid,
    parse_n_grid,
)
from powex.errors import InternalError

import argparse


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = parse_and_dispatch(argv)
    return code, out.getvalue(), err.getvalue()


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

    def test_merge_negative_args(self):
        assert _merge_negative_args(["--x", "-1:4:0.25"]) == ["--x=-1:4:0.25"]
        assert _merge_negative_args(["--x", "-1"]) == ["--x=-1"]
        assert _merge_negative_args(["--x=-1", "--t", "2"]) == ["--x=-1", "--t", "2"]
        assert _merge_negative_args(["--seed", "42"]) == ["--seed", "42"]
        assert _merge_negative_args(["--flag"]) == ["--flag"]


class TestEmitTable:
    def test_csv(self):
        assert emit_table([[0.0, 0.5]], ["x", "p"]) == "x,p\n0,0.5\n"

    def test_empty_rows(self):
        assert emit_table([], ["x", "p"]) == "x,p\n"

    def test_json_full_precision(self):
        text = emit_table([[0.1, 0.39881305239127035]], ["x", "v"], format="json")
        data = json.loads(text)
        assert data == [{"x": 0.1, "v": 0.39881305239127035}]

    def test_arity_mismatch(self):
        with pytest.raises(InternalError):
            emit_table([[1.0]], ["x", "p"])

    def test_unknown_format(self):
        with pytest.raises(InternalError):
            emit_table([[1.0]], ["x"], format="xml")


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


class TestUsageErrors:
    def test_unknown_verb(self):
        assert run_cli(["frobnicate"])[0] == 2

    def test_missing_required(self):
        assert run_cli(["table", "--n", "1000"])[0] == 2

    def test_no_verb(self):
        assert run_cli([])[0] == 2

    def test_help_exits_zero(self):
        assert run_cli(["--help"])[0] == 0


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

    def test_out_of_support_x(self):
        code, _, err = run_cli(["table", "--n", "1000", "--t", "2", "--x=-20"])
        assert code == 1
        assert "x_min" in err


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

    def test_bad_grid(self):
        code, _, _ = run_cli(["rates", "--t", "1", "--x", "0", "--n-grid", "10,20"])
        assert code == 1  # grid points below 100


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

    def test_non_integer_reps(self):
        code, _, err = run_cli(["simulate", "--n", "100", "--t", "1", "--reps", "2.5"])
        assert code == 1
        assert "integer" in err

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


class TestOutputFile:
    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "norming.csv"
        code, out, _ = run_cli(["norming", "--n", "1000", "--t", "2",
                                "--out", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text() == "n,t,b,c,d\n1000,2,3.1153,1.7939,9.4989\n"


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["norming", "--n", "1e6", "--t", "0.5", "--format", "json"],
        ["mills", "--x", "5:20:5", "--order", "3"],
        ["simulate", "--n", "100", "--t", "2", "--reps", "50", "--seed", "42"],
    ])
    def test_repeat_invocations_identical(self, argv):
        assert run_cli(argv) == run_cli(argv)
