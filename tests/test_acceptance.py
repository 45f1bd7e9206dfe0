"""Acceptance gate: the ten headline checks, one test per criterion.

Each test runs the corresponding check from ``powex.acceptance`` (the same
battery behind ``powex verify``), prints its PASS/FAIL line with the
measured value and bound, and fails if the verdict is not PASS. Bounds and
budgets live in the check implementations; nothing is loosened here.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

from powex.acceptance import (
    CheckResult,
    _check,
    check_cdf_remainder_slope,
    check_exact_self_consistency,
    check_hall_limit,
    check_mills_series,
    check_monte_carlo,
    check_norming_residual,
    check_order_improvement,
    check_pdf_remainder_slope,
    check_t2_acceleration,
)


def report(result) -> None:
    line = (f"{result.status} {result.check}: measured={result.measured:.6g} "
            f"bound={result.bound:.6g} in {result.elapsed_s:.3g}s [{result.detail}]")
    print(line)
    assert result.status == "PASS", line
    assert result.elapsed_s > 0.0, line


def test_criterion_01_norming_residual():
    report(check_norming_residual())


def test_criterion_02_mills_series_bound():
    report(check_mills_series())


def test_criterion_03_hall_limit_scaled_error():
    report(check_hall_limit())


def test_criterion_04_cdf_remainder_slope():
    report(check_cdf_remainder_slope())


def test_criterion_05_pdf_remainder_slope():
    report(check_pdf_remainder_slope())


def test_criterion_06_order_improvement():
    report(check_order_improvement())


def test_criterion_07_t2_acceleration():
    report(check_t2_acceleration())


def test_criterion_08_exact_self_consistency():
    report(check_exact_self_consistency())


def test_criterion_09_monte_carlo_ks():
    report(check_monte_carlo())


def test_criterion_10_cli_determinism_and_verify():
    # verify runs check_cli_determinism as its last check, so one verify run
    # covers the determinism criterion and the CLI verb together
    proc = subprocess.run([sys.executable, "-m", "powex", "verify"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    head, _, tail = proc.stdout.partition("\n[")
    summary = json.loads("[" + tail)
    assert len(summary) == 10 and summary[-1]["check"] == "cli-determinism"
    for line, row in zip(head.split("\n"), summary, strict=True):
        assert list(row) == list(CheckResult._fields)
        assert line.startswith(f"PASS {row['check']}: measured=")
        report(CheckResult(**row))


def run_stub(ok: bool, **budget) -> CheckResult:
    return _check("stub", **budget)(lambda: (ok, 0.25, 1.0, "stub detail"))()


def test_runner_fails_a_passing_body_over_budget():
    result = run_stub(True, budget_s=0.0)
    assert result.status == "FAIL"
    assert result.elapsed_s > 0.0


@pytest.mark.parametrize("ok,status", [(True, "PASS"), (False, "FAIL")])
def test_runner_passes_the_body_through(ok, status):
    result = run_stub(ok)
    assert result == CheckResult("stub", status, 0.25, 1.0, "stub detail", result.elapsed_s)
    assert math.isfinite(result.elapsed_s) and result.elapsed_s > 0.0
