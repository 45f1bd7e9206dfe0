"""Acceptance gate: the ten headline checks, one test per criterion.

Each test runs the corresponding check from ``powex.acceptance`` (the same
battery behind ``powex verify``), prints its PASS/FAIL line with the
measured value and bound, and fails if the verdict is not PASS. Bounds and
budgets live in the check implementations; nothing is loosened here.
"""
from __future__ import annotations

import collections
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from powex import acceptance, cli
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
    # covers the determinism criterion and the CLI verb together. The child,
    # and the CLI runs it starts, import this powex whether or not the
    # caller set PYTHONPATH
    env = dict(os.environ)
    src = str(Path(acceptance.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-m", "powex", "verify"],
                          capture_output=True, text=True, env=env, timeout=120)
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


def test_runner_does_not_charge_a_descheduled_body():
    # a body that waits 5 ms (as on a busy host) uses almost no CPU: it
    # passes a 1 ms budget, and its wall time is still reported
    def sleeping():
        time.sleep(5e-3)
        return True, 0.25, 1.0, "slept"

    result = _check("stub", budget_s=1e-3)(sleeping)()
    assert result.status == "PASS"
    assert result.elapsed_s >= 5e-3


def test_runner_fails_a_body_over_its_cpu_budget():
    def spinning():
        start = time.process_time()
        while time.process_time() - start < 3e-3:
            pass
        return True, 0.25, 1.0, "spun"

    result = _check("stub", budget_s=1e-3)(spinning)()
    assert result.status == "FAIL"
    assert result.elapsed_s >= 3e-3


@pytest.mark.parametrize("ok,status", [(True, "PASS"), (False, "FAIL")])
def test_runner_passes_the_body_through(ok, status):
    result = run_stub(ok)
    assert result == CheckResult("stub", status, 0.25, 1.0, "stub detail", result.elapsed_s)
    assert math.isfinite(result.elapsed_s) and result.elapsed_s > 0.0


@pytest.fixture(scope="module")
def in_process_triples():
    # stand-ins for the cold runs, so that these tests start no child:
    # unchanged code gives the same triple cold and in process
    return {cmd: acceptance._run_in_process(cmd) for cmd in acceptance.DETERMINISM_COMMANDS}


def fake_cold_runs(monkeypatch, triples):
    calls = collections.Counter()

    def run(cmd):
        calls[cmd] += 1
        return triples[cmd]

    monkeypatch.setattr(acceptance, "_run_cli", run)
    return calls


def test_cli_determinism_runs_each_command_once_cold(monkeypatch, in_process_triples):
    calls = fake_cold_runs(monkeypatch, in_process_triples)
    result = acceptance.check_cli_determinism()
    assert calls == {cmd: 1 for cmd in acceptance.DETERMINISM_COMMANDS}
    assert (result.status, result.measured) == ("PASS", 0.0)
    assert result.detail == "8 commands run cold and in process"


def test_cli_determinism_fails_on_other_bytes_in_process(monkeypatch, in_process_triples):
    fake_cold_runs(monkeypatch, in_process_triples)
    mills = cli._cmd_mills
    monkeypatch.setattr(cli, "_cmd_mills", lambda args: itertools.chain(mills(args), ["#\n"]))
    result = acceptance.check_cli_determinism()
    assert result.status == "FAIL" and result.measured == 1.0
    assert result.detail == ("8 commands run cold and in process; "
                             "mismatched: mills --x 5:20:5 --order 3")


@pytest.mark.parametrize("field", [0, 2], ids=["exit_code", "stderr"])
def test_cli_determinism_fails_on_one_other_field_cold(monkeypatch, in_process_triples, field):
    cmd = acceptance.DETERMINISM_COMMANDS[0]
    triple = list(in_process_triples[cmd])
    triple[field] = 1 if field == 0 else b"error: other\n"
    fake_cold_runs(monkeypatch, {**in_process_triples, cmd: tuple(triple)})
    result = acceptance.check_cli_determinism()
    assert result.status == "FAIL" and result.measured == 1.0
    assert result.detail.endswith("; mismatched: " + " ".join(cmd))
