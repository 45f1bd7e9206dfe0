"""Tests of the benchmark itself. From the repository root:

    python3 -m pytest -q perfbench

They cover the per-op output checks (a wrong output is counted as a failed
op, and nothing escapes), the scaling of latencies by the host-speed
references, the exact repetition of the traced counts for a fixed seed, the
metric names against BENCHMARK.json, and the refusal to run without the
powex sources.
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_checkout_sources()

import inprocess  # noqa: E402
import reference  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def refs():
    return run.load_refs()


def run_bench(workload: str, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def failed_share(workload, op) -> float:
    tally = run.Tally()
    run.run_op(workload, op, tally)
    return tally.failed / tally.attempted


def test_all_ops_of_a_cycle_pass(refs):
    law = run.make_workload("law_sweep", 7, refs)
    assert all(law.run(op) for op in law.cycle)


def test_perturbed_law_canary_counts_as_failed(refs):
    law = run.make_workload("law_sweep", 7, refs)
    op = law.cycle[0]
    assert failed_share(law, op) == 0.0
    bad = copy.deepcopy(refs)
    bad["law_sweep"]["points"][inprocess.law_key(op.t, op.k)]["cdf"][1] *= 1 + 1e-6
    assert failed_share(run.make_workload("law_sweep", 7, bad), op) == 1.0


def test_perturbed_cli_digest_counts_as_failed(refs):
    bad = copy.deepcopy(refs)
    command = bad["cli_session"]["commands"][0]
    command["stdout_sha256"] = "0" * 64
    cli = run.make_workload("cli_session", 7, bad)
    assert failed_share(cli, command) == 1.0
    good = run.make_workload("cli_session", 7, refs)
    assert failed_share(good, refs["cli_session"]["commands"][0]) == 0.0


def test_perturbed_mc_canary_fails_and_exceptions_are_counted(refs):
    bad = copy.deepcopy(refs)
    bad["mc_crosscheck"]["canary"]["sha256"] = "0" * 64
    assert not run.make_workload("mc_crosscheck", 7, bad).canary_ok()
    assert run.make_workload("mc_crosscheck", 7, refs).canary_ok()
    # a reference that is missing makes the check raise: still one failed op
    del bad["law_sweep"]["hall_scaled_error"]
    law = run.make_workload("law_sweep", 7, bad)
    assert failed_share(law, law.cycle[0]) == 1.0


class Idle:
    """A workload of two ops that do nothing and always pass."""
    cycle = ["a", "b"]

    def run(self, op) -> bool:
        return True


def test_latencies_are_scaled_by_the_references_around_each_op():
    ref = reference.Reference(lambda: sum(range(1000)), 1e-3)
    raw, scaled, ok_ops, _, refs = run.timed_loop(Idle(), 0.05, run.Tally(), ref)
    assert ok_ops == len(refs) - 1 == sum(map(len, raw))
    for i in range(ok_ops):
        position, k = i % 2, i // 2
        assert scaled[position][k] == pytest.approx(
            raw[position][k] * 1e-3 / ((refs[i] + refs[i + 1]) / 2))


@pytest.mark.parametrize("kind", sorted(set(run.REFERENCES.values())))
def test_references_run(kind):
    ref = getattr(reference, kind)()
    assert 0 < ref.time() < 1 and ref.nominal_s > 0


def traced_counts(name: str, refs: dict) -> tuple[dict, dict]:
    workload = run.make_workload(name, 11, refs)
    tracer = Tracer(child_spans_path=run.OUT_DIR / "child-spans-test.json")
    run.OUT_DIR.mkdir(exist_ok=True)
    if name == "cli_session":
        workload.tracer = tracer
    else:
        tracer.install()
    try:
        run.traced_cycles(workload, 0.0, run.Tally(), tracer)
    finally:
        tracer.uninstall()
    calls = {fn: rec[0] for fn, rec in tracer.function_stats().items()}
    return calls, dict(tracer.counts)


@pytest.mark.parametrize("name", ["mc_crosscheck", "cli_session"])
def test_traced_counts_repeat_for_a_seed(name, refs):
    first = traced_counts(name, refs)
    assert first == traced_counts(name, refs)
    assert first[0]["op"] == len(run.make_workload(name, 11, refs).cycle)


def test_traced_runs_repeat_counts_and_name_every_per_layer_metric():
    first, second = (run_bench("law_sweep", 1, 1) for _ in range(2))
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared
    for name, metric in first["metrics"].items():
        if metric["unit"] in ("count", "B"):
            assert metric["value"] == second["metrics"][name]["value"], name
    assert first["failed"] == 0 and first["correct"]


def test_untraced_run_names_every_end_to_end_metric():
    result = run_bench("law_sweep", 1, 0)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["failed"] == 0 and result["correct"]


def test_workload_reasons_match_benchmark_json():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == run.WHY


def test_refuses_to_run_without_sources(tmp_path: Path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "law_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
