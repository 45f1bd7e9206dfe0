"""Measure the benchmark's run-to-run spread and record a baseline.

    python3 perfbench/baseline.py --runs 10 --seconds 30 --out perfbench/baseline.json

Runs every workload ``--runs`` times untraced, each run with another seed,
then once traced. For each end-to-end metric it records the values, their
median and quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median; for the traced run, every per-layer metric.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        summary[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                         "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=list(run.WHY))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report = {"environment": run.environment(), "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        results = []
        for seed in seeds:
            results.append(bench(workload, seed, args.seconds, 0))
            print(workload, seed, {k: round(v["value"], 4)
                                   for k, v in results[-1]["metrics"].items()}, flush=True)
        traced = bench(workload, seeds[0], args.seconds, 1)
        report["workloads"][workload] = {
            "why": run.WHY[workload], "seeds": seeds,
            "failed": sum(r["failed"] for r in results + [traced]),
            "attempted": sum(r["attempted"] for r in results + [traced]),
            "end_to_end": summarise(results),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name, s in report["workloads"][workload]["end_to_end"].items():
            print(f"  {name}: median {s['median']:.6g} {s['unit']}, spread {s['spread']:.4f}")
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
