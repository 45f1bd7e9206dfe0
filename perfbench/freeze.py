"""Regenerate ``refs.json``, the frozen references the benchmark checks
every op against. Run from the repository root:

    PYTHONPATH=src python3 perfbench/freeze.py

law_sweep canaries come from the independent mpmath oracle in
``tests/oracles.py``, never from powex. The Monte Carlo canary digest and
the CLI digests are regression locks: they pin the bytes powex produces at
the commit they were frozen at. Needs mpmath.
"""
from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
from inprocess import (CANARY_ARRAY_INDEX, CANARY_X_INDEX, GRID10K, GRID23,  # noqa: E402
                       HALL_GRID, LAW_K, LAW_T, LAW_X, N_GRID, law_key, law_n,
                       sample_digest)
from cli_session import powex_env  # noqa: E402
from powex.acceptance import DETERMINISM_COMMANDS  # noqa: E402

# Relative tolerances of the law_sweep canaries. The float64 library agrees
# with the oracle to about 1e-12 on the exact law; the scaled Hall error
# loses a few more digits to the difference F_n - Lambda.
TOLERANCE = {"exact_law": 1e-9, "gumbel": 1e-12, "norming": 1e-12,
             "hall_scaled_error": 1e-7}

MC_CANARY = {"n": 100, "t": 2.0, "reps": 2000, "seed": 42}

# The documented determinism commands, plus a larger JSON export.
CLI_EXTRA = (("simulate", "--n", "100", "--t", "2", "--reps", "2e4", "--seed", "42",
              "--format", "json"),)


def hall_scaled_error(n: float, t: float, x: float) -> float:
    """b^(2+2[t=2]) (F_n(x) - Lambda(x)) / Lambda'(x) from the oracle."""
    b, _, _ = oracles.hp_constants(n, t)
    u = b * b
    scale = u * u if t == 2 else u
    gap = oracles.hp_exact_cdf(n, t, x) - oracles.hp_gumbel_cdf(x)
    return float(scale * gap / oracles.hp_gumbel_pdf(x))


def law_refs() -> dict:
    xs = [GRID23[i] for i in CANARY_X_INDEX]
    array_xs = [float(GRID10K[i]) for i in CANARY_ARRAY_INDEX]
    points = {}
    for t in LAW_T:
        for k in LAW_K:
            n = law_n(k)
            points[law_key(t, k)] = {
                "cdf": [float(oracles.hp_exact_cdf(n, t, x)) for x in xs],
                "pdf": [float(oracles.hp_exact_pdf(n, t, x)) for x in xs],
                "array": [float(oracles.hp_exact_cdf(n, t, x)) for x in array_xs],
            }
    return {
        "tolerance": TOLERANCE,
        "gumbel_cdf": [float(oracles.hp_gumbel_cdf(x)) for x in xs],
        "gumbel_pdf": [float(oracles.hp_gumbel_pdf(x)) for x in xs],
        "b_grid": [float(oracles.hp_constants(n, 1.0)[0]) for n in N_GRID],
        "hall_scaled_error": {f"{t:g}|{x:g}": [hall_scaled_error(n, t, x) for n in HALL_GRID]
                              for t in LAW_T for x in LAW_X},
        "points": points,
    }


def cli_refs() -> dict:
    commands = []
    for argv in DETERMINISM_COMMANDS + CLI_EXTRA:
        proc = subprocess.run([sys.executable, "-m", "powex", *argv], cwd=ROOT,
                              env=powex_env(ROOT), capture_output=True, timeout=120)
        commands.append({"argv": list(argv), "exit_code": proc.returncode,
                         "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
                         "stdout_bytes": len(proc.stdout)})
    return {"commands": commands}


def main() -> None:
    mp.mp.dps = 40
    refs = {
        "law_sweep": law_refs(),
        "mc_crosscheck": {"canary": {**MC_CANARY, "sha256": sample_digest(**MC_CANARY)}},
        "cli_session": cli_refs(),
    }
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
