"""The two in-process workloads: ``law_sweep`` (the scalar numeric path) and
``mc_crosscheck`` (the bulk-array Monte Carlo path).

Each workload is a fixed cycle of ops whose parameters come from the seed
alone; a run repeats the cycle, so runs of the same length cover the same
parameter mix. Every op checks its own output against the frozen references
in ``refs.json`` and returns False when any check fails.

powex is called through its module attributes (``expansions.cdf_approx``,
not a name bound at import time), so the wrappers the tracer installs on
those attributes see every call.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import random
from typing import NamedTuple

import numpy as np

from powex import convergence_lab, exact_law, expansions, montecarlo, norming

# law_sweep: one study per op at a seeded t, n = 10**(k/8) with k uniform on
# 24..96 (n from 1e3 to 1e12), and a seeded (x, target) for the rate study.
LAW_T = (0.5, 1.0, 2.0, 3.0)
LAW_X = (-1.0, 0.0, 1.0, 2.0)
LAW_TARGETS = ("cdf", "pdf")
LAW_K = range(24, 97)
GRID23 = [-1.5 + 0.25 * i for i in range(23)]
GRID10K = np.linspace(-1.5, 4.0, 10_000)
N_GRID = [10.0 ** k for k in range(3, 13)]
HALL_GRID = [1e6, 1e12]

# Canary subset of every law_sweep op that is compared with the oracle.
CANARY_X_INDEX = (2, 8, 18)          # x = -1.0, 0.5, 3.0 on GRID23
CANARY_ARRAY_INDEX = (0, 3333, 9999)  # points of GRID10K

# mc_crosscheck: about 2e6 normal draws per op whatever the block size, so
# varying n trades per-draw against per-replicate cost.
MC_N = (10, 100, 1000)
MC_T = (1.0, 2.0)
MC_DRAWS = 2_000_000
KS_ALPHA = 1e-6


def law_n(k: int) -> float:
    return 10.0 ** (k / 8)


def law_key(t: float, k: int) -> str:
    return f"{t:g}|{k}"


class LawOp(NamedTuple):
    t: float
    k: int
    x: float
    target: str


class McOp(NamedTuple):
    n: int
    t: float
    key: int


def _rel_ok(value: float, ref: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= tol * abs(ref)


class LawSweep:
    """Scalar numeric path, bound by Python per-call overhead."""

    def __init__(self, seed: int, refs: dict):
        self.refs = refs["law_sweep"]
        rng = random.Random(seed)
        combos = list(itertools.product(LAW_T, LAW_X, LAW_TARGETS))
        rng.shuffle(combos)
        self.cycle = [LawOp(t, rng.choice(LAW_K), x, target) for t, x, target in combos]

    def run(self, op: LawOp) -> bool:
        nc = norming.norming_constants(law_n(op.k), op.t)
        cdf = {order: [expansions.cdf_approx(nc, x, order).value for x in GRID23]
               for order in expansions.ApproxOrder}
        pdf = {order: [expansions.pdf_approx(nc, x, order).value for x in GRID23]
               for order in expansions.ApproxOrder}
        array = exact_law.exact_cdf_values(nc, GRID10K)
        curve = convergence_lab.error_curve(
            op.t, op.x, N_GRID, expansions.ApproxOrder.THIRD, target=op.target,
            scaling=convergence_lab.Scaling.THIRD_ORDER_REMAINDER)
        fit = convergence_lab.rate_fit(curve)
        hall = convergence_lab.hall_limit_check(op.t, op.x, HALL_GRID)
        return self._check(op, cdf, pdf, array, curve, fit, hall)

    def _check(self, op, cdf, pdf, array, curve, fit, hall) -> bool:
        refs = self.refs
        tol = refs["tolerance"]
        point = refs["points"][law_key(op.t, op.k)]
        exact, limit = expansions.ApproxOrder.EXACT, expansions.ApproxOrder.LIMIT
        checks = []
        for j, i in enumerate(CANARY_X_INDEX):
            checks += [
                _rel_ok(cdf[exact][i], point["cdf"][j], tol["exact_law"]),
                _rel_ok(pdf[exact][i], point["pdf"][j], tol["exact_law"]),
                _rel_ok(cdf[limit][i], refs["gumbel_cdf"][j], tol["gumbel"]),
                _rel_ok(pdf[limit][i], refs["gumbel_pdf"][j], tol["gumbel"]),
            ]
        checks += [_rel_ok(float(array[i]), ref, tol["exact_law"])
                   for i, ref in zip(CANARY_ARRAY_INDEX, point["array"])]
        checks += [_rel_ok(row.b, ref, tol["norming"])
                   for row, ref in zip(curve.rows, refs["b_grid"])]
        hall_refs = refs["hall_scaled_error"][f"{op.t:g}|{op.x:g}"]
        checks += [_rel_ok(row.scaled_error, ref, tol["hall_scaled_error"])
                   for row, ref in zip(hall.rows, hall_refs)]
        checks += [
            len(curve.rows) == len(N_GRID),
            len(hall.rows) == len(HALL_GRID),
            hall.passed,
            math.isfinite(fit.slope) and fit.points_used >= 3,
            all(0.0 <= v <= 1.0 for values in cdf.values() for v in values),
            all(v >= 0.0 for values in pdf.values() for v in values),
        ]
        return all(checks)


def sample_digest(n: int, t: float, reps: int, seed: int) -> str:
    """sha256 of the float64 bytes of one seeded Monte Carlo sample."""
    nc = norming.norming_constants(n, t)
    sample = montecarlo.simulate_block_maxima(nc, reps, seed)
    return hashlib.sha256(sample.values.tobytes()).hexdigest()


class McCrosscheck:
    """Bulk-array path, bound by the random-number stream."""

    def __init__(self, seed: int, refs: dict):
        self.refs = refs["mc_crosscheck"]
        rng = random.Random(seed)
        combos = list(itertools.product(MC_N, MC_T))
        rng.shuffle(combos)
        self.cycle = [McOp(n, t, rng.getrandbits(63)) for n, t in combos]

    def run(self, op: McOp) -> bool:
        reps = MC_DRAWS // op.n
        nc = norming.norming_constants(op.n, op.t)
        sample = montecarlo.simulate_block_maxima(nc, reps, op.key)
        exact = montecarlo.ks_check(sample, "exact", alpha=KS_ALPHA)
        limit = montecarlo.ks_check(sample, "limit", alpha=KS_ALPHA)
        return (sample.values.shape == (reps,) and exact.passed
                and math.isfinite(limit.statistic))

    def canary_ok(self) -> bool:
        """The seeded sample is byte-identical to the one frozen in refs."""
        c = self.refs["canary"]
        return sample_digest(c["n"], c["t"], c["reps"], c["seed"]) == c["sha256"]
