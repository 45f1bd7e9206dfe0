"""Seeded simulation of powered block maxima and the KS/DKW machinery."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import ndtri

import oracles
import powex.montecarlo
from powex import (
    DomainError,
    ResourceError,
    SimSample,
    ks_check,
    norming_constants,
    simulate_block_maxima,
)


class TestSimulate:
    def test_frozen_first_draws(self):
        nc = norming_constants(100.0, 2.0)
        sample = simulate_block_maxima(nc, 5, 42)
        assert sample.values.tolist() == list(oracles.SIM_N100_T2_R5_S42)
        assert sample.reps == 5 and sample.seed == 42

    def test_chunking_does_not_change_values(self):
        # chunk size is a memory knob only; force multi-chunk generation and
        # compare with the single-chunk result
        nc = norming_constants(300.0, 1.0)
        whole = simulate_block_maxima(nc, 50, 9)
        original = powex.montecarlo._CHUNK_TARGET_DRAWS
        try:
            powex.montecarlo._CHUNK_TARGET_DRAWS = 900  # 3 reps per chunk
            chunked = simulate_block_maxima(nc, 50, 9)
        finally:
            powex.montecarlo._CHUNK_TARGET_DRAWS = original
        assert np.array_equal(whole.values, chunked.values)

    @pytest.mark.parametrize("n,t,seed,chunk_draws", [
        *((n, t, seed, None)
          for n in (5, 10, 100, 1000)
          for t in (0.5, 1.0, 2.0, 3.0)
          for seed in (42, 7, 2 ** 63 + 5)),
        (1000, 2.0, 2 ** 63 + 5, 3000),  # 3 reps per chunk, 14 chunks
    ])
    def test_transform_matches_independent_regeneration(
            self, monkeypatch, n, t, seed, chunk_draws):
        # regenerate the same Philox stream directly, push every draw
        # through ndtri before the row max, and apply the normalization by
        # hand: the kernel's max-before-ndtri order must give the same bits
        if chunk_draws is not None:
            monkeypatch.setattr(powex.montecarlo, "_CHUNK_TARGET_DRAWS", chunk_draws)
        reps = 40
        nc = norming_constants(float(n), t)
        sample = simulate_block_maxima(nc, reps, seed)
        rng = np.random.Generator(np.random.Philox(key=seed))
        z = ndtri(rng.random((reps, n)))
        want = (np.abs(z.max(axis=1)) ** t - nc.d) / nc.c
        assert sample.values.tobytes() == want.tobytes()

    def test_prefix_stability_across_reps(self):
        # extending the replicate count extends the stream, it does not
        # reshuffle the prefix
        nc = norming_constants(100.0, 2.0)
        short = simulate_block_maxima(nc, 5, 42)
        long = simulate_block_maxima(nc, 11, 42)
        assert np.array_equal(long.values[:5], short.values)

    def test_seed_sensitivity(self):
        nc = norming_constants(100.0, 1.0)
        a = simulate_block_maxima(nc, 8, 0)
        b = simulate_block_maxima(nc, 8, 1)
        assert not np.array_equal(a.values, b.values)

    def test_domain_errors(self):
        nc = norming_constants(100.5, 1.0)
        with pytest.raises(DomainError):
            simulate_block_maxima(nc, 10, 0)  # non-integer block size
        nc = norming_constants(100.0, 1.0)
        with pytest.raises(DomainError):
            simulate_block_maxima(nc, 0, 0)
        with pytest.raises(DomainError):
            simulate_block_maxima(nc, 10, -1)
        with pytest.raises(DomainError):
            simulate_block_maxima(nc, 10, 2 ** 64)

    def test_budget(self, monkeypatch):
        nc = norming_constants(1e5, 1.0)
        with pytest.raises(ResourceError):
            simulate_block_maxima(nc, 10 ** 6, 0)  # 1e11 draws
        # n=2, reps=5e9 fits the draw budget but would need a 40 GB output:
        # refused before any array is made
        nc = norming_constants(2.0, 1.0)

        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated before the budget check")

        with monkeypatch.context() as m:
            m.setattr(np, "empty", no_alloc)
            with pytest.raises(ResourceError, match="replicate budget"):
                simulate_block_maxima(nc, 5 * 10 ** 9, 0)
        # the cap itself is admitted, one more replicate is not
        monkeypatch.setattr(powex.montecarlo, "MAX_REPS", 10)
        assert simulate_block_maxima(nc, 10, 0).reps == 10
        with pytest.raises(ResourceError, match="replicate budget"):
            simulate_block_maxima(nc, 11, 0)


class TestKsCheck:
    @staticmethod
    def perfect_gumbel_sample(m: int) -> SimSample:
        # values at Lambda^{-1}((i - 0.5)/m): the KS distance to Lambda is
        # exactly 0.5/m
        nc = norming_constants(1000.0, 1.0)
        qs = np.array([-math.log(-math.log((i - 0.5) / m)) for i in range(1, m + 1)])
        return SimSample(nc=nc, reps=m, seed=0, values=qs)

    def test_statistic_on_constructed_sample(self):
        m = 2000
        res = ks_check(self.perfect_gumbel_sample(m), "limit", alpha=0.05)
        assert abs(res.statistic - 0.5 / m) < 1e-12
        assert res.bound == math.sqrt(math.log(2.0 / 0.05) / (2.0 * m))
        assert res.passed

    def test_rejects_wrong_reference(self):
        m = 5000
        # a perfect Gumbel sample is far from the exact law at n = 1000 only
        # through the second-order term ~ k1/b^2 * Lambda'; detectable here
        res_limit = ks_check(self.perfect_gumbel_sample(m), "limit", alpha=0.001)
        res_exact = ks_check(self.perfect_gumbel_sample(m), "exact", alpha=0.001)
        assert res_limit.statistic < res_exact.statistic

    def test_validation(self):
        sample = self.perfect_gumbel_sample(1000)
        with pytest.raises(DomainError):
            ks_check(sample, "limit", alpha=0.0)
        with pytest.raises(DomainError):
            ks_check(sample, "limit", alpha=1.0)
        with pytest.raises(DomainError):
            ks_check(sample, "gumbel", alpha=0.1)
        small = SimSample(nc=sample.nc, reps=999, seed=0, values=sample.values[:999])
        with pytest.raises(DomainError):
            ks_check(small, "limit", alpha=0.1)

    def test_seeded_run_against_exact_law(self):
        # 2e6 draws: D should sit at the sampling scale ~ 1/sqrt(reps), well
        # inside the DKW band, while the Gumbel limit at n = 100 is visibly
        # off
        nc = norming_constants(100.0, 1.0)
        sample = simulate_block_maxima(nc, 20000, 7)
        res = ks_check(sample, "exact", alpha=0.001)
        assert res.passed, res
        res_limit = ks_check(sample, "limit", alpha=0.001)
        assert res_limit.statistic > res.statistic
        assert res_limit.statistic > 0.01
