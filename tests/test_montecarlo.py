"""Seeded simulation of powered block maxima and the KS/DKW machinery."""
from __future__ import annotations

import itertools
import math
import os
import sys
import threading
import tracemalloc

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
from powex.exact_law import exact_cdf_values


def _offset(view: np.ndarray) -> int:
    """Index of ``view``'s first element in the array it is a slice of."""
    return (view.ctypes.data - view.base.ctypes.data) // view.itemsize


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

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_frozen_first_draws_for_any_worker_count(self, monkeypatch, workers):
        # 100 draws per chunk target: up to five one-replicate chunks
        monkeypatch.setattr(powex.montecarlo, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(powex.montecarlo, "_CHUNK_TARGET_DRAWS", 100)
        sample = simulate_block_maxima(norming_constants(100.0, 2.0), 5, 42)
        assert sample.values.tolist() == list(oracles.SIM_N100_T2_R5_S42)

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.parametrize("n,reps,chunk_draws,every_offset_mod_4", [
        # odd n: at two, three and five workers some worker starts at each
        # nonzero lo*n % 4, and at five the starts cover all four residues
        (7, 45, 21, True),
        (13, 45, 50, True),
        (16, 30, 100, False),  # column-loop row max
        (17, 30, 100, False),
        (32, 30, 100, False),  # the largest n that uses the column loop
        (33, 30, 100, False),  # max(axis=1)
        (7, 3, 5, False),  # fewer replicates than workers: one chunk each, in 5-word segments
    ])
    def test_bytes_do_not_depend_on_worker_count(
            self, monkeypatch, workers, n, reps, chunk_draws, every_offset_mod_4):
        # the worker count is forced past the host's cores and threads switch
        # often; each replicate must be filled exactly once, by its own
        # worker, and the bytes must equal one pass over the whole stream
        monkeypatch.setattr(powex.montecarlo, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(powex.montecarlo, "_CHUNK_TARGET_DRAWS", chunk_draws)
        fill_chunk = powex.montecarlo._fill_chunk
        filled = []

        def recording_fill_chunk(dst, buffer, bit_generator, nc):
            filled.append((_offset(dst), len(dst), threading.current_thread()))
            fill_chunk(dst, buffer, bit_generator, nc)

        monkeypatch.setattr(powex.montecarlo, "_fill_chunk", recording_fill_chunk)
        t, seed = 2.0, 2 ** 63 + 5
        nc = norming_constants(float(n), t)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sample = simulate_block_maxima(nc, reps, seed)
        finally:
            sys.setswitchinterval(interval)
        rng = np.random.Generator(np.random.Philox(key=seed))
        z = ndtri(rng.random((reps, n)))
        want = (np.abs(z.max(axis=1)) ** t - nc.d) / nc.c
        assert sample.values.tobytes() == want.tobytes()
        positions = [pos for pos, _, _ in filled]
        assert len(set(positions)) == len(positions)
        assert sum(k for _, k, _ in filled) == reps
        threads = {thread for _, _, thread in filled}
        assert len(threads) == min(workers, reps)
        if every_offset_mod_4 and workers > 1:
            # lo*n % 4 of the draw at which each worker's generator starts
            residues = {min(pos for pos, _, th in filled if th is thread) * n % 4
                        for thread in threads}
            assert residues - {0} and (workers < 4 or residues == {0, 1, 2, 3})

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_one_generator_and_one_contiguous_share_per_worker(self, monkeypatch, workers):
        # 23 replicates in chunks of 2: each worker builds one Philox, fills
        # one run of consecutive replicates chunk after chunk, and the runs
        # differ in length by at most one and tile the sample
        monkeypatch.setattr(powex.montecarlo, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(powex.montecarlo, "_CHUNK_TARGET_DRAWS", 20)
        philox = np.random.Philox
        built, filled = [], []

        def recording_philox(*args, **kwargs):
            built.append(threading.current_thread())
            return philox(*args, **kwargs)

        fill_chunk = powex.montecarlo._fill_chunk

        def recording_fill_chunk(dst, *args):
            filled.append((_offset(dst), len(dst), threading.current_thread()))
            fill_chunk(dst, *args)

        monkeypatch.setattr(np.random, "Philox", recording_philox)
        monkeypatch.setattr(powex.montecarlo, "_fill_chunk", recording_fill_chunk)
        reps = 23
        simulate_block_maxima(norming_constants(10.0, 1.0), reps, 5)
        threads = {thread for _, _, thread in filled}
        assert len(threads) == workers
        assert len(built) == len(set(built)) and set(built) == threads
        shares = []
        for thread in threads:
            slices = [(pos, k) for pos, k, th in filled if th is thread]
            assert all(a + k == b for (a, k), (b, _) in zip(slices, slices[1:]))
            shares.append(range(slices[0][0], slices[-1][0] + slices[-1][1]))
        assert max(map(len, shares)) - min(map(len, shares)) <= 1
        assert sorted(i for share in shares for i in share) == list(range(reps))

    @pytest.mark.parametrize("error", [RuntimeError("ndtri failed"), KeyboardInterrupt()])
    def test_failure_stops_every_worker(self, monkeypatch, error):
        # two workers, 500 two-replicate chunks; the second ndtri call
        # raises, which must reach the caller as the same object, and each
        # worker finishes at most the chunk it is in
        monkeypatch.setattr(powex.montecarlo, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(powex.montecarlo, "_CHUNK_TARGET_DRAWS", 20)
        calls = itertools.count(1)
        made = []

        def failing_ndtri(u, out=None):
            call = next(calls)
            made.append(call)
            if call == 2:
                raise error
            return ndtri(u, out=out)

        monkeypatch.setattr(powex.montecarlo, "ndtri", failing_ndtri)
        with pytest.raises(type(error)) as excinfo:
            simulate_block_maxima(norming_constants(10.0, 1.0), 1000, 3)
        assert excinfo.value is error
        assert len(made) <= 2 + 2

    def test_interrupt_while_joining(self, monkeypatch):
        # the caller finishes its own chunks and is interrupted in join: it
        # halts the other worker, joins it again and re-raises, leaving no
        # thread behind
        monkeypatch.setattr(powex.montecarlo, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(powex.montecarlo, "_CHUNK_TARGET_DRAWS", 20)
        join = threading.Thread.join
        joins = []

        def interrupted_join(thread, timeout=None):
            joins.append(thread)
            if len(joins) == 1:
                raise KeyboardInterrupt
            return join(thread, timeout)

        before = threading.active_count()
        monkeypatch.setattr(threading.Thread, "join", interrupted_join)
        with pytest.raises(KeyboardInterrupt):
            simulate_block_maxima(norming_constants(10.0, 1.0), 1000, 3)
        assert len(joins) == 2 and joins[0] is joins[1]
        assert threading.active_count() == before

    def test_usable_cpus_without_affinity_or_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert powex.montecarlo._usable_cpus() == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflow_refused(self, monkeypatch, workers):
        # |M_100|^700 overflows for about a quarter of the replicates; the
        # power must not warn (RuntimeWarnings are errors here) and the
        # DomainError must reach the caller from whichever worker saw it
        monkeypatch.setattr(powex.montecarlo, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(powex.montecarlo, "_CHUNK_TARGET_DRAWS", 10 ** 4)
        with pytest.raises(DomainError, match="overflows"):
            simulate_block_maxima(norming_constants(100.0, 700.0), 2000, 1)
        # the same t is fine where no replicate overflows
        sample = simulate_block_maxima(norming_constants(100.0, 700.0), 3, 1)
        assert np.isfinite(sample.values).all()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_underflow_refused(self, monkeypatch, workers):
        # |M_2|^1587 underflows to 0 for two of the first three replicates,
        # which were then printed as x_min = -d/c, off the exact law's open
        # support
        monkeypatch.setattr(powex.montecarlo, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(powex.montecarlo, "_CHUNK_TARGET_DRAWS", 2)
        nc = norming_constants(2.0, 1587.0)
        with pytest.raises(DomainError) as excinfo:
            simulate_block_maxima(nc, 3, 0)
        assert str(excinfo.value) == "simulated |M_n|^t underflows at n=2, t=1587.0"
        # the first replicate alone is on the support
        assert simulate_block_maxima(nc, 1, 0).values[0] > -nc.d / nc.c

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

    @pytest.mark.parametrize("reps,seed", [
        (math.nan, 0), (10, math.nan), (math.inf, 0), (2.9, 0), (10, -0.5), (10, "7"),
        (np.float64(2.5), 0), (10, None),
    ])
    def test_non_integer_reps_or_seed_refused(self, monkeypatch, reps, seed):
        # NaN and inf once escaped as ValueError/OverflowError, 2.9 gave 2
        # replicates, -0.5 seeded 0 and "7" was taken: all are refused before
        # any array is made
        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated before the integer check")

        monkeypatch.setattr(np, "empty", no_alloc)
        with pytest.raises(DomainError, match="must be an integer"):
            simulate_block_maxima(norming_constants(10.0, 1.0), reps, seed)

    @pytest.mark.parametrize("reps,seed", [
        (5.0, 42.0), (np.int64(5), np.uint64(42)), (np.float32(5), np.int8(42)),
    ])
    def test_integer_valued_reps_and_seed_accepted(self, reps, seed):
        sample = simulate_block_maxima(norming_constants(100.0, 2.0), reps, seed)
        assert sample.values.tolist() == list(oracles.SIM_N100_T2_R5_S42)
        assert type(sample.reps) is int and type(sample.seed) is int
        assert (sample.reps, sample.seed) == (5, 42)

    def test_values_are_read_only(self):
        sample = simulate_block_maxima(norming_constants(100.0, 2.0), 5, 42)
        with pytest.raises(ValueError, match="read-only"):
            sample.values[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            sample.values += 1.0

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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_block_larger_than_a_chunk_is_drawn_in_bounded_segments(
            self, monkeypatch, workers):
        # n > _CHUNK_TARGET_DRAWS leaves one replicate per chunk; its 8 MB of
        # words must not be drawn at once, and the segments must give the
        # bytes of one pass over the stream
        monkeypatch.setattr(powex.montecarlo, "_usable_cpus", lambda: workers)
        n, reps, t, seed = 2 ** 20 + 3, 2, 1.0, 2 ** 63 + 5
        nc = norming_constants(float(n), t)
        tracemalloc.start()
        try:
            sample = simulate_block_maxima(nc, reps, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20
        rng = np.random.Generator(np.random.Philox(key=seed))
        z = ndtri(rng.random((reps, n)))
        want = (np.abs(z.max(axis=1)) ** t - nc.d) / nc.c
        assert sample.values.tobytes() == want.tobytes()


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

    def test_reference_checked_before_the_sort(self, monkeypatch):
        # a misspelt reference is refused before the sample is sorted
        sample = self.perfect_gumbel_sample(1000)

        def refuse(*args, **kwargs):
            raise AssertionError("sample sorted before the reference check")

        monkeypatch.setattr(np, "sort", refuse)
        with pytest.raises(DomainError, match="reference must be"):
            ks_check(sample, "gumbel", alpha=0.1)

    def test_two_checks_sort_the_sample_once(self, monkeypatch):
        # the exact and limit checks of one sample share its sorted values;
        # a _replace copy with new values is sorted afresh
        sort = np.sort
        sorts = []

        def counting_sort(a, *args, **kwargs):
            sorts.append(len(a))
            return sort(a, *args, **kwargs)

        monkeypatch.setattr(np, "sort", counting_sort)
        sample = simulate_block_maxima(norming_constants(100.0, 2.0), 2000, 7)
        assert sorts == []  # simulating does not sort
        exact = ks_check(sample, "exact", alpha=0.001)
        limit = ks_check(sample, "limit", alpha=0.001)
        assert sorts == [2000]
        assert exact.statistic.hex() == single_pass_statistic(sample, "exact").hex()
        assert limit.statistic.hex() == single_pass_statistic(sample, "limit").hex()
        assert not sample.sorted_values.flags.writeable
        sorts.clear()
        shifted = sample._replace(values=sample.values + 0.5)
        assert type(shifted) is SimSample
        moved = ks_check(shifted, "limit", alpha=0.001)
        assert sorts == [2000]
        assert moved.statistic != limit.statistic
        assert np.array_equal(shifted.sorted_values, sample.sorted_values + 0.5)

    def test_sample_keeps_its_tuple_behaviour(self):
        sample = self.perfect_gumbel_sample(1000)
        assert SimSample._fields == ("nc", "reps", "seed", "values")
        nc, reps, seed, values = sample
        assert (reps, seed) == (1000, 0) and values is sample.values
        assert list(sample._asdict()) == list(SimSample._fields)
        assert repr(sample).startswith("SimSample(nc=")

    @pytest.mark.parametrize("reps", [3000, 1000])
    def test_reps_must_match_the_values(self, reps):
        # more reps than values once indexed past the end; fewer once gave
        # D over the smallest ``reps`` values only
        sample = self.perfect_gumbel_sample(2000)._replace(reps=reps)
        with pytest.raises(DomainError, match="one value per replicate"):
            ks_check(sample, "limit", alpha=0.1)

    def test_values_must_be_one_dimensional(self):
        sample = self.perfect_gumbel_sample(2000)
        flat = sample._replace(values=sample.values.reshape(2000, 1))
        with pytest.raises(DomainError, match="one value per replicate"):
            ks_check(flat, "limit", alpha=0.1)

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


def single_pass_statistic(sample: SimSample, reference: str) -> float:
    """The KS statistic as one pass over the whole sorted sample."""
    sv = np.sort(sample.values)
    n = sample.reps
    if reference == "exact":
        ref = exact_cdf_values(sample.nc, sv)
    else:
        ref = np.exp(-np.exp(-sv))
    upper = np.arange(1, n + 1) / n - ref
    lower = ref - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


class TestKsChunks:
    @pytest.fixture(scope="class")
    def sample(self):
        return simulate_block_maxima(norming_constants(10.0, 1.0), 12000, 7)

    @staticmethod
    def record_reference_calls(monkeypatch):
        """Patch the reference CDF to log (points, thread) of every call."""
        reference_cdf = powex.montecarlo._reference_cdf
        seen = []

        def recording_reference_cdf(sample, reference, xs):
            seen.append((len(xs), threading.current_thread()))
            return reference_cdf(sample, reference, xs)

        monkeypatch.setattr(powex.montecarlo, "_reference_cdf", recording_reference_cdf)
        return seen

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.parametrize("chunk", [3000, 4096, 777, 20000])
    @pytest.mark.parametrize("reference", ["exact", "limit"])
    def test_bits_do_not_depend_on_threads_or_chunks(
            self, monkeypatch, sample, workers, chunk, reference):
        # blocks between knots that divide reps, that do not, and one
        # larger than reps; the CPU count is forced past the host's cores,
        # and the check still starts no thread
        monkeypatch.setattr(powex.montecarlo, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(powex.montecarlo, "_KS_STRIDE", chunk)
        seen = self.record_reference_calls(monkeypatch)
        res = ks_check(sample, reference, alpha=0.001)
        want = single_pass_statistic(sample, reference)
        assert res.statistic.hex() == want.hex()
        knots = -(-(sample.reps - 1) // chunk) + 1
        assert seen[0][0] == knots and len(seen) <= 2
        assert sum(k for k, _ in seen) <= sample.reps
        assert {thread for _, thread in seen} == {threading.current_thread()}

    @pytest.fixture(scope="class")
    def long_sample(self):
        return simulate_block_maxima(norming_constants(10.0, 1.0), 20000, 7)

    @pytest.mark.parametrize("stride", [2, 3, 16, 20001])
    @pytest.mark.parametrize("reps", [1000, 1001, 1023, 1024, 1025, 4097, 20000])
    @pytest.mark.parametrize("kind", ["on-law", "off-law", "ties"])
    @pytest.mark.parametrize("reference", ["exact", "limit"])
    def test_bits_match_one_pass(self, monkeypatch, long_sample, stride, reps, kind,
                                 reference):
        # strides that leave one or two points between knots, a short
        # stride and one block for everything; reps on either side of a
        # power of two, so the last block is short, full or one point long.
        # Off the law (a t = 1 sample against the t = 2 law) D is large;
        # rounded values put ties at and between knots
        monkeypatch.setattr(powex.montecarlo, "_KS_STRIDE", stride)
        sample = long_sample._replace(reps=reps, values=long_sample.values[:reps])
        if kind == "off-law":
            sample = sample._replace(nc=norming_constants(10.0, 2.0))
        elif kind == "ties":
            sample = sample._replace(values=np.round(sample.values, 2))
        res = ks_check(sample, reference, alpha=0.001)
        assert res.statistic.hex() == single_pass_statistic(sample, reference).hex()
        if kind == "off-law" and reference == "exact":
            assert res.statistic > 0.3

    @pytest.mark.parametrize("stride", [2, 16, 32])
    @pytest.mark.parametrize("reps", [1000, 1001, 1023, 1024, 1025, 4097])
    @pytest.mark.parametrize("kind", ["every-block", "no-block"])
    def test_bits_match_one_pass_when_every_or_no_block_is_hit(
            self, monkeypatch, stride, reps, kind):
        # a sample at the Gumbel quantiles (i + 1/2)/reps has the gap 1/(2 reps)
        # at every point, so every block can hold D and each point is
        # evaluated once; a constant sample has D = 1/2 at the first and the
        # last point, both knots, so no block is evaluated
        monkeypatch.setattr(powex.montecarlo, "_KS_STRIDE", stride)
        if kind == "every-block":
            sample = TestKsCheck.perfect_gumbel_sample(reps)
        else:
            sample = TestKsCheck.perfect_gumbel_sample(reps)._replace(
                values=np.full(reps, -math.log(math.log(2.0))))
        seen = self.record_reference_calls(monkeypatch)
        res = ks_check(sample, "limit", alpha=0.001)
        assert res.statistic.hex() == single_pass_statistic(sample, "limit").hex()
        if kind == "every-block":
            assert len(seen) == 2 and sum(k for k, _ in seen) == reps
        else:
            assert len(seen) == 1 and res.statistic == 0.5

    def test_reference_sees_few_points(self, monkeypatch):
        # the work the pruning saves, on the largest sample of an
        # mc_crosscheck op
        sample = simulate_block_maxima(norming_constants(10.0, 2.0), 200000, 7)
        seen = self.record_reference_calls(monkeypatch)
        for reference in ("exact", "limit"):
            seen.clear()
            ks_check(sample, reference, alpha=1e-6)
            assert sum(k for k, _ in seen) < 0.15 * sample.reps

    @pytest.mark.parametrize("reference", ["exact", "limit"])
    def test_nan_in_the_last_chunk(self, monkeypatch, sample, reference):
        # the sort puts a NaN last, at the last knot: D is NaN against
        # either reference, as in one pass, and no block is evaluated
        values = sample.values.copy()
        values[5] = np.nan
        with_nan = sample._replace(values=values)
        seen = self.record_reference_calls(monkeypatch)
        res = ks_check(with_nan, reference, alpha=0.001)
        assert math.isnan(res.statistic) and not res.passed
        assert res.statistic.hex() == single_pass_statistic(with_nan, reference).hex()
        assert len(seen) == 1

    def test_verify_sample_bits(self):
        # the sample of the monte-carlo-ks verify check: D as frozen before
        # the KS check was chunked
        sample = simulate_block_maxima(norming_constants(100.0, 2.0), 10 ** 6, 42)
        assert ks_check(sample, "exact", alpha=0.001).statistic.hex() == \
            "0x1.1282d39783f80p-11"
        assert ks_check(sample, "limit", alpha=0.001).statistic.hex() == \
            "0x1.383b91f371820p-5"

    @pytest.mark.parametrize("error", [RuntimeError("reference failed"), KeyboardInterrupt()])
    def test_failure_stops_every_worker(self, monkeypatch, sample, error):
        # the check runs on the calling thread even with two CPUs; the
        # second reference call (the blocks after the knots) raises, which
        # must reach the caller as the same object, with no call after it
        monkeypatch.setattr(powex.montecarlo, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(powex.montecarlo, "_KS_STRIDE", 10)
        reference_cdf = powex.montecarlo._reference_cdf
        calls = itertools.count(1)
        made = []

        def failing_reference_cdf(sample, reference, xs):
            call = next(calls)
            made.append(call)
            if call == 2:
                raise error
            return reference_cdf(sample, reference, xs)

        monkeypatch.setattr(powex.montecarlo, "_reference_cdf", failing_reference_cdf)
        with pytest.raises(type(error)) as excinfo:
            ks_check(sample, "limit", alpha=0.001)
        assert excinfo.value is error
        assert made == [1, 2]
