"""Monte Carlo cross-check: sample Gaussian block maxima, apply the power
transform and normalization, and test the empirical law against the exact
law and the Gumbel limit.

Block maxima come from a counter-based (Philox) stream of 64-bit words;
numpy's uniform double from a word w is (w >> 11) * 2**-53, which is
monotone in w. So each replicate takes the maximum of its n raw words, and
only that maximum becomes a double and goes through the inverse normal CDF,
Phi^{-1}(max U) = max Phi^{-1}(U): one conversion and one inverse-normal
call per replicate rather than one per draw, with the bits of transforming
every uniform. The sample is generated in chunks of replicates. Philox is
counter-based, so each chunk jumps straight to its own position in the
stream and fills its slice of the output in place; chunks run on up to
min(usable CPUs, chunks) threads (numpy and scipy release the GIL), each
chunk's words about 1 MB, small enough to stay in a core's L2 cache. A
fixed (n, t, reps, seed) reproduces byte-identical samples for any chunk
size and any thread count. Simulation targets moderate n; the exact law
covers huge n.

The KS check sorts the sample once and evaluates the reference CDF F only
where the KS gap can reach its maximum D. It first takes F at knots, every
``_KS_STRIDE``-th sorted point and the last one. Because F is monotone, a
point strictly between knots a < b has gaps at most
reach = max(b/n - F(x_(a)), F(x_(b)) - (a+1)/n), and a block whose reach,
plus ``_KS_MARGIN``, stays below the largest gap at the knots cannot hold
D. Only the other blocks are evaluated point by point; on the samples of a
typical run that is a few percent of the points. D has the bits of one
pass over every point: the gaps are the same float expressions, and float
subtraction and division are monotone, so a skipped point's computed gap is
at most its block's computed reach.

The identity max Phi^{-1}(U) = Phi^{-1}(max U) holds exactly only where
``scipy.special.ndtri`` is monotone in floating point. scipy 1.17's ndtri
is not, at the ulp level, just around its branch point u = 1 - e^{-2}:
of the 1e7 steps between consecutive doubles just below that point about
1.6% go down, and about 0.003% of the 1e7 just above, by at most 4 ulps
each. No such step was found within 1e7 ulps of 0.3, 0.6, 0.7, 0.95, 0.99,
0.999 or 0.99999. Taking the maximum first therefore differs from
transforming every draw only when a replicate's two largest uniforms lie
within a few ulps of each other in that band.
"""
from __future__ import annotations

import math
import os
import threading
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import ndtri

from .errors import DomainError, ResourceError
from .exact_law import exact_cdf_values
from .norming import NormingConstants

# Hard budget on total uniform draws per simulate call
MAX_TOTAL_DRAWS = 10 ** 10

# Hard budget on replicates per simulate call. The output holds one float64
# per replicate, so this caps it at 80 MB; a small n can stay inside the
# draw budget and still ask for far more (n=2, reps=5e9 would be 40 GB).
MAX_REPS = 10 ** 7

# Words per chunk: each of W threads fills chunks of _CHUNK_TARGET_DRAWS // n
# replicates, whose (k, n) uint64 words, about 1 MB, stay in L2 while the
# row max reads them n times; each thread keeps one (k,) uint64 buffer for
# the row maxima. An n above it is one replicate per chunk, whose words are
# drawn and reduced _CHUNK_TARGET_DRAWS at a time, so no chunk holds more
# than about 1 MB of words. A chunk is addressed by its Philox position, so
# chunk size and thread count are memory and speed knobs only: values are
# identical for any of them.
_CHUNK_TARGET_DRAWS = 2 ** 17

# Knot spacing of ks_check; D is the same for any stride. At 32 the
# reference sees 3-5% of the points of a 2e5-replicate sample (6-7% at 16),
# and 32 was the fastest fixed stride at 2e5 and 1e6 replicates, where the
# time goes; strides growing with reps were no faster (BENCH_9.json).
_KS_STRIDE = 32

# Slack on the block bound for an ulp-level decrease of the float reference
# CDF; both references are accurate to about 1e-13, and none was seen to
# decrease between sorted points.
_KS_MARGIN = 2.0 ** -30

# Above this block size the row max is one max(axis=1), at or below it a
# column loop of np.maximum; both give the same bits. On the uint64 words of
# one chunk (2-core x86-64 host) the loop wins up to about n = 40: 0.17 vs
# 0.47 ms at n = 16, 0.14 vs 0.35 at 17, 0.21 vs 0.23 at 32, 0.22 vs 0.16
# at 48. The switch is at 32, below the crossover; the worker-count tests
# pin n = 32 and 33 on either side of it.
_COLUMN_MAX_N = 32


class SimSample(NamedTuple):
    """Seeded sample of normalized powered block maxima, length ``reps``."""

    nc: NormingConstants
    reps: int
    seed: int
    values: np.ndarray


class KSResult(NamedTuple):
    statistic: float
    bound: float
    passed: bool


def simulate_block_maxima(nc: NormingConstants, reps: int, seed: int) -> SimSample:
    """Draw ``reps`` replicates of (|max of n normals|^t - d)/c.

    Each replicate's block maximum is Phi^{-1}(max U) over its n Philox
    uniforms, with the uniforms taken in stream order, n per replicate (see
    the module docstring for the ulp-level caveat on ndtri's monotonicity).

    n must be integer-valued here (a block size); reps >= 1; seed is a
    64-bit unsigned key for the counter-based generator. Requests beyond
    ``MAX_TOTAL_DRAWS`` total draws or ``MAX_REPS`` replicates are refused
    with ResourceError before anything is allocated.
    """
    n_float = nc.n
    if n_float != int(n_float):
        raise DomainError(f"simulation needs an integer block size, got n={n_float!r}")
    n = int(n_float)
    reps = int(reps)
    if reps < 1:
        raise DomainError(f"reps must be >= 1, got {reps}")
    if not (0 <= int(seed) < 2 ** 64):
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    if reps > MAX_REPS:
        raise ResourceError(
            f"reps = {reps:.3g} exceeds the {MAX_REPS:.0e} replicate budget"
        )
    if reps * n > MAX_TOTAL_DRAWS:
        raise ResourceError(
            f"reps*n = {reps * n:.3g} exceeds the {MAX_TOTAL_DRAWS:.0e} draw budget"
        )
    seed = int(seed)
    chunk = max(1, _CHUNK_TARGET_DRAWS // n)
    workers = min(_usable_cpus(), -(-reps // chunk))
    out = np.empty(reps)
    buffers = [np.empty(min(chunk, reps), np.uint64) for _ in range(workers)]

    def fill(w: int, pos: int, stop: int) -> None:
        _fill_chunk(out[pos:stop], buffers[w], pos * n, seed, nc)

    _run_chunks(fill, reps, chunk, workers)
    return SimSample(nc=nc, reps=reps, seed=seed, values=out)


def _run_chunks(fill: Callable[[int, int, int], None], total: int, chunk: int,
                workers: int) -> None:
    """Call ``fill(w, pos, stop)`` once for each chunk [pos, stop) of
    range(total), on ``workers`` threads.

    Worker w takes chunks w, w + workers, ...; the calling thread is worker
    0, and with one worker no thread is started. A failure or interrupt stops
    every worker at its next chunk, and the first exception is re-raised as
    the same object.
    """
    halt = threading.Event()
    errors: list[BaseException] = []

    def work(w: int) -> None:
        try:
            for pos in range(w * chunk, total, workers * chunk):
                if halt.is_set():
                    return
                fill(w, pos, min(pos + chunk, total))
        except BaseException as exc:
            errors.append(exc)
            halt.set()

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        work(0)
        for thread in threads:
            thread.join()
    except BaseException:  # interrupted while joining
        halt.set()
        for thread in threads:
            thread.join()
        raise
    if errors:
        raise errors[0]


def _usable_cpus() -> int:
    """CPUs this process may run on: the most generation threads worth starting."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fill_chunk(dst: np.ndarray, buffer: np.ndarray, first: int, seed: int,
                nc: NormingConstants) -> None:
    """Fill ``dst`` with the replicates whose uniforms start at draw ``first``
    of the seed's Philox stream, in place, using ``buffer`` for the row max
    of the raw words."""
    k, n = len(dst), int(nc.n)
    bit_generator = np.random.Philox(key=seed)
    bit_generator.advance(first // 4)  # one counter step yields four words
    bit_generator.random_raw(first % 4, output=False)  # the words before ``first``
    top = buffer[:k]
    if n > _CHUNK_TARGET_DRAWS:  # one replicate (k = 1): its words a chunk at a time
        top[0] = max(bit_generator.random_raw(min(_CHUNK_TARGET_DRAWS, n - done)).max()
                     for done in range(0, n, _CHUNK_TARGET_DRAWS))
    elif n <= _COLUMN_MAX_N:
        words = bit_generator.random_raw(k * n).reshape(k, n)
        np.copyto(top, words[:, 0])
        for j in range(1, n):
            np.maximum(top, words[:, j], out=top)
    else:
        bit_generator.random_raw(k * n).reshape(k, n).max(axis=1, out=top)
    # numpy's Philox double is (word >> 11) * 2**-53, monotone in the word
    np.right_shift(top, 11, out=top)
    np.multiply(top, 2.0 ** -53, out=dst)
    ndtri(dst, out=dst)
    np.abs(dst, out=dst)
    with np.errstate(over="ignore"):  # refused below
        dst **= nc.t
    dst -= nc.d
    dst /= nc.c
    if not np.isfinite(dst).all():
        raise DomainError(
            f"simulated (|M_n|^t - d)/c overflows at n={n}, t={nc.t!r}"
        )


def _reference_cdf(sample: SimSample, reference: str, xs: np.ndarray) -> np.ndarray:
    if reference == "exact":
        return exact_cdf_values(sample.nc, xs)
    if reference == "limit":
        return np.exp(-np.exp(-xs))
    raise DomainError(f"reference must be 'exact' or 'limit', got {reference!r}")


def ks_check(sample: SimSample, reference: str, alpha: float) -> KSResult:
    """Kolmogorov-Smirnov distance of the sample against a reference CDF,
    with the distribution-free DKW band sqrt(ln(2/alpha)/(2*reps)).

    ``reference`` is 'exact' (the finite-n law) or 'limit' (Gumbel).
    Needs reps >= 1000 for the band to mean anything. D is the largest of
    the gaps (i+1)/n - F(x_(i)) and F(x_(i)) - i/n over the sorted sample,
    with the bits of one pass over every point, but F is evaluated only at
    the knots and in the blocks between them whose bound can reach D (see
    the module docstring). A NaN in the sample gives D = NaN.
    """
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    if sample.reps < 1000:
        raise DomainError(f"ks_check needs reps >= 1000, got {sample.reps}")
    if np.shape(sample.values) != (sample.reps,):
        raise DomainError(f"ks_check needs one value per replicate: reps={sample.reps}, "
                          f"values of shape {np.shape(sample.values)}")
    sv = np.sort(sample.values)
    n = sample.reps
    knots = np.append(np.arange(0, n - 1, _KS_STRIDE), n - 1)
    f = _reference_cdf(sample, reference, sv[knots])
    d = _largest_gap(knots, f, n)
    if not math.isnan(d):  # the sort puts a NaN last, at a knot
        a, b = knots[:-1], knots[1:]
        reach = np.maximum(b / n - f[:-1], f[1:] - (a + 1) / n)
        inside = np.repeat(reach + _KS_MARGIN >= d, np.diff(knots))
        inside[a] = False  # the knots themselves are done
        points = np.flatnonzero(inside)
        if len(points):
            d = max(d, _largest_gap(points, _reference_cdf(sample, reference, sv[points]), n))
    bound = math.sqrt(math.log(2.0 / alpha) / (2.0 * n))
    return KSResult(statistic=d, bound=bound, passed=d <= bound)


def _largest_gap(points: np.ndarray, f: np.ndarray, n: int) -> float:
    """The larger one-sided KS gap at sorted positions ``points``, F = ``f``."""
    return float(max(((points + 1) / n - f).max(), (f - points / n).max()))
