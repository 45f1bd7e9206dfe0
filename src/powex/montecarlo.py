"""Monte Carlo cross-check: sample Gaussian block maxima, apply the power
transform and normalization, and test the empirical law against the exact
law and the Gumbel limit.

Block maxima come from a counter-based (Philox) uniform stream: each
replicate takes the maximum of its n uniforms and maps it through the
inverse normal CDF, Phi^{-1}(max U) = max Phi^{-1}(U), so there is one
inverse-normal call per replicate rather than one per draw. A fixed
(n, t, reps, seed) reproduces byte-identical samples no matter how
generation is chunked. Simulation targets moderate n; the exact law covers
huge n.

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
from dataclasses import dataclass
from typing import NamedTuple

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

# Replicates per generation chunk, sized so a chunk's one (k, n) float64
# array of uniforms stays around 1e6 draws (8 MB). Chunking is a memory knob
# only: values are identical for any chunk size.
_CHUNK_TARGET_DRAWS = 10 ** 6


@dataclass(frozen=True)
class SimSample:
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
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    chunk_reps = max(1, _CHUNK_TARGET_DRAWS // n)
    out = np.empty(reps)
    pos = 0
    while pos < reps:
        k = min(chunk_reps, reps - pos)
        z = ndtri(rng.random((k, n)).max(axis=1))
        out[pos:pos + k] = (np.abs(z) ** nc.t - nc.d) / nc.c
        pos += k
    return SimSample(nc=nc, reps=reps, seed=int(seed), values=out)


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
    Needs reps >= 1000 for the band to mean anything.
    """
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    if sample.reps < 1000:
        raise DomainError(f"ks_check needs reps >= 1000, got {sample.reps}")
    sv = np.sort(sample.values)
    ref = _reference_cdf(sample, reference, sv)
    n = sample.reps
    upper = np.arange(1, n + 1) / n - ref
    lower = ref - np.arange(0, n) / n
    d = float(max(upper.max(), lower.max()))
    bound = math.sqrt(math.log(2.0 / alpha) / (2.0 * n))
    return KSResult(statistic=d, bound=bound, passed=d <= bound)


def empirical_cdf(sample: SimSample, xs: np.ndarray) -> np.ndarray:
    """Empirical distribution of the sample at the given points."""
    sv = np.sort(sample.values)
    return np.searchsorted(sv, np.asarray(xs, dtype=float), side="right") / sample.reps
