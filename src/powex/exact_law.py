"""Exact finite-n distribution and density of the normalized powered maximum.

For X_1..X_n i.i.d. standard normal, M_n their maximum and g(x) =
(c*x + d)^(1/t), the normalized statistic (|M_n|^t - d)/c has distribution

    F_n(x) = Phi^n(g(x)) - (1 - Phi(g(x)))^n

and density n * phi(g) * g'(x) * (Phi^{n-1}(g) + (1 - Phi(g))^{n-1}).
Everything is evaluated in log-domain: Phi^n at n = 1e12 is meaningless in
naive arithmetic. This module is the ground-truth oracle for all expansions.

log F_n = n*log(Phi) + log(1 - e^delta) with delta = n*log((1 - Phi)/Phi).
One log_ndtr per point gives log Phi, and log(1 - Phi) = log(-expm1(log Phi))
keeps full relative accuracy since Phi >= 1/2. In the bulk the last term is
log1p(-e^delta). Near x_min = -d/c both logs tend to -ln 2 and cancel, so
where delta > -ln 2 it is -2n*atanh(erf(g/sqrt(2))) and the last term
log(-expm1(delta)) (Maechler, "Accurately computing log(1 - exp(-|a|))",
2012); F_n = 0 where g underflows. Where delta <= -746 the last term is
left out: e^delta is exactly 0 (it underflows below about -745.13), so
log1p(-e^delta) adds -0.0 and n*log(Phi) already has the bits, and
numpy's exp is about 4x slower on an underflowing argument. A NaN delta
comes only from a NaN g, where n*log(Phi) is NaN already.

Most points never need delta. With y = log Phi, 1 - Phi = 1 - e^y <= -y,
so delta <= n*(log(-y) - y), and log(-y) - y falls as y rises towards 0.
So when n*(log(-y) - y) <= -746 at the least y of the input (a NaN y fails
the test), every point is in the n*log(Phi) branch and the kernel returns
it without the expm1/log pass that forms delta. This cannot move a bit.
The bound passes only where y > -0.571 at every point, so Phi > 0.56 and
the full path's two logs do not cancel: its delta is within a few ulps of
the exact one. Away from y = -0.567, its one zero, the bound is within a
few ulps too, so each point it settles has a computed delta below -745.13,
where the full path adds exactly -0.0 as well. Near that zero the bound
can pass only once n > 7e4, and every delta is below -0.25n there.

Where 1 - Phi(g) is subnormal (below 2.2e-308, g > 37.5), log Phi =
log1p(-(1 - Phi)) is subnormal too and has lost bits, and from g = 37.68 on
log_ndtr returns 0, which made F_n = 1 at n = 1e300. There (delta is below
-1400 for n >= 2, so the n*log(Phi) branch) n*log(Phi) is taken as
-exp(ln n + log(1 - Phi)) from log_ndtr(-g), accurate to about 2e-13
relative; the density's (n - 1)*log(Phi) likewise. No other point moves.

The density's two terms differ in log by (n - 1)*log((1 - Phi)/Phi), which
is delta with n - 1 for n, so the same bound at the point's own y settles
it: where (n - 1)*(log(-y) - y) <= -746 the computed difference is below
-745.13, e^diff is exactly 0, and _logaddexp would return log Phi^(n-1)
unchanged. So exact_pdf takes log_ndtr(-g) only where the bound fails: on
every point of the perfbench law grid from n = 1e3 on it makes one call,
next to x_min two. The exception is the subnormal band g in [37.5, 38.5]
(beyond it log(1 - Phi) < -745.13): there y has lost its bits, or is 0,
and the bound can pass while e^diff is a subnormal, for n < 2.06 only. Both
log Phi^(n-1) and the full sum are then below 1e-307 in magnitude, and
they are added to a log density near -g^2/2 < -700, which they cannot
move. No output bit moves.

One kernel serves the scalar API, on Python floats through ``math``, and
the array path, through numpy. On arrays each branch runs on the whole
array when its condition holds at every point, and is skipped when it holds
at none; only a mixed condition gathers and scatters the points it selects.
``exact_cdf_values`` runs every point through the kernel; it keeps the
results on the support in one masked exp, or, when every point is on the
support, in one plain exp.

The scalar density adds its two log terms with ``_logaddexp``, numpy's
``npy_logaddexp`` written out on the same libm ``exp``/``log1p`` calls, so
it has the bits of ``np.logaddexp`` without a numpy scalar per point.
"""
from __future__ import annotations

import math
import sys

import numpy as np
from scipy.special import erf, log_ndtr

from .norming import NormingConstants, _support_point, transformed_quantile
from .special_functions import LOG_2PI, Probability, _tuple_new

_LN2 = math.log(2.0)
# Below this delta, e^delta is 0 and log1p(-e^delta) is -0.0
_DEAD_DELTA = -746.0
# Above -_TINY, log Phi = -(1 - Phi) is subnormal or 0
_TINY = sys.float_info.min


def _logaddexp(a: float, b: float) -> float:
    """log(e^a + e^b), step for step numpy's npy_logaddexp."""
    if a == b:  # infinities of the same sign
        return a + _LN2
    diff = a - b
    if diff > 0.0:
        return a + math.log1p(math.exp(-diff))
    if diff <= 0.0:
        return b + math.log1p(math.exp(diff))
    return diff  # a NaN argument


# The kernel's arithmetic: Python floats through math, or numpy arrays
class _ScalarOps:
    exp, expm1, log1p, atanh, erf = math.exp, math.expm1, math.log1p, math.atanh, math.erf
    log_ndtr, native = log_ndtr, float  # log_ndtr returns numpy scalars
    log = staticmethod(lambda v: math.log(v) if v > 0.0 else -math.inf)
    least = greatest = staticmethod(lambda v: v)

    @classmethod
    def branch(cls, cond, if_true, if_false, *args):
        return (if_true if cond else if_false)(cls, *args)


class _ArrayOps:
    exp, expm1, log1p, atanh, log = np.exp, np.expm1, np.log1p, np.arctanh, np.log
    erf, log_ndtr, native = erf, log_ndtr, np.asarray
    # as Python floats; least propagates a NaN, greatest skips it
    least = staticmethod(lambda v: float(v.min(initial=0.0)))
    greatest = staticmethod(lambda v: float(np.fmax.reduce(v, axis=None, initial=-math.inf)))

    @classmethod
    def branch(cls, cond, if_true, if_false, *args):
        if cond.all():
            return if_true(cls, *args)
        out = if_false(cls, *args)
        if cond.any():
            out[cond] = if_true(cls, *(a[cond] if np.ndim(a) else a for a in args))
        return out


def _log_cdf(ops, n: float, g):
    """log F_n at transformed quantiles g > 0, in the arithmetic of ``ops``."""
    log_phi = ops.native(ops.log_ndtr(g))
    # 1 - Phi <= -log Phi bounds delta by n*(log(-y) - y), which falls as y
    # rises: at the least y (NaN if any point is) it settles every point
    y = ops.least(log_phi)
    if n * (_ScalarOps.log(-y) - y) <= _DEAD_DELTA:
        return _log_cdf_power(ops, n, g, log_phi)
    # log(1 - Phi) is -inf once log Phi underflows to 0 (g > 37.68)
    delta = n * (ops.log(-ops.expm1(log_phi)) - log_phi)
    return ops.branch(delta > -_LN2, _log_cdf_boundary, _log_cdf_bulk, n, g, log_phi, delta)


def _log_cdf_bulk(ops, n, g, log_phi, delta):
    return ops.branch(delta > _DEAD_DELTA, _log_cdf_tail, _log_cdf_power, n, g, log_phi, delta)


def _log_cdf_tail(ops, n, g, log_phi, delta):
    return n * log_phi + ops.log1p(-ops.exp(delta))


def _log_cdf_power(ops, n, g, log_phi, delta=None):
    # a subnormal 1 - Phi (delta < -1400 there) leaves log Phi without its bits
    if ops.greatest(log_phi) > -_TINY:
        return ops.branch(log_phi > -_TINY, _log_cdf_subnormal, _log_cdf_normal, n, g, log_phi)
    return n * log_phi


def _log_cdf_normal(ops, n, g, log_phi):
    return n * log_phi


def _log_cdf_subnormal(ops, n, g, log_phi):
    # n*log Phi = -n*(1 - Phi), with log(1 - Phi) in full precision
    return -ops.exp(math.log(n) + ops.native(ops.log_ndtr(-g)))


def _log_cdf_boundary(ops, n, g, log_phi, delta):
    # delta = 0 only where g underflows; log 0 = -inf there
    delta = -2.0 * n * ops.atanh(ops.erf(g / math.sqrt(2.0)))
    return n * log_phi + ops.log(-ops.expm1(delta))


def exact_cdf(nc: NormingConstants, x: float) -> Probability:
    """F_n(x) = Phi^n(g) - (1 - Phi(g))^n, both factors in log-domain.

    Each exponential is accurate to well under 1e-13 relative for n up to
    1e14, up to the support boundary. Requires c*x + d > 0.
    """
    _, _, g = _support_point(nc, x)
    log_cdf = _log_cdf(_ScalarOps, nc.n, g)
    return _tuple_new(Probability, (math.exp(log_cdf), log_cdf, False, None))


def exact_pdf(nc: NormingConstants, x: float) -> float:
    """Exact density n * phi(g) * g' * (Phi^{n-1}(g) + (1 - Phi(g))^{n-1}).

    The second factor carries a plus sign: it is what direct differentiation
    of F_n yields, and the test suite checks it against the numeric
    derivative where the term is non-negligible. Requires c*x + d > 0.
    """
    g, dg_dx = transformed_quantile(nc, x)
    n = nc.n
    m = n - 1.0
    log_phi = float(log_ndtr(g))
    # log Phi^(n-1), as _log_cdf_power takes log Phi^n
    log_pair = m * log_phi if log_phi <= -_TINY else _log_cdf_subnormal(_ScalarOps, m, g, log_phi)
    # _log_cdf's bound on (n - 1)*log((1 - Phi)/Phi): at or below -746 the
    # survival term adds nothing (the module docstring)
    if m * (_ScalarOps.log(-log_phi) - log_phi) > _DEAD_DELTA:
        log_pair = _logaddexp(log_pair, m * float(log_ndtr(-g)))
    # g' underflows to 0 next to the boundary when t is small
    log_pdf = math.log(n) + _ScalarOps.log(dg_dx) - 0.5 * g * g - 0.5 * LOG_2PI + log_pair
    return math.exp(log_pdf) if log_pdf > -746.0 else 0.0


def exact_cdf_values(nc: NormingConstants, xs: np.ndarray) -> np.ndarray:
    """Vectorized F_n over an array of points, for empirical comparisons.

    Points with c*x + d <= 0 get 0.0: the statistic (|M_n|^t - d)/c cannot
    fall below -d/c, so the true distribution function vanishes there. This
    extension (rather than an error) is what a reference CDF needs. NaN
    points get NaN.
    """
    xs = np.asarray(xs, dtype=float)
    # points off the support give nan/inf in the kernel and are discarded;
    # on it, log 0 = -inf is overwritten by a branch, or F = 0; c*x overflows
    # to -inf (off the support) or inf (F = 1)
    with np.errstate(all="ignore"):
        arg = nc.c * xs + nc.d
        log_cdf = _log_cdf(_ArrayOps, nc.n, arg ** (1.0 / nc.t))
        if arg.min(initial=1.0) > 0.0:  # every point on the support, none NaN
            return np.exp(log_cdf, out=np.empty(xs.shape))
        # a NaN point goes through the kernel and stays NaN
        return np.exp(log_cdf, out=np.zeros(xs.shape), where=~(arg <= 0.0))
