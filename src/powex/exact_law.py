"""Exact finite-n distribution and density of the normalized powered maximum.

For X_1..X_n i.i.d. standard normal, M_n their maximum and g(x) =
(c*x + d)^(1/t), the normalized statistic (|M_n|^t - d)/c has distribution

    F_n(x) = Phi^n(g(x)) - (1 - Phi(g(x)))^n

and density n * phi(g) * g'(x) * (Phi^{n-1}(g) + (1 - Phi(g))^{n-1}).
Everything is evaluated in log-domain: Phi^n at n = 1e12 is meaningless in
naive arithmetic. This module is the ground-truth oracle for all expansions.

log F_n = n*log(Phi) + log(1 - e^delta) with delta = n*log((1 - Phi)/Phi).
One log Phi per point: scipy's log_ndtr on a scalar, and on an array
log1p(-ndtr(-g)) in one buffer, which has log_ndtr's bits wherever g >= -1
(with scipy's log1p; numpy's differs in the last bits) and is faster from
about 500 points on. log(1 - Phi) = log(-expm1(log Phi)) keeps full
relative accuracy since Phi >= 1/2. The kernel forms n*log(Phi) and
patches three sets of points:

- the subnormal tail, where 1 - Phi(g) is below 2.2e-308 (g > 37.5). There
  log Phi = log1p(-(1 - Phi)) is subnormal too and has lost bits, and from
  g = 37.68 on log_ndtr returns 0, which would give F_n = 1 at n = 1e300; delta
  is below -1400. n*log(Phi) is taken as -exp(ln n + log(1 - Phi)) from
  log_ndtr(-g), accurate to about 2e-13 relative; the density's
  (n - 1)*log(Phi) likewise.
- the tail, where delta <= -ln 2: log1p(-e^delta) is added. Where
  delta <= -746 (the subnormal tail too) e^delta is exactly 0, as it
  underflows below about -745.13, so the term is -0.0: no bit moves.
- the boundary next to x_min = -d/c, where delta > -ln 2. Both logs tend to
  -ln 2 and cancel there, so delta is -2n*atanh(erf(g/sqrt(2))) and the
  added term log(-expm1(delta)) (Maechler, "Accurately computing
  log(1 - exp(-|a|))", 2012); F_n = 0 where g underflows.

A NaN delta comes only from a NaN g, where n*log(Phi) is NaN already and
neither the tail nor the boundary patch applies.

Most points never need delta. With y = log Phi, 1 - Phi = 1 - e^y <= -y,
so delta <= n*(log(-y) - y), and log(-y) - y falls as y rises towards 0.
So when n*(log(-y) - y) <= -746 at the least y of the input (a NaN y fails
the test), every point's tail term is -0.0, none is on the boundary, and the
kernel returns before the expm1/log pass that forms delta. This cannot move a bit.
The bound passes only where y > -0.571 at every point, so Phi > 0.56 and
the full path's two logs do not cancel: its delta is within a few ulps of
the exact one. Away from y = -0.567, its one zero, the bound is within a
few ulps too, so each point it settles has a computed delta below -745.13,
where the full path adds exactly -0.0 as well. Near that zero the bound
can pass only once n > 7e4, and every delta is below -0.25n there.

The density adds its two terms in log as log Phi^(n-1) + log1p(e^diff),
diff = (n - 1)*(log(1 - Phi) - log Phi), with log(1 - Phi) from a second
log_ndtr. On the support log(1 - Phi) <= log Phi, so diff <= 0, and this is
the branch numpy's logaddexp takes, with its bits (a tie adds log1p(1) ==
ln 2 exactly). Where diff is below about -745.13, e^diff underflows to 0
and the term adds +0.0.

One kernel serves the scalar API, on Python floats through ``math``, and
the array path, through numpy; both arithmetics expose the same
operations, and the kernel calls only those. On arrays a patch runs on
the whole array when its condition holds at every point, and is skipped
when it holds at none; only a mixed condition gathers and scatters the
points it selects. ``exact_cdf_values`` clamps c*x + d at 0, so a point off
the support enters the kernel as g = 0, where the boundary patch gives
F = 0, and takes every F from its log in one exp. Its elementwise steps,
c*x + d, the clamp, the power and that exp, run in one buffer of the
input's shape.
"""
from __future__ import annotations

import math
import sys

import numpy as np
from scipy.special import erf, log1p, log_ndtr, ndtr

from .norming import NormingConstants, _support_point, transformed_quantile
from .special_functions import LOG_2PI, Probability, _tuple_new

_LN2 = math.log(2.0)
# Below this delta, e^delta is 0 and log1p(-e^delta) is -0.0
_DEAD_DELTA = -746.0
# Above -_TINY, log Phi = -(1 - Phi) is subnormal or 0
_TINY = sys.float_info.min


# The kernel's arithmetic: Python floats through math, or numpy arrays.
# log_phi takes log Phi(g) on the support g >= 0; log_ndtr takes log(1 - Phi)
class _ScalarOps:
    exp, expm1, log1p, atanh, erf = math.exp, math.expm1, math.log1p, math.atanh, math.erf
    # on a float one ufunc call beats two; log_ndtr returns numpy scalars
    log_phi, log_ndtr, native = log_ndtr, log_ndtr, float
    log = staticmethod(lambda v: math.log(v) if v > 0.0 else -math.inf)
    least = staticmethod(lambda v: v)
    # a staticmethod: a classmethod would build a bound method at every call
    patch = staticmethod(lambda out, cond, fix, *args: fix(_ScalarOps, *args) if cond else out)


class _ArrayOps:
    exp, expm1, log1p, atanh, log = np.exp, np.expm1, np.log1p, np.arctanh, np.log
    erf, log_ndtr, native = erf, log_ndtr, np.asarray
    least = staticmethod(lambda v: float(v.min(initial=0.0)))  # propagates a NaN

    @staticmethod
    def log_phi(g):
        """log Phi(g) as log1p(-ndtr(-g)), every step in one new buffer.

        Bit for bit scipy's log_ndtr(g) wherever g >= -1, NaN included. The
        buffer comes first, as negating a 0-d array returns a scalar; * -1.0
        keeps a NaN's sign bit, where np.negative would flip it.
        """
        out = np.empty(np.shape(g))
        np.negative(g, out=out)
        ndtr(out, out=out)
        out *= -1.0
        # scipy's log1p, imported above; numpy's, the class's, differs in the last bits
        return log1p(out, out=out)

    @classmethod
    def patch(cls, out, cond, fix, *args):
        """out, with fix(*args) at the points where cond holds."""
        if cond.all():
            return fix(cls, *args)
        if cond.any():
            out[cond] = fix(cls, *(a[cond] if np.ndim(a) else a for a in args))
        return out


def _log_cdf(ops, n: float, g):
    """log F_n at transformed quantiles g > 0, in the arithmetic of ``ops``."""
    log_phi = ops.native(ops.log_phi(g))
    out = n * log_phi
    # a subnormal 1 - Phi (delta < -1400 there) leaves log Phi without its bits
    out = ops.patch(out, log_phi > -_TINY, _log_cdf_subnormal, n, g)
    # 1 - Phi <= -log Phi bounds delta by n*(log(-y) - y), which falls as y
    # rises: at the least y (NaN if any point is) it settles every point
    y = ops.least(log_phi)
    if n * (_ScalarOps.log(-y) - y) <= _DEAD_DELTA:
        return out
    # log(1 - Phi) is -inf once log Phi underflows to 0 (g > 37.68)
    delta = n * (ops.log(-ops.expm1(log_phi)) - log_phi)
    # the tail, then the boundary next to x_min
    out = ops.patch(out, delta <= -_LN2, _log_cdf_tail, out, delta)
    return ops.patch(out, delta > -_LN2, _log_cdf_boundary, n, g, out)


def _log_cdf_subnormal(ops, n, g):
    # n*log Phi = -n*(1 - Phi), with log(1 - Phi) in full precision
    return -ops.exp(math.log(n) + ops.native(ops.log_ndtr(-g)))


def _log_cdf_tail(ops, power, delta):
    return power + ops.log1p(-ops.exp(delta))


def _log_cdf_boundary(ops, n, g, power):
    # delta = 0 only where g underflows; log 0 = -inf there
    delta = -2.0 * n * ops.atanh(ops.erf(g / math.sqrt(2.0)))
    return power + ops.log(-ops.expm1(delta))


def exact_cdf(nc: NormingConstants, x: float) -> Probability:
    """F_n(x) = Phi^n(g) - (1 - Phi(g))^n, both factors in log-domain.

    Worst relative error 6.2e-13 over 594 seeded points against an oracle
    at the same g (n from 2 to 1e14, t from 0.25 to 6, half next to x_min);
    it tracks |log F| times the error of log F, which carries scipy's
    log_ndtr error (up to about 10 ulp). Requires c*x + d > 0.
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
    # log Phi^(n-1), as _log_cdf takes log Phi^n
    log_pair = m * log_phi if log_phi <= -_TINY else _log_cdf_subnormal(_ScalarOps, m, g)
    # plus (1 - Phi)^(n-1), the lesser term on the support (the module docstring)
    log_pair += math.log1p(math.exp(m * float(log_ndtr(-g)) - log_pair))
    # g' underflows to 0 next to the boundary when t is small: log_pdf = -inf
    log_pdf = math.log(n) + _ScalarOps.log(dg_dx) - 0.5 * g * g - 0.5 * LOG_2PI + log_pair
    return math.exp(log_pdf)


def exact_cdf_values(nc: NormingConstants, xs: np.ndarray) -> np.ndarray:
    """Vectorized F_n over an array of points, for empirical comparisons.

    Points with c*x + d <= 0 get 0.0: the statistic (|M_n|^t - d)/c cannot
    fall below -d/c, so the true distribution function vanishes there. This
    extension (rather than an error) is what a reference CDF needs. NaN
    points get NaN. Any input shape, 0-d included, gives each point the bits
    it has in a 1-D array.
    """
    xs = np.asarray(xs, dtype=float)
    # one buffer takes c*x + d, g and F in turn. A point off the support
    # (c*x may overflow to -inf) enters the kernel as g = 0, where the
    # boundary patch gives log F = -inf; maximum keeps a NaN. The patches
    # take log 0 = -inf, and c*x may overflow to inf (F = 1)
    buf = np.empty(xs.shape)
    with np.errstate(all="ignore"):
        np.multiply(xs, nc.c, out=buf)
        buf += nc.d
        np.maximum(buf, 0.0, out=buf)
        buf **= 1.0 / nc.t
        return np.exp(_log_cdf(_ArrayOps, nc.n, buf), out=buf)
