"""Exact finite-n distribution and density of the normalized powered maximum.

For X_1..X_n i.i.d. standard normal, M_n their maximum and g(x) =
(c*x + d)^(1/t), the normalized statistic (|M_n|^t - d)/c has distribution

    F_n(x) = Phi^n(g(x)) - (1 - Phi(g(x)))^n

and density n * phi(g) * g'(x) * (Phi^{n-1}(g) + (1 - Phi(g))^{n-1}).
Everything is evaluated in log-domain: Phi^n at n = 1e12 is meaningless in
naive arithmetic. This module is the ground-truth oracle for all expansions.

log F_n = n*log(Phi) + log(1 - e^delta) with delta = n*log((1 - Phi)/Phi).
In the bulk delta is a difference of two log_ndtr values and the last term
log1p(-e^delta). Near x_min = -d/c both logs tend to -ln 2 and cancel, so
where delta > -ln 2 it is -2n*atanh(erf(g/sqrt(2))) and the last term
log(-expm1(delta)) (Maechler, "Accurately computing log(1 - exp(-|a|))",
2012); F_n = 0 where g underflows. One kernel serves the scalar API, on
Python floats through ``math``, and the array path, through numpy.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import erf, log_ndtr

from .norming import NormingConstants, transformed_quantile
from .special_functions import LOG_2PI, Probability, _require_finite

_LN2 = math.log(2.0)


# The kernel's arithmetic: Python floats through math, or numpy arrays
class _ScalarOps:
    exp, expm1, log1p, atanh, erf = math.exp, math.expm1, math.log1p, math.atanh, math.erf
    log_ndtr, native = log_ndtr, float  # log_ndtr returns numpy scalars
    log = staticmethod(lambda v: math.log(v) if v > 0.0 else -math.inf)

    @classmethod
    def branch(cls, cond, if_true, if_false, *args):
        return (if_true if cond else if_false)(cls, *args)


class _ArrayOps:
    exp, expm1, log1p, atanh, log = np.exp, np.expm1, np.log1p, np.arctanh, np.log
    erf, log_ndtr, native = erf, log_ndtr, np.asarray

    @classmethod
    def branch(cls, cond, if_true, if_false, *args):
        with np.errstate(divide="ignore"):  # log 0 = -inf: overwritten, or F = 0
            out = if_false(cls, *args)
            if cond.any():
                out[cond] = if_true(cls, *(a[cond] if np.ndim(a) else a for a in args))
        return out


def _log_cdf(ops, n: float, g):
    """log F_n at transformed quantiles g > 0, in the arithmetic of ``ops``."""
    log_phi = ops.native(ops.log_ndtr(g))
    delta = n * (ops.native(ops.log_ndtr(-g)) - log_phi)
    return ops.branch(delta > -_LN2, _log_cdf_boundary, _log_cdf_bulk, n, g, log_phi, delta)


def _log_cdf_bulk(ops, n, g, log_phi, delta):
    return n * log_phi + ops.log1p(-ops.exp(delta))


def _log_cdf_boundary(ops, n, g, log_phi, delta):
    # delta = 0 only where g underflows; log 0 = -inf there
    delta = -2.0 * n * ops.atanh(ops.erf(g / math.sqrt(2.0)))
    return n * log_phi + ops.log(-ops.expm1(delta))


def exact_cdf(nc: NormingConstants, x: float) -> Probability:
    """F_n(x) = Phi^n(g) - (1 - Phi(g))^n, both factors in log-domain.

    Each exponential is accurate to well under 1e-13 relative for n up to
    1e14, up to the support boundary. Requires c*x + d > 0.
    """
    x = _require_finite(x)
    log_cdf = _log_cdf(_ScalarOps, nc.n, transformed_quantile(nc, x).g)
    return Probability(value=math.exp(log_cdf), log_value=log_cdf)


def exact_pdf(nc: NormingConstants, x: float) -> float:
    """Exact density n * phi(g) * g' * (Phi^{n-1}(g) + (1 - Phi(g))^{n-1}).

    The second factor carries a plus sign: it is what direct differentiation
    of F_n yields, and the test suite checks it against the numeric
    derivative where the term is non-negligible. Requires c*x + d > 0.
    """
    x = _require_finite(x)
    g, dg_dx = transformed_quantile(nc, x)
    n = nc.n
    log_phi = float(log_ndtr(g))
    log_surv = float(log_ndtr(-g))
    log_pair = float(np.logaddexp((n - 1.0) * log_phi, (n - 1.0) * log_surv))
    # g' underflows to 0 next to the boundary when t is small
    log_pdf = math.log(n) + _ScalarOps.log(dg_dx) - 0.5 * g * g - 0.5 * LOG_2PI + log_pair
    return math.exp(log_pdf) if log_pdf > -746.0 else 0.0


def exact_cdf_values(nc: NormingConstants, xs: np.ndarray) -> np.ndarray:
    """Vectorized F_n over an array of points, for empirical comparisons.

    Points with c*x + d <= 0 get 0.0: the statistic (|M_n|^t - d)/c cannot
    fall below -d/c, so the true distribution function vanishes there. This
    extension (rather than an error) is what a reference CDF needs.
    """
    xs = np.asarray(xs, dtype=float)
    arg = nc.c * xs + nc.d
    out = np.zeros(xs.shape)
    ok = arg > 0.0
    out[ok] = np.exp(_log_cdf(_ArrayOps, nc.n, arg[ok] ** (1.0 / nc.t)))
    return out
