"""Closed-form expansion coefficients and the second/third-order
approximations to the distribution and density of normalized powered maxima.

Both approximation families share the scale factor B = b^(-2-2*[t=2]): the
distribution expands as Lambda + B*Lambda'*(k1 + k2/b^2 + ...), the density
as Lambda'*(1 + B*(varpi + tau/b^2 + ...)). The survival-power and
density-factor expansions multiply out to the same coefficients; the test
suite states the density factor's terms on its own and checks their
product against varpi and tau.

One kernel evaluates the six coefficients at a point into their named
record, from the e^{-x} that the Gumbel helper computed for Lambda and
Lambda' there, so each approximation takes one exponential and one
coefficient pass per call; ``coefficients`` checks x and calls the same
kernel. The kernel writes out the density factor's terms (h and m2, or
p1 and p2 at t = 2) where varpi and tau use them, and forms each t-only
subexpression once; every float expression keeps its association, so the
bits are those of the polynomials as printed. The approximations take t
from a NormingConstants, whose constructor checked it, and check a float
x in place, so the full checks run only for a t or x that is not a
positive (finite) float.
"""
from __future__ import annotations

import enum
import math
from typing import NamedTuple

import powex  # numpy and scipy load at the first powex.exact_law call
from .errors import DomainError
from .norming import NormingConstants, _power_index
from .special_functions import Probability, _from_raw, _gumbel, _require_finite, _tuple_new

_isfinite = math.isfinite


class ApproxOrder(enum.Enum):
    """Approximation depth: the Gumbel limit, one or two correction terms,
    or the exact finite-n law."""

    LIMIT = "limit"
    SECOND = "second"
    THIRD = "third"
    EXACT = "exact"


# An enum member is a class attribute lookup per use; these are module globals
_LIMIT, _SECOND, _EXACT = ApproxOrder.LIMIT, ApproxOrder.SECOND, ApproxOrder.EXACT


class ExpansionCoefficients(NamedTuple):
    """All six expansion coefficients at a fixed (t, x).

    For t != 2, theta1/theta2 are the survival-power expansion coefficients
    and k1 equals theta1. For t == 2.0 the same fields carry the inline
    t = 2 coefficients 7/2 + 3x + x^2 and 43/3 + 14x + 6x^2 + (4/3)x^3,
    which enter with opposite signs. The record does not store t.
    """

    k1: float
    k2: float
    varpi: float
    tau: float
    theta1: float
    theta2: float


def _coefficients(t: float, x: float, emx: float) -> ExpansionCoefficients:
    """The six coefficients at a finite float x, emx = e^{-x}, with the
    DomainError that ``coefficients`` documents."""
    if not (type(t) is float and t > 0.0 and _isfinite(t)):  # nc.t passed this already
        t = _power_index(t)
    try:
        if t == 2.0:
            # the density factor is e^{-x}(1 + p1/b^4 - p2/b^6 + ...)
            xx = x * x
            cube = (4.0 / 3.0) * x ** 3
            p1 = 0.5 + x + xx
            p2 = 1.0 / 3.0 + 2.0 * x + 2.0 * x * x + cube
            theta1 = 3.5 + 3.0 * x + xx
            theta2 = 43.0 / 3.0 + 14.0 * x + 6.0 * x * x + cube
            k1, k2 = -theta1, theta2
            varpi, tau = p1 - emx * theta1, emx * theta2 - p2
        else:
            # the density factor is e^{-x}(1 + x*h/b^2 + m2/b^4 + ...)
            one_t, t_2 = 1.0 - t, t - 2.0
            quartic = t_2 ** 2 / 8.0
            h = one_t + 0.5 * t_2 * x
            m2 = x * x * (one_t * (1.0 - 2.0 * t) / 2.0
                          + 5.0 * one_t * t_2 / 6.0 * x
                          + quartic * x * x)
            two_t = 2.0 - t
            theta1 = 1.0 + x + 0.5 * two_t * x * x
            theta2 = (3.0 + 3.0 * x + 1.5 * x * x
                      + two_t * (2.0 * t + 1.0) / 6.0 * x ** 3
                      + quartic * x ** 4)
            k1, k2 = theta1, -(theta2 - 0.5 * emx * theta1 * theta1)
            varpi = x * h + emx * theta1
            tau = x * emx * h * theta1 + m2 + emx * k2
    except OverflowError:
        raise DomainError(f"expansion coefficients overflow at x={x}") from None
    # x*x products reach inf without an OverflowError. varpi adds e^{-x}*theta1
    # = +-e^{-x}*k1 and tau adds e^{-x}*k2, and e^{-x} >= 0 times an inf or nan
    # is inf or nan: so varpi and tau are finite only where k1 and k2 are.
    # theta1 is +-k1, and theta2 is finite where k2 is
    if not (_isfinite(varpi) and _isfinite(tau)):
        raise DomainError(f"expansion coefficients overflow at x={x}")
    return _tuple_new(ExpansionCoefficients, (k1, k2, varpi, tau, theta1, theta2))


def coefficients(t: float, x: float) -> ExpansionCoefficients:
    """Evaluate k1, k2, varpi, tau, theta1, theta2 at (t, x).

    An x whose powers or e^{-x} pass the float range, or that leaves any
    coefficient inf or nan, is a DomainError.
    """
    x = _require_finite(x)
    # _gumbel's e^{-x} is inf below -709; the kernel refuses the inf terms
    return _coefficients(t, x, _gumbel(x)[0])


def cdf_approx(nc: NormingConstants, x: float, order: ApproxOrder) -> Probability:
    """Distribution approximation at the requested order.

    limit: Lambda(x); second: Lambda + B*Lambda'*k1; third adds B*Lambda'*k2/b^2;
    exact delegates to the finite-n law. Truncated orders can leave [0, 1]
    for extreme x at small n; they are clamped with the flag set and the raw
    value retained, since convergence diagnostics need unclamped residuals.
    """
    order = order if type(order) is ApproxOrder else ApproxOrder(order)
    if order is _EXACT:
        return powex.exact_law.exact_cdf(nc, x)
    if not (type(x) is float and _isfinite(x)):
        x = _require_finite(x)
    emx, lam, lam_pdf = _gumbel(x)
    if order is _LIMIT:
        return _tuple_new(Probability, (lam, -emx, False, None))
    t = nc.t
    co = _coefficients(t, x, emx)
    u = nc.b * nc.b
    correction = co.k1 if order is _SECOND else co.k1 + co.k2 / u
    return _from_raw(lam + 1.0 / (u * u if t == 2.0 else u) * lam_pdf * correction)


class Density(NamedTuple):
    """A density value floored at 0, keeping the raw number when floored."""

    value: float
    floored: bool = False
    raw: float | None = None

    @property
    def unfloored(self) -> float:
        return self.raw if self.floored and self.raw is not None else self.value


def pdf_approx(nc: NormingConstants, x: float, order: ApproxOrder) -> Density:
    """Density approximation at the requested order.

    limit: Lambda'(x); second: Lambda'*(1 + B*varpi); third adds B*tau/b^2;
    exact delegates to the finite-n law. Negative truncations are floored
    at 0 with the flag set.
    """
    order = order if type(order) is ApproxOrder else ApproxOrder(order)
    if order is _EXACT:
        return _tuple_new(Density, (powex.exact_law.exact_pdf(nc, x), False, None))
    if not (type(x) is float and _isfinite(x)):
        x = _require_finite(x)
    emx, _, lam_pdf = _gumbel(x)
    if order is _LIMIT:
        return _tuple_new(Density, (lam_pdf, False, None))
    t = nc.t
    co = _coefficients(t, x, emx)
    u = nc.b * nc.b
    correction = co.varpi if order is _SECOND else co.varpi + co.tau / u
    raw = lam_pdf * (1.0 + 1.0 / (u * u if t == 2.0 else u) * correction)
    if raw >= 0.0:
        return _tuple_new(Density, (raw, False, None))
    return _tuple_new(Density, (0.0, True, raw))
