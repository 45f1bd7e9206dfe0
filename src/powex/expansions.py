"""Closed-form expansion coefficients and the second/third-order
approximations to the distribution and density of normalized powered maxima.

Both approximation families share the scale factor B = b^(-2-2*[t=2]): the
distribution expands as Lambda + B*Lambda'*(k1 + k2/b^2 + ...), the density
as Lambda'*(1 + B*(varpi + tau/b^2 + ...)). The survival-power and
density-factor expansions multiply out to the same coefficients; the test
suite rebuilds them from ``_density_factor_terms`` as a consistency check.

One kernel evaluates the six coefficients at a point into their named
record, from the e^{-x} that the Gumbel helper computed for Lambda and
Lambda' there, so each approximation takes one exponential and one
coefficient pass per call; ``coefficients`` checks x and calls the same
kernel. The approximations take t from a NormingConstants, whose
constructor checked it, so the kernel re-checks only a t that is not a
positive finite float.
"""
from __future__ import annotations

import enum
import math
from typing import NamedTuple

import powex  # numpy and scipy load at the first powex.exact_law call
from .errors import DomainError
from .norming import NormingConstants, _power_index, _scales
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


def _density_factor_terms(t: float, x: float) -> tuple[float, float]:
    """Density factor n * d/dx Phi(g) = e^{-x}(1 + m1/b^2 + m2/b^4 + ...): (h, m2),
    m1 = x*h; at t = 2 e^{-x}(1 + p1/b^4 - p2/b^6 + ...): (p1, p2) =
    (1/2 + x + x^2, 1/3 + 2x + 2x^2 + (4/3)x^3)."""
    if t == 2.0:
        return 0.5 + x + x * x, 1.0 / 3.0 + 2.0 * x + 2.0 * x * x + (4.0 / 3.0) * x ** 3
    h = 1.0 - t + 0.5 * (t - 2.0) * x
    m2 = x * x * ((1.0 - t) * (1.0 - 2.0 * t) / 2.0
                  + 5.0 * (1.0 - t) * (t - 2.0) / 6.0 * x
                  + (t - 2.0) ** 2 / 8.0 * x * x)
    return h, m2


def _coefficients(t: float, x: float, emx: float) -> ExpansionCoefficients:
    """The six coefficients at a finite float x, emx = e^{-x}, with the
    DomainError that ``coefficients`` documents."""
    if not (type(t) is float and 0.0 < t < math.inf):  # nc.t passed this already
        t = _power_index(t)
    try:
        first, second = _density_factor_terms(t, x)
        if t == 2.0:
            theta1 = 3.5 + 3.0 * x + x * x
            theta2 = 43.0 / 3.0 + 14.0 * x + 6.0 * x * x + (4.0 / 3.0) * x ** 3
            k1, k2 = -theta1, theta2
            varpi, tau = first - emx * theta1, emx * theta2 - second
        else:
            theta1 = 1.0 + x + 0.5 * (2.0 - t) * x * x
            theta2 = (3.0 + 3.0 * x + 1.5 * x * x
                      + (2.0 - t) * (2.0 * t + 1.0) / 6.0 * x ** 3
                      + (t - 2.0) ** 2 / 8.0 * x ** 4)
            k1, k2 = theta1, -(theta2 - 0.5 * emx * theta1 * theta1)
            varpi = x * first + emx * theta1
            tau = x * emx * first * theta1 + second + emx * k2
    except OverflowError:
        raise DomainError(f"expansion coefficients overflow at x={x}") from None
    # each on its own: x*x products reach inf without an OverflowError; theta1
    # is +-k1, and theta2 is finite where k2 is
    if not (_isfinite(k1) and _isfinite(k2) and _isfinite(varpi) and _isfinite(tau)):
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
    x = _require_finite(x)
    emx, lam, lam_pdf = _gumbel(x)
    if order is _LIMIT:
        return _tuple_new(Probability, (lam, -emx, False, None))
    co = _coefficients(nc.t, x, emx)
    u, scale = _scales(nc)
    correction = co.k1 if order is _SECOND else co.k1 + co.k2 / u
    return _from_raw(lam + 1.0 / scale * lam_pdf * correction)


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
    x = _require_finite(x)
    emx, _, lam_pdf = _gumbel(x)
    if order is _LIMIT:
        return _tuple_new(Density, (lam_pdf, False, None))
    co = _coefficients(nc.t, x, emx)
    u, scale = _scales(nc)
    correction = co.varpi if order is _SECOND else co.varpi + co.tau / u
    raw = lam_pdf * (1.0 + 1.0 / scale * correction)
    if raw >= 0.0:
        return _tuple_new(Density, (raw, False, None))
    return _tuple_new(Density, (0.0, True, raw))
