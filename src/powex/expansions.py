"""Closed-form expansion coefficients and the second/third-order
approximations to the distribution and density of normalized powered maxima.

Both approximation families share the scale factor B = b^(-2-2*[t=2]): the
distribution expands as Lambda + B*Lambda'*(k1 + k2/b^2 + ...), the density
as Lambda'*(1 + B*(varpi + tau/b^2 + ...)). The intermediate survival-power
and density-factor expansions are exposed as diagnostics; they multiply out
to the same coefficients, which the test suite exploits as a consistency
check.

One kernel evaluates the six coefficients at a point into their named
record, from the e^{-x} that the Gumbel helper computed for Lambda and
Lambda' there, so each approximation takes one exponential and one
coefficient pass per call; ``coefficients`` checks x and calls the same
kernel.
"""
from __future__ import annotations

import enum
import math
from typing import NamedTuple

import powex  # numpy and scipy load at the first powex.exact_law call
from .errors import DomainError
from .norming import NormingConstants, _power_index, transformed_quantile
from .special_functions import Probability, _gumbel, _require_finite


class ApproxOrder(enum.Enum):
    """Approximation depth: the Gumbel limit, one or two correction terms,
    or the exact finite-n law."""

    LIMIT = "limit"
    SECOND = "second"
    THIRD = "third"
    EXACT = "exact"


class ExpansionCoefficients(NamedTuple):
    """All six expansion coefficients at a fixed (t, x).

    For t != 2, theta1/theta2 are the survival-power expansion coefficients
    and k1 equals theta1. For t = 2 (``is_two`` set) the same fields carry
    the inline t = 2 coefficients 7/2 + 3x + x^2 and
    43/3 + 14x + 6x^2 + (4/3)x^3, which enter with opposite signs.
    """

    k1: float
    k2: float
    varpi: float
    tau: float
    theta1: float
    theta2: float
    is_two: bool


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
    t = _power_index(t)
    try:
        first, second = _density_factor_terms(t, x)
        if t == 2.0:
            theta1 = 3.5 + 3.0 * x + x * x
            theta2 = 43.0 / 3.0 + 14.0 * x + 6.0 * x * x + (4.0 / 3.0) * x ** 3
            co = ExpansionCoefficients(-theta1, theta2, first - emx * theta1,
                                       emx * theta2 - second, theta1, theta2, True)
        else:
            theta1 = 1.0 + x + 0.5 * (2.0 - t) * x * x
            theta2 = (3.0 + 3.0 * x + 1.5 * x * x
                      + (2.0 - t) * (2.0 * t + 1.0) / 6.0 * x ** 3
                      + (t - 2.0) ** 2 / 8.0 * x ** 4)
            k2 = -(theta2 - 0.5 * emx * theta1 * theta1)
            co = ExpansionCoefficients(theta1, k2, x * first + emx * theta1,
                                       x * emx * first * theta1 + second + emx * k2,
                                       theta1, theta2, False)
        # each on its own: x*x products reach inf without an OverflowError
        if not all(map(math.isfinite, co[:6])):
            raise OverflowError
        return co
    except OverflowError:
        raise DomainError(f"expansion coefficients overflow at x={x}") from None


def _exp_neg(x: float) -> float:
    """e^{-x}, taken as inf below -709 as in _gumbel, where math.exp overflows."""
    return math.exp(-x) if x > -709.0 else math.inf


def coefficients(t: float, x: float) -> ExpansionCoefficients:
    """Evaluate k1, k2, varpi, tau, theta1, theta2 at (t, x).

    An x whose powers or e^{-x} pass the float range, or that leaves any
    coefficient inf or nan, is a DomainError.
    """
    x = _require_finite(x)
    return _coefficients(t, x, _exp_neg(x))  # the kernel refuses the inf terms


def cdf_approx(nc: NormingConstants, x: float, order: ApproxOrder) -> Probability:
    """Distribution approximation at the requested order.

    limit: Lambda(x); second: Lambda + B*Lambda'*k1; third adds B*Lambda'*k2/b^2;
    exact delegates to the finite-n law. Truncated orders can leave [0, 1]
    for extreme x at small n; they are clamped with the flag set and the raw
    value retained, since convergence diagnostics need unclamped residuals.
    """
    order = order if type(order) is ApproxOrder else ApproxOrder(order)
    if order is ApproxOrder.EXACT:
        return powex.exact_law.exact_cdf(nc, x)
    x = _require_finite(x)
    emx, lam, lam_pdf = _gumbel(x)
    if order is ApproxOrder.LIMIT:
        return Probability(lam, -emx)
    co = _coefficients(nc.t, x, emx)
    correction = co.k1 if order is ApproxOrder.SECOND else co.k1 + co.k2 / nc.b_squared
    return Probability.from_raw(lam + 1.0 / nc.error_scale * lam_pdf * correction)


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
    if order is ApproxOrder.EXACT:
        return Density(powex.exact_law.exact_pdf(nc, x))
    x = _require_finite(x)
    emx, _, lam_pdf = _gumbel(x)
    if order is ApproxOrder.LIMIT:
        return Density(lam_pdf)
    co = _coefficients(nc.t, x, emx)
    correction = co.varpi if order is ApproxOrder.SECOND else co.varpi + co.tau / nc.b_squared
    raw = lam_pdf * (1.0 + 1.0 / nc.error_scale * correction)
    if raw >= 0.0:
        return Density(raw)
    return Density(0.0, True, raw)


def nu_expansion(nc: NormingConstants, x: float) -> float:
    """Expansion of the survival-power factor Phi^{n-1}(g) - (1-Phi(g))^{n-1}.

    Truncated after the b^-4 term for t != 2 and the b^-6 term for t = 2
    (the t = 2 leading correction only enters at b^-4). Diagnostic: together
    with ``density_factor_expansion`` it reproduces the density expansion.
    """
    transformed_quantile(nc, x)  # domain check only: requires c*x + d > 0
    x = float(x)
    u = nc.b_squared
    emx, lam, _ = _gumbel(x)
    co = _coefficients(nc.t, x, emx)
    if nc.is_two:
        return lam * (1.0 - emx / (u * u) * co.theta1 + emx / (u ** 3) * co.theta2)
    return lam * (1.0 + emx / u * co.theta1
                  - emx / (u * u) * (co.theta2 - 0.5 * emx * co.theta1 ** 2))


def density_factor_expansion(nc: NormingConstants, x: float) -> float:
    """Expansion of the density factor n * d/dx Phi((c*x + d)^(1/t)).

    Truncated at b^-4 for t != 2 and b^-6 for t = 2; the leading term is
    e^{-x} in both branches. A factor past the float range is a DomainError.
    """
    transformed_quantile(nc, x)  # domain check only
    u = nc.b_squared
    x = float(x)
    emx = _exp_neg(x)
    first, second = _density_factor_terms(nc.t, x)
    if nc.is_two:
        factor = emx * (1.0 + first / (u * u) - second / u ** 3)
    else:
        factor = emx * (1.0 + x * first / u + second / (u * u))
    if not math.isfinite(factor):
        raise DomainError(f"density factor expansion overflows at x={x}")
    return factor
