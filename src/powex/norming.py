"""Norming constants for powered maxima of standard normal samples.

Solves 2*pi*b^2*exp(b^2) = n^2 for b (equivalently b^2 = W(n^2/(2*pi)) on
the principal Lambert-W branch) and derives the power-dependent centering
and scaling

    c = t * b^(t-2),          d = b^t            (t != 2)
    c = 2 * (1 - b^-2),       d = b^2 - 2*b^-2   (t = 2)

together with the transformed quantile g(x) = (c*x + d)^(1/t).
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError
from .special_functions import LOG_2PI, _require_finite, _tuple_new

_NEWTON_MAX_ITER = 50
_NEWTON_RTOL = 1e-15


class NormingConstants(NamedTuple):
    """The tuple (n, t, b, c, d) tying a sample size and power index to its
    normalization.

    The t = 2 branch is ``t == 2.0`` exactly; no other field records it.
    """

    n: float
    t: float
    b: float
    c: float
    d: float

    @property
    def b_squared(self) -> float:
        return self.b * self.b

    @property
    def error_scale(self) -> float:
        """b^(2+2*[t=2]): the expansions' corrections are O(1/error_scale)."""
        return _scales(self)[1]


def _scales(nc: NormingConstants) -> tuple[float, float]:
    """(b_squared, error_scale) of nc in one call."""
    u = nc.b * nc.b
    return u, u * u if nc.t == 2.0 else u


def solve_b(n: float) -> float:
    """Solve 2*pi*b^2*exp(b^2) = n^2 for b > 0.

    Works on u = b^2 in the log form u + ln(u) = 2 ln(n) - ln(2*pi), which
    never overflows. The seed ell - ln(ell) is used for ell >= 1 and
    exp(ell - 1) below that; both start weakly below the root where Newton
    on this convex increasing function converges monotonically.

    The residual |2*pi*b^2*e^{b^2}/n^2 - 1| is at most 1e-12 for all
    admissible n (in practice a few ulp).
    """
    n = _require_finite(n, "n")
    if n < 2.0:
        raise DomainError(f"sample size must satisfy n >= 2, got {n}")
    ell = 2.0 * math.log(n) - LOG_2PI
    u = ell - math.log(ell) if ell >= 1.0 else math.exp(ell - 1.0)
    for _ in range(_NEWTON_MAX_ITER):
        step = (u + math.log(u) - ell) / (1.0 + 1.0 / u)
        u -= step
        if abs(step) <= _NEWTON_RTOL * u:
            break
    return math.sqrt(u)


def _power_index(t: float) -> float:
    """The power index as a float, checked finite and > 0."""
    t = _require_finite(t, "t")
    if t <= 0.0:
        raise DomainError(f"power index must be > 0, got {t}")
    return t


def norming_constants(n: float, t: float) -> NormingConstants:
    """Full norming tuple for sample size n and power index t.

    The t = 2 branch needs b^2 > 1 for a positive scaling c; that fails
    for n <= sqrt(2*pi*e) (about 4.13), so integer sample sizes below 5
    are rejected there.
    """
    t = _power_index(t)
    b = solve_b(n)
    u = b * b
    if t == 2.0:
        if u <= 1.0:
            raise DomainError(
                f"t=2 norming needs b^2 > 1, i.e. n > sqrt(2*pi*e) ~ 4.133; got n={n}"
            )
        c = 2.0 * (1.0 - 1.0 / u)
        d = u - 2.0 / u
    else:
        try:
            c = t * b ** (t - 2.0)
            d = b ** t
        except OverflowError:
            raise DomainError(f"norming constants overflow at n={n}, t={t}") from None
    return _tuple_new(NormingConstants, (float(n), t, b, c, d))


class TransformedQuantile(NamedTuple):
    g: float
    dg_dx: float


_POWER_OVERFLOW = "(c*x + d)^(1/t) overflows at x={}"


def _support_point(nc: NormingConstants, x: float) -> tuple[float, float, float]:
    """(x, c*x + d, g(x)) with x as a float, and the DomainErrors that
    ``transformed_quantile`` documents: the one home of the support check."""
    x = _require_finite(x)
    arg = nc.c * x + nc.d
    if arg <= 0.0:
        x_min = -nc.d / nc.c
        raise DomainError(
            f"c*x + d must be positive: x={x} is outside (x_min={x_min!r}, inf)",
            x_min=x_min,
        )
    try:
        return x, arg, arg ** (1.0 / nc.t)
    except OverflowError:
        raise DomainError(_POWER_OVERFLOW.format(x)) from None


def transformed_quantile(nc: NormingConstants, x: float) -> TransformedQuantile:
    """g(x) = (c*x + d)^(1/t) and its derivative (c/t)*(c*x + d)^(1/t - 1).

    Defined only where c*x + d > 0; below that the power is not real and
    the error reports the boundary x_min = -d/c. A power past the float
    range is a DomainError too.
    """
    x, arg, g = _support_point(nc, x)
    inv_t = 1.0 / nc.t
    try:
        return _tuple_new(TransformedQuantile, (g, (nc.c * inv_t) * arg ** (inv_t - 1.0)))
    except OverflowError:
        raise DomainError(_POWER_OVERFLOW.format(x)) from None
