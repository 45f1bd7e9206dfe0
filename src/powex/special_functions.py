"""Standard-normal density/CDF/survival, Gumbel limit functions, and the
Mills-ratio asymptotic tail series.

The survival function is the load-bearing primitive: everything downstream
(exact law, Monte Carlo references) composes powers of Phi and 1 - Phi for
sample sizes up to 1e14, so both the value and its natural log are carried.
The Mills series is kept strictly as a diagnostic: it is an asymptotic
(divergent) series and must never back the exact-law oracle.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError

LOG_2PI = math.log(2.0 * math.pi)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Beyond 12 correction terms the asymptotic series is never useful at any
# x this library evaluates.
MAX_SERIES_ORDER = 12


class Probability(NamedTuple):
    """A probability with its natural log carried for tail-safe composition.

    ``value`` is always inside [0, 1]. When a producer had to clamp (or
    floor) an out-of-range raw number, ``clamped`` is set and the raw
    number is retained in ``raw`` so diagnostics can see it.
    """

    value: float
    log_value: float
    clamped: bool = False
    raw: float | None = None

    @classmethod
    def from_raw(cls, raw: float) -> Probability:
        """``raw`` clamped to [0, 1]; flagged and retained when out of range."""
        if 0.0 <= raw <= 1.0:
            return cls(raw, math.log(raw) if raw > 0.0 else -math.inf)
        value = min(max(raw, 0.0), 1.0)
        return cls(value, math.log(value) if value > 0.0 else -math.inf, True, raw)

    @property
    def unclamped(self) -> float:
        """The producer's raw number before any clamping."""
        return self.raw if self.clamped and self.raw is not None else self.value


def _require_finite(x: float, name: str = "x") -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def std_normal_pdf(x: float) -> float:
    """Standard normal density phi(x) = exp(-x^2/2)/sqrt(2*pi).

    Underflows to 0 only once x^2/2 passes the float64 exponent range
    (x^2 around 1490).
    """
    x = _require_finite(x)
    return INV_SQRT_2PI * math.exp(-0.5 * x * x)


def survival(x: float) -> Probability:
    """Upper tail 1 - Phi(x) of the standard normal, tail-safe for |x| <= 38.

    Relative error is at the level of the underlying complementary error
    function: a few ulp in the body, approaching 2e-13 in the far tail
    (x around 30). The CDF is ``survival(-x)``.
    """
    from scipy.special import log_ndtr, ndtr  # here, so importing this module skips scipy

    x = _require_finite(x)
    return Probability(float(ndtr(-x)), float(log_ndtr(-x)))


def _mills_coefficients(x: float, order: int) -> tuple[float, list[int]]:
    """The checked x and a_0, ..., a_{order+1}: the series' and the bound's."""
    x = _require_finite(x)
    if x < 2.0:
        raise DomainError(f"mills series requires x >= 2, got {x}")
    order = int(order)
    if order < 0 or order > MAX_SERIES_ORDER:
        raise DomainError(f"series order must be in [0, {MAX_SERIES_ORDER}], got {order}")
    # a_k = (2k)! / (2^k k!) = 1, 1, 3, 15, 105, ... via a_{k+1} = (2k+1) a_k
    a = [1]
    for k in range(order + 1):
        a.append(a[-1] * (2 * k + 1))
    return x, a


def mills_series_survival(x: float, order: int) -> Probability:
    """Truncated Mills-ratio series for the normal upper tail.

    Returns x^{-1} phi(x) * sum_{k=0}^{order} (-1)^k a_k x^{-2k} with
    a_k = (2k)!/(2^k k!), i.e. 1 - x^{-2} + 3 x^{-4} - 15 x^{-6} + ...
    The series is asymptotic: truncations are excellent for large x but
    diverge for fixed x as ``order`` grows, so raw sums can leave [0, 1];
    such results are clamped with the flag set and the raw value retained.

    Parameters
    ----------
    x : float
        Evaluation point, must be >= 2.
    order : int
        Number of correction terms beyond the leading one (L in the series
        bound), 0 <= order <= 12.
    """
    x, a = _mills_coefficients(x, order)
    inv_x2 = 1.0 / (x * x)
    total = 0.0
    power = 1.0
    for k, ak in enumerate(a[:-1]):
        total += (-1 if k % 2 else 1) * ak * power
        power *= inv_x2
    return Probability.from_raw(std_normal_pdf(x) / x * total)


def mills_series_bound(x: float, order: int) -> float:
    """Error envelope 2*a_{L+1}*x^{-2(L+1)}*phi(x)/x of mills_series_survival(x, L)."""
    x, a = _mills_coefficients(x, order)
    return 2.0 * a[-1] * x ** (-2 * (len(a) - 1)) * std_normal_pdf(x) / x


def _gumbel(x: float) -> tuple[float, float, float]:
    """(e^{-x}, Lambda(x), Lambda'(x)) at a finite float x."""
    # e^{-x} overflows math.exp for x < -709; Lambda and Lambda' are exactly 0 there
    if x > -709.0:
        emx = math.exp(-x)
        # Lambda' in one exp: in e^{-x} * Lambda, Lambda underflows first (x < -6.6)
        return emx, math.exp(-emx), math.exp(-x - emx)
    return math.inf, 0.0, 0.0


def gumbel_cdf(x: float) -> Probability:
    """Gumbel distribution function Lambda(x) = exp(-e^{-x})."""
    emx, lam, _ = _gumbel(_require_finite(x))
    return Probability(lam, -emx)


def gumbel_pdf(x: float) -> float:
    """Gumbel density Lambda'(x) = exp(-x - e^{-x})."""
    return _gumbel(_require_finite(x))[2]
