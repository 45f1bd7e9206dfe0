"""Convergence measurement: residual curves across n-grids, log-log slope
fits against ln(b), and the scaled-error check for the first-order limit.

The expansions predict power-law decay in b (itself growing only like
sqrt(2 ln n)), so rates are measured as OLS slopes of ln|residual| vs ln(b)
on geometric n-grids. Signed residuals are kept: sign changes mark a
coefficient zero-crossing, not noise. Points at the double-precision
differencing floor are excluded from fits and counted.
"""
from __future__ import annotations

import enum
import math
from typing import NamedTuple, Sequence

import powex  # numpy and scipy load at the first powex.exact_law call
from .errors import DomainError, InsufficientDataError, ResourceError
from .expansions import ApproxOrder, cdf_approx, coefficients, pdf_approx
from .norming import NormingConstants, _support_point, norming_constants, solve_b
from .special_functions import _tuple_new, gumbel_cdf, gumbel_pdf

# |residual| at or below this is double-precision CDF-differencing noise
NOISE_FLOOR = 1e-13

MIN_GRID_N = 100.0

# Hard budget on the points of a START:STOP:STEP or START:STOP:FACTOR grid
MAX_GRID_POINTS = 10 ** 6


class Scaling(enum.Enum):
    """Which residual a curve records.

    raw: approx(order) - exact, signed.
    hall_scaled: b^(2+2*[t=2]) * (exact - Lambda)/Lambda' - k1, the gap that
        the first-order limit drives to 0.
    third_order_remainder: the same scaled error minus k1 + k2/b^2 (or the
        density analogue with varpi, tau), i.e. what the O(b^-4) remainder
        term must absorb.
    """

    RAW = "raw"
    HALL_SCALED = "hall_scaled"
    THIRD_ORDER_REMAINDER = "third_order_remainder"


class CurveRow(NamedTuple):
    n: float
    b: float
    residual: float


class ErrorCurve(NamedTuple):
    """Per-n residual table with the scaling that produced it."""

    t: float
    x: float
    target: str
    order: ApproxOrder
    rows: tuple[CurveRow, ...]
    scaling: Scaling


class SlopeFit(NamedTuple):
    slope: float
    intercept: float
    stderr: float
    points_used: int
    noise_floor_hits: int


class HallRow(NamedTuple):
    n: float
    scaled_error: float
    k1_target: float
    gap: float


class HallCheck(NamedTuple):
    """Scaled-error table plus the verdict on the first-order limit."""

    t: float
    x: float
    rows: tuple[HallRow, ...]
    gaps_decreasing: bool
    final_gap: float
    bound: float
    passed: bool


def _grid_constants(t: float, x: float, n_grid: Sequence[float]) -> list[NormingConstants]:
    """Norming constants along an ascending n-grid that keeps x on the support."""
    grid = [float(n) for n in n_grid]
    if not grid:
        raise DomainError("n_grid must be non-empty")
    if any(n < MIN_GRID_N for n in grid):
        raise DomainError(f"all grid points must be >= {MIN_GRID_N:g}, got {min(grid)}")
    if any(later <= earlier for earlier, later in zip(grid, grid[1:])):
        raise DomainError("n_grid must be strictly ascending")
    ncs = [norming_constants(n, t) for n in grid]
    for nc in ncs:
        try:
            _support_point(nc, x)  # the support check, with x_min
        except DomainError as exc:
            raise DomainError(f"{exc} at grid point n={nc.n:g}", x_min=exc.x_min) from None
    return ncs


def _scaled_errors(ncs: list[NormingConstants], x: float,
                   target: str) -> tuple[list[float], float, float]:
    """Scaled errors along the grid, with the first and second coefficient.

    Lambda, Lambda' and the coefficients depend on (t, x) only, so the whole
    grid shares one evaluation of them. Where Lambda > 1/2 (x > -ln ln 2)
    the cdf gap F - Lambda is Lambda*expm1(log F - log Lambda), which keeps
    its relative accuracy where both are near 1; elsewhere the difference.
    """
    co = coefficients(ncs[0].t, x)
    lam_pdf = gumbel_pdf(x)
    if lam_pdf == 0.0:
        raise DomainError(f"the Gumbel density underflows to 0 at x={x}; "
                          "the scaled error is undefined there")
    if target == "cdf":
        lam = gumbel_cdf(x)
        cdfs = [powex.exact_law.exact_cdf(nc, x) for nc in ncs]
        if lam.value > 0.5:
            # F - Lambda without cancellation, where both are near 1
            gaps = [lam.value * math.expm1(p.log_value - lam.log_value) for p in cdfs]
        else:
            gaps = [p.value - lam.value for p in cdfs]
        errs = [nc.error_scale * gap / lam_pdf for nc, gap in zip(ncs, gaps)]
        return errs, co.k1, co.k2
    errs = [nc.error_scale * (powex.exact_law.exact_pdf(nc, x) / lam_pdf - 1.0) for nc in ncs]
    return errs, co.varpi, co.tau


def error_curve(t: float, x: float, n_grid: Sequence[float], order: ApproxOrder,
                target: str = "cdf", scaling: Scaling = Scaling.RAW) -> ErrorCurve:
    """Residuals of the chosen approximation across an ascending n-grid.

    ``raw`` records approx(order) - exact with raw (unclamped) approximation
    values; the scaled variants are order-independent and always reference
    the full printed expansion. Every grid point must be >= 100 and keep x
    inside the support.
    """
    if target not in ("cdf", "pdf"):
        raise DomainError(f"target must be 'cdf' or 'pdf', got {target!r}")
    order = order if type(order) is ApproxOrder else ApproxOrder(order)
    scaling = scaling if type(scaling) is Scaling else Scaling(scaling)
    if scaling is Scaling.HALL_SCALED and target != "cdf":
        raise DomainError("hall_scaled applies to the distribution only")
    x = float(x)
    ncs = _grid_constants(t, x, n_grid)
    if scaling is Scaling.RAW:
        if target == "cdf":
            res = [cdf_approx(nc, x, order).unclamped - powex.exact_law.exact_cdf(nc, x).value
                   for nc in ncs]
        else:
            res = [pdf_approx(nc, x, order).unfloored - powex.exact_law.exact_pdf(nc, x)
                   for nc in ncs]
    else:
        errs, first, second = _scaled_errors(ncs, x, target)
        if scaling is Scaling.HALL_SCALED:
            res = [err - first for err in errs]
        else:
            res = [err - first - second / nc.b_squared for nc, err in zip(ncs, errs)]
    rows = tuple([_tuple_new(CurveRow, (nc.n, nc.b, r)) for nc, r in zip(ncs, res)])
    return _tuple_new(ErrorCurve, (float(t), x, target, order, rows, scaling))


def rate_fit(curve: ErrorCurve) -> SlopeFit:
    """OLS fit of ln|residual| against ln(b) over the usable rows.

    Rows at or below the noise floor are excluded and counted; at least
    three usable rows are required.
    """
    usable = [r for r in curve.rows if abs(r.residual) > NOISE_FLOOR]
    floored = len(curve.rows) - len(usable)
    if len(usable) < 3:
        raise InsufficientDataError(
            f"need >= 3 rows above the noise floor, have {len(usable)} "
            f"({floored} floored)"
        )
    xs = [math.log(r.b) for r in usable]
    ys = [math.log(abs(r.residual)) for r in usable]
    m = len(xs)
    xbar = sum(xs) / m
    ybar = sum(ys) / m
    sxx = sum((v - xbar) ** 2 for v in xs)
    sxy = sum((v - xbar) * (w - ybar) for v, w in zip(xs, ys))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    ssr = sum((w - intercept - slope * v) ** 2 for v, w in zip(xs, ys))
    stderr = math.sqrt(ssr / (m - 2) / sxx)
    return _tuple_new(SlopeFit, (slope, intercept, stderr, m, floored))


# |gap| smaller than this counts as converged when checking monotone decrease;
# near a coefficient zero-crossing the gap can wiggle at this scale
GAP_TOLERANCE = 1e-3


def hall_limit_check(t: float, x: float, n_grid: Sequence[float]) -> HallCheck:
    """Scaled error b^(2+2*[t=2]) * (exact_cdf - Lambda)/Lambda' against k1.

    The verdict requires |gap| to decrease along the grid (wiggles below
    1e-3 are tolerated: they indicate the sub-leading coefficient crossing
    zero) and the final |gap| to satisfy 1.5*|k2|/b^2 + 10/b^4, the slack
    covering the unprinted b^-4 coefficient.
    """
    x = float(x)
    ncs = _grid_constants(t, x, n_grid)
    errs, k1, k2 = _scaled_errors(ncs, x, "cdf")
    rows = tuple([_tuple_new(HallRow, (nc.n, err, k1, err - k1)) for nc, err in zip(ncs, errs)])
    decreasing = all(
        abs(b.gap) < abs(a.gap) or (abs(a.gap) < GAP_TOLERANCE and abs(b.gap) < GAP_TOLERANCE)
        for a, b in zip(rows, rows[1:])
    )
    u = ncs[-1].b_squared
    bound = 1.5 * abs(k2) / u + 10.0 / (u * u)
    final_gap = rows[-1].gap
    passed = decreasing and abs(final_gap) <= bound
    return _tuple_new(HallCheck, (float(t), x, rows, decreasing, final_gap, bound, passed))


def naive_t2_constants(n: float) -> NormingConstants:
    """t = 2 norming with the generic formula (c = 2, d = b^2).

    This is what t * b^(t-2), b^t give at t = 2 without the b^-2
    adjustment; the adjusted constants beat it by construction, which the
    acceptance suite quantifies.
    """
    b = solve_b(n)
    return NormingConstants(float(n), 2.0, b, 2.0, b * b)


def default_n_grid(start: float = 1e3, stop: float = 1e12, factor: float = 10.0) -> list[float]:
    """Geometric grid, start to stop inclusive, near-uniform in ln(b); at most MAX_GRID_POINTS."""
    if not (0 < start <= stop < math.inf and 1 < factor < math.inf):
        raise DomainError("need 0 < start <= stop < inf and 1 < factor < inf")
    # half-step tolerance on the inclusive endpoint, in log space
    steps = math.log(stop / start) / math.log(factor) + 0.5
    if steps >= MAX_GRID_POINTS:
        raise ResourceError(f"n-grid exceeds the {MAX_GRID_POINTS:.0e} point budget")
    grid = [start]
    for _ in range(int(steps)):
        grid.append(grid[-1] * factor)
    return grid
