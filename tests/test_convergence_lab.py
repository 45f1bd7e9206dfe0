"""Residual curves, slope fits, the scaled-error limit check, and grids."""
from __future__ import annotations

import math

import pytest

import oracles
from powex import convergence_lab
from powex import (
    ApproxOrder,
    CurveRow,
    DomainError,
    ErrorCurve,
    InsufficientDataError,
    ResourceError,
    Scaling,
    coefficients,
    default_n_grid,
    error_curve,
    exact_cdf,
    gumbel_cdf,
    hall_limit_check,
    naive_t2_constants,
    norming_constants,
    pdf_approx,
    rate_fit,
    solve_b,
    transformed_quantile,
)


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def synthetic_curve(residuals, bs) -> ErrorCurve:
    rows = tuple(CurveRow(n=float(i + 1) * 1e3, b=b, residual=r)
                 for i, (b, r) in enumerate(zip(bs, residuals)))
    return ErrorCurve(t=1.0, x=0.0, target="cdf", order=ApproxOrder.THIRD,
                      rows=rows, scaling=Scaling.RAW)


class TestErrorCurve:
    def test_raw_limit_residuals_frozen(self):
        curve = error_curve(1.0, 0.0, [1e3, 1e6], ApproxOrder.LIMIT)
        assert curve.scaling is Scaling.RAW
        assert rel_err(curve.rows[0].residual, oracles.RESIDUAL_LIMIT_T1_X0_N1E3) < 1e-12
        assert rel_err(curve.rows[1].residual, oracles.RESIDUAL_LIMIT_T1_X0_N1E6) < 1e-12
        assert curve.rows[0].b == solve_b(1e3)

    def test_raw_uses_unclamped_values(self):
        # at n = 100, t = 2, x = -2 the second-order truncation clamps; the
        # residual must use the raw number, not the clamped 0
        curve = error_curve(2.0, -2.0, [100.0], ApproxOrder.SECOND)
        from powex import cdf_approx
        nc = norming_constants(100.0, 2.0)
        want = cdf_approx(nc, -2.0, ApproxOrder.SECOND).unclamped \
            - exact_cdf(nc, -2.0).value
        assert curve.rows[0].residual == want

    def test_third_order_remainder_shrinks(self):
        curve = error_curve(1.0, 0.0, [1e3, 1e4, 1e5, 1e6],
                            ApproxOrder.THIRD,
                            scaling=Scaling.THIRD_ORDER_REMAINDER)
        mags = [abs(r.residual) for r in curve.rows]
        assert all(b < a for a, b in zip(mags, mags[1:]))

    @pytest.mark.parametrize("t,x", [(1.0, 0.5), (3.0, -0.5), (0.5, 2.0)])
    def test_raw_pdf_against_oracle(self, t, x):
        curve = error_curve(t, x, [1e3, 1e6, 1e9], ApproxOrder.THIRD, target="pdf")
        for row in curve.rows:
            nc = norming_constants(row.n, t)
            exact = float(oracles.hp_exact_pdf(row.n, t, x))
            want = pdf_approx(nc, x, ApproxOrder.THIRD).unfloored - exact
            assert abs(row.residual - want) < 1e-13 * exact

    @pytest.mark.parametrize("t,x", [(1.0, 0.0), (2.0, 1.0), (0.5, -0.5)])
    def test_hall_scaled_rows_are_the_hall_gaps(self, t, x):
        grid = [1e3, 1e6, 1e9]
        curve = error_curve(t, x, grid, ApproxOrder.THIRD, scaling=Scaling.HALL_SCALED)
        assert [r.residual for r in curve.rows] == [r.gap for r in hall_limit_check(t, x, grid).rows]

    def test_pdf_target(self):
        curve = error_curve(1.0, 0.5, [1e3, 1e6], ApproxOrder.THIRD, target="pdf",
                            scaling=Scaling.THIRD_ORDER_REMAINDER)
        assert abs(curve.rows[1].residual) < abs(curve.rows[0].residual)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            error_curve(1.0, 0.0, [], ApproxOrder.THIRD)
        with pytest.raises(DomainError):
            error_curve(1.0, 0.0, [50.0, 1e3], ApproxOrder.THIRD)
        with pytest.raises(DomainError):
            error_curve(1.0, 0.0, [1e4, 1e3], ApproxOrder.THIRD)
        with pytest.raises(DomainError):
            error_curve(1.0, 0.0, [1e3, 1e3], ApproxOrder.THIRD)

    def test_out_of_support_names_grid_point(self):
        # x = -3.5 is left of the support at n = 100, t = 2 (x_min ~ -3.21)
        # but inside it at n = 1e6 (x_min ~ -11.8)
        with pytest.raises(DomainError) as exc:
            error_curve(2.0, -3.5, [100.0, 1e6], ApproxOrder.THIRD)
        assert "n=100" in str(exc.value)
        assert exc.value.x_min == pytest.approx(-3.213387667760991, rel=1e-12)

    def test_target_and_scaling_validation(self):
        with pytest.raises(DomainError):
            error_curve(1.0, 0.0, [1e3], ApproxOrder.THIRD, target="quantile")
        with pytest.raises(DomainError):
            error_curve(1.0, 0.0, [1e3], ApproxOrder.THIRD, target="pdf",
                        scaling=Scaling.HALL_SCALED)


class TestRateFit:
    def test_exact_power_law(self):
        bs = [2.0 * 1.3 ** i for i in range(8)]
        fit = rate_fit(synthetic_curve([5.0 * b ** -2.0 for b in bs], bs))
        assert abs(fit.slope + 2.0) < 1e-10
        assert abs(fit.intercept - math.log(5.0)) < 1e-9
        assert fit.stderr < 1e-10
        assert fit.points_used == 8
        assert fit.noise_floor_hits == 0

    def test_sign_is_ignored_in_magnitude_fit(self):
        bs = [2.0 * 1.3 ** i for i in range(8)]
        res = [((-1) ** i) * 5.0 * b ** -2.0 for i, b in enumerate(bs)]
        assert abs(rate_fit(synthetic_curve(res, bs)).slope + 2.0) < 1e-10

    def test_noise_floor_exclusion(self):
        bs = [2.0, 3.0, 4.0, 5.0, 6.0]
        res = [1e-2, 1e-3, 1e-14, 5e-14, 1e-4]
        fit = rate_fit(synthetic_curve(res, bs))
        assert fit.points_used == 3
        assert fit.noise_floor_hits == 2

    def test_insufficient_data(self):
        bs = [2.0, 3.0, 4.0, 5.0]
        with pytest.raises(InsufficientDataError):
            rate_fit(synthetic_curve([1e-14, 1e-14, 1e-2, 1e-3], bs))

    def test_regression_lock_default_study(self):
        curve = error_curve(1.0, 0.0, default_n_grid(), ApproxOrder.THIRD,
                            scaling=Scaling.THIRD_ORDER_REMAINDER)
        fit = rate_fit(curve)
        assert rel_err(fit.slope, oracles.SLOPE_T1_X0) < 1e-9
        assert rel_err(fit.stderr, oracles.STDERR_T1_X0) < 1e-6
        assert fit.points_used == 10
        assert fit.noise_floor_hits == 0


class TestHallLimitCheck:
    def test_scaled_error_frozen(self):
        res = hall_limit_check(1.0, 0.0, [1e3])
        assert rel_err(res.rows[0].scaled_error, oracles.HALL_SCALED_T1_X0_N1E3) < 1e-12
        assert res.rows[0].k1_target == 1.0
        assert rel_err(res.rows[0].gap, oracles.HALL_SCALED_T1_X0_N1E3 - 1.0) < 1e-10

    def test_verdict_on_long_grid(self):
        res = hall_limit_check(1.0, 0.0, [1e6, 1e12])
        assert res.gaps_decreasing
        assert res.passed
        assert 0.0 < abs(res.final_gap) < res.bound

    def test_bound_formula(self):
        res = hall_limit_check(3.0, 1.0, [1e6, 1e12])
        nc = norming_constants(1e12, 3.0)
        k2 = coefficients(3.0, 1.0).k2
        u = nc.b_squared
        assert rel_err(res.bound, 1.5 * abs(k2) / u + 10.0 / (u * u)) < 1e-14

    def test_t2_branch(self):
        res = hall_limit_check(2.0, 0.0, [1e6, 1e12])
        assert res.passed

    def test_failure_detectable(self):
        # near (t=2.9, x=-1.5) a sub-leading coefficient crosses zero, the
        # |gap| grows from 0.0046 to 0.0085 over the grid, and both exceed
        # the 1e-3 convergence tolerance: the verdict must be a failure
        res = hall_limit_check(2.9, -1.5, [1e6, 1e12])
        assert not res.gaps_decreasing
        assert not res.passed


class TestRightTail:
    """Where Lambda(x) > 1/2 the scaled error takes F - Lambda as
    Lambda*expm1(log F - log Lambda): at x = 40 both are within an ulp of 1,
    and their difference was rounding noise (off by up to 23% at t = 2)."""

    @pytest.mark.parametrize("n", [1e3, 1e4, 1e5])
    @pytest.mark.parametrize("t", [1.0, 2.0])
    def test_against_oracle_at_same_g(self, t, n):
        x = 40.0
        nc = norming_constants(n, t)
        gap = oracles.hp_exact_cdf_at_g(n, transformed_quantile(nc, x).g) - oracles.hp_gumbel_cdf(x)
        err = nc.error_scale * gap / oracles.hp_gumbel_pdf(x)
        assert rel_err(hall_limit_check(t, x, [n]).rows[0].scaled_error, float(err)) < 1e-9
        co = coefficients(t, x)
        # the residual that rates prints
        row, = error_curve(t, x, [n], ApproxOrder.THIRD, scaling=Scaling.THIRD_ORDER_REMAINDER).rows
        assert rel_err(row.residual, float(err - co.k1 - co.k2 / nc.b_squared)) < 1e-9


class TestNaiveT2:
    def test_constants(self):
        nc = naive_t2_constants(1e6)
        b = solve_b(1e6)
        assert nc.c == 2.0
        assert nc == (1e6, 2.0, b, 2.0, b * b)

    def test_adjustment_beats_naive(self):
        lam = gumbel_cdf(0.0).value
        adjusted = abs(exact_cdf(norming_constants(1e6, 2.0), 0.0).value - lam)
        naive = abs(exact_cdf(naive_t2_constants(1e6), 0.0).value - lam)
        assert naive > adjusted


class TestDefaultNGrid:
    def test_default(self):
        grid = default_n_grid()
        assert len(grid) == 10
        assert grid[0] == 1e3
        assert rel_err(grid[-1], 1e12) < 1e-9
        for a, b in zip(grid, grid[1:]):
            assert rel_err(b / a, 10.0) < 1e-12

    def test_inclusive_endpoint_tolerance(self):
        assert len(default_n_grid(1e3, 9.99e11, 10.0)) == 10
        assert len(default_n_grid(1e3, 1e5, 10.0)) == 3

    def test_budget(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("grid built before the budget check")

        monkeypatch.setattr(convergence_lab, "range", refuse, raising=False)
        with pytest.raises(ResourceError, match="point budget"):
            default_n_grid(1e3, 1e300, 1.0000001)  # about 6.8e9 points
        with pytest.raises(ResourceError, match="point budget"):
            default_n_grid(1e-300, 1e300, 10.0)  # stop/start overflows to inf
        monkeypatch.undo()
        monkeypatch.setattr(convergence_lab, "MAX_GRID_POINTS", 10)
        assert len(default_n_grid()) == 10
        with pytest.raises(ResourceError):
            default_n_grid(1e3, 1e13, 10.0)

    def test_validation(self):
        for bad in ((1e3, math.inf, 10.0), (1e3, 1e6, math.inf), (math.nan, 1e6, 10.0)):
            with pytest.raises(DomainError):
                default_n_grid(*bad)
        with pytest.raises(DomainError):
            default_n_grid(0.0, 1e6, 10.0)
        with pytest.raises(DomainError):
            default_n_grid(1e6, 1e3, 10.0)
        with pytest.raises(DomainError):
            default_n_grid(1e3, 1e6, 1.0)
