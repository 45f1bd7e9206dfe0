"""Norming equation solver and the derived (b, c, d) constants."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from powex import (
    DomainError,
    exact_cdf,
    exact_pdf,
    norming_constants,
    solve_b,
    std_normal_pdf,
    transformed_quantile,
)
from powex.cli import parse_and_dispatch


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def norming_residual(n: float, b: float) -> float:
    # |2 pi b^2 e^{b^2} / n^2 - 1| in log form, overflow-free
    u = b * b
    return abs(math.exp(math.log(2.0 * math.pi) + math.log(u) + u - 2.0 * math.log(n)) - 1.0)


class TestSolveB:
    @pytest.mark.parametrize("n", sorted(oracles.U_SOLUTIONS))
    def test_frozen_roots(self, n):
        assert rel_err(solve_b(n), math.sqrt(oracles.U_SOLUTIONS[n])) < 1e-14

    @pytest.mark.parametrize("n", [1e65, 1e100, 1e300])
    def test_against_bisection_at_huge_n(self, n):
        # the root is 1372.49 at n = 1e300, far above the frozen roots
        assert rel_err(solve_b(n) ** 2, float(oracles.bisect_u(n))) < 1e-15

    @pytest.mark.parametrize("n", [2.0, 2.5, 10.0, 1e3, 1e6, 1e12, 1e14])
    def test_residual_within_contract(self, n):
        assert norming_residual(n, solve_b(n)) <= 1e-12

    @given(st.floats(min_value=math.log(2.0), max_value=math.log(1e14)))
    def test_residual_property(self, log_n):
        n = math.exp(log_n)
        assert norming_residual(n, solve_b(n)) <= 1e-12

    @given(st.floats(min_value=2.0, max_value=1e6),
           st.floats(min_value=1.0001, max_value=10.0))
    def test_strictly_increasing(self, n, factor):
        assert solve_b(n * factor) > solve_b(n)

    def test_asymptotic_scale(self):
        # b^2 ~ 2 ln n minus a log correction; the ratio sits below 1
        u = solve_b(1e12) ** 2
        assert 0.8 <= u / (2.0 * math.log(1e12)) <= 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            solve_b(1.0)
        with pytest.raises(DomainError):
            solve_b(1.999999)
        with pytest.raises(DomainError):
            solve_b(math.nan)
        with pytest.raises(DomainError):
            solve_b(math.inf)
        solve_b(2.0)  # boundary admitted


class TestNormingConstants:
    def test_frozen_t1(self):
        nc = norming_constants(1000.0, 1.0)
        assert rel_err(nc.b, oracles.B_1000) < 1e-14
        assert rel_err(nc.c, oracles.C_1000_T1) < 1e-14
        assert nc.d == nc.b
        assert nc == (1000.0, 1.0, nc.b, nc.c, nc.d)

    def test_frozen_t2(self):
        nc = norming_constants(1000.0, 2.0)
        assert rel_err(nc.c, oracles.C_1000_T2) < 1e-14
        assert rel_err(nc.d, oracles.D_1000_T2) < 1e-14
        assert nc == (1000.0, 2.0, nc.b, nc.c, nc.d)

    def test_t1_relations(self):
        nc = norming_constants(12345.0, 1.0)
        assert rel_err(nc.c * nc.b, 1.0) < 1e-15
        assert nc.d == nc.b

    @settings(max_examples=60)
    @given(st.floats(min_value=math.log(5.0), max_value=math.log(1e12)),
           st.floats(min_value=0.2, max_value=4.0))
    def test_general_relations(self, log_n, t):
        n = math.exp(log_n)
        nc = norming_constants(n, t)
        u = nc.b_squared
        if t == 2.0:
            assert rel_err(nc.c, 2.0 * (1.0 - 1.0 / u)) < 1e-14
            assert rel_err(nc.d, u - 2.0 / u) < 1e-14
        else:
            assert rel_err(nc.c, t * nc.b ** (t - 2.0)) < 1e-14
            assert rel_err(nc.d, nc.b ** t) < 1e-14
        assert nc.b_squared == nc.b * nc.b

    def test_density_identity_at_center(self):
        # at t = 1, x = 0: n * c * phi(g(0)) = n * phi(b)/b = 1 by the
        # norming equation itself
        for n in (100.0, 1e4, 1e8):
            nc = norming_constants(n, 1.0)
            g = transformed_quantile(nc, 0.0).g
            assert rel_err(n * nc.c * std_normal_pdf(g), 1.0) < 1e-12

    def test_t2_small_n_rejected(self):
        # b^2 <= 1 for n <= sqrt(2 pi e): no positive scaling exists
        for n in (2.0, 3.0, 4.0, 4.13):
            with pytest.raises(DomainError):
                norming_constants(n, 2.0)
        nc = norming_constants(5.0, 2.0)
        assert nc.c > 0.0

    def test_invalid_power(self):
        with pytest.raises(DomainError):
            norming_constants(100.0, 0.0)
        with pytest.raises(DomainError):
            norming_constants(100.0, -1.0)
        with pytest.raises(DomainError):
            norming_constants(100.0, math.nan)

    def test_overflow(self):
        # b^(t-2) passes the float range at n = 1e6 once t exceeds about 456
        assert math.isfinite(norming_constants(1e6, 400.0).c)
        with pytest.raises(DomainError, match="overflow"):
            norming_constants(1e6, 1000.0)

    @pytest.mark.parametrize("n,t", [
        (2.0, 3000.0),   # b < 1, so b^t underflows to 0
        (2.0, 1650.0),   # d = b^t is subnormal, about 1.4e-312
        (1000.0, 5e-324),  # c = t*b^(t-2) underflows to 0
    ])
    def test_underflow(self, n, t):
        with pytest.raises(DomainError, match="underflow"):
            norming_constants(n, t)


class TestBranchPoint:
    def test_c_jumps_at_t_two(self):
        # t == 2.0 alone selects the t = 2 formulas, which do not continue
        # the t != 2 ones: c jumps from ~2 to 2(1 - 1/b^2)
        assert abs(norming_constants(1000.0, 2.0 - 1e-12).c - 2.0) < 1e-9
        assert abs(norming_constants(1000.0, 2.0).c - 1.7939205107404277) < 1e-12


class TestTransformedQuantile:
    def test_linear_case(self):
        # t = 1: g = c x + d exactly, derivative c
        nc = norming_constants(1000.0, 1.0)
        tq = transformed_quantile(nc, 2.0)
        assert tq.g == nc.c * 2.0 + nc.d
        assert tq.dg_dx == nc.c

    def test_center_is_b(self):
        for t in (0.5, 1.0, 3.0):
            nc = norming_constants(1000.0, t)
            assert rel_err(transformed_quantile(nc, 0.0).g, nc.b) < 1e-14

    @settings(max_examples=60)
    @given(st.floats(min_value=0.3, max_value=4.0),
           st.floats(min_value=-1.0, max_value=5.0))
    def test_derivative_matches_difference(self, t, x):
        nc = norming_constants(1e5, t)
        h = 1e-6
        tq = transformed_quantile(nc, x)
        diff = (transformed_quantile(nc, x + h).g - transformed_quantile(nc, x - h).g) / (2 * h)
        assert rel_err(diff, tq.dg_dx) < 1e-7

    def test_support_boundary(self):
        nc = norming_constants(1000.0, 2.0)
        x_min = -nc.d / nc.c
        with pytest.raises(DomainError) as exc:
            transformed_quantile(nc, x_min - 0.01)
        assert exc.value.x_min == pytest.approx(x_min, rel=1e-15)
        with pytest.raises(DomainError):
            transformed_quantile(nc, x_min)  # arg == 0 is outside too
        assert transformed_quantile(nc, x_min + 1e-9).g > 0.0

    def test_non_finite_x(self):
        nc = norming_constants(1000.0, 1.0)
        with pytest.raises(DomainError):
            transformed_quantile(nc, math.inf)

    def test_overflow(self):
        # (c*x + d)^(1/t) passes the float range for t < 1 and large x
        nc = norming_constants(10.0, 0.5)
        assert math.isfinite(transformed_quantile(nc, 1e150).g)
        with pytest.raises(DomainError) as excinfo:
            transformed_quantile(nc, 1e300)
        assert str(excinfo.value) == "(c*x + d)^(1/t) overflows at x=1e+300"

    def test_derivative_overflow(self):
        # n = 2, t = 1587 keeps c and d normal; next to x_min g is finite but
        # g' = (c/t)*(c*x + d)^(1/t - 1) passes the float range: the density
        # is refused, the distribution function is not
        nc = norming_constants(2.0, 1587.0)
        x = math.nextafter(-nc.d / nc.c, math.inf)
        message = f"g'(x) = (c/t)*(c*x + d)^(1/t - 1) overflows at x={x}"
        for f in (transformed_quantile, exact_pdf):
            with pytest.raises(DomainError) as excinfo:
                f(nc, x)
            assert str(excinfo.value) == message
        assert 0.0 < exact_cdf(nc, x).value < 1.0

    def test_derivative_product_overflow(self, capsys):
        # at n = 2, t = 0.001 the power (c*x + d)^(1/t - 1) and g are finite,
        # but g' = (c/t) times that power is not: it is refused as when the
        # power overflows, not returned as inf (a density of 0.0)
        nc = norming_constants(2.0, 0.001)
        x = 433.1335908104047
        arg = nc.c * x + nc.d
        assert math.isfinite(arg ** (1.0 / nc.t)) and math.isfinite(arg ** (1.0 / nc.t - 1.0))
        message = f"g'(x) = (c/t)*(c*x + d)^(1/t - 1) overflows at x={x}"
        for f in (transformed_quantile, exact_pdf):
            with pytest.raises(DomainError) as excinfo:
                f(nc, x)
            assert str(excinfo.value) == message
        code = parse_and_dispatch(["table", "--n", "2", "--t", "0.001", "--x", repr(x),
                                   "--orders", "exact", "--target", "pdf"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (1, "", f"error: {message}\n")
