"""Expansion coefficients and the truncated distribution/density
approximations.

The strongest checks here are structural: the density coefficients must be
the derivative-transported distribution coefficients,

    varpi = k1' + (e^{-x} - 1) k1,      tau = k2' + (e^{-x} - 1) k2,

because f = F' and (Lambda' K)' = Lambda' (K' + (e^{-x} - 1) K). Both
branches must satisfy this with their own polynomials.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from oracles import rel_err
from powex import (
    ApproxOrder,
    Density,
    DomainError,
    NormingConstants,
    coefficients,
    cdf_approx,
    exact_cdf,
    exact_pdf,
    gumbel_cdf,
    gumbel_pdf,
    norming_constants,
    pdf_approx,
    std_normal_pdf,
    survival,
    transformed_quantile,
)


# power indices away from the t = 2 branch point (numeric differentiation in
# t is never done, but staying clear keeps the branch choice unambiguous)
ts_general = st.one_of(st.floats(min_value=0.2, max_value=1.9),
                       st.floats(min_value=2.1, max_value=5.0))


class TestCoefficients:
    def test_values_at_zero_general(self):
        # at x = 0 every t-dependence drops out of the t != 2 branch
        for t in (0.5, 1.0, 3.0):
            co = coefficients(t, 0.0)
            assert (co.k1, co.k2, co.varpi, co.tau) == (1.0, -2.5, 1.0, -2.5)
            assert (co.theta1, co.theta2) == (1.0, 3.0)

    def test_values_at_zero_t2(self):
        co = coefficients(2.0, 0.0)
        assert co.k1 == -3.5
        assert co.k2 == 43.0 / 3.0
        assert co.varpi == -3.0
        assert co.tau == 43.0 / 3.0 - 1.0 / 3.0
        assert (co.theta1, co.theta2) == (3.5, 43.0 / 3.0)

    def test_t2_point_values(self):
        co = coefficients(2.0, 1.0)
        assert co.theta1 == 3.5 + 3.0 + 1.0
        assert co.theta2 == 43.0 / 3.0 + 14.0 + 6.0 + 4.0 / 3.0
        assert co.k1 == -co.theta1
        assert co.k2 == co.theta2
        e = math.exp(-1.0)
        assert rel_err(co.varpi, 0.5 + 1.0 + 1.0 - e * co.theta1) < 1e-15
        assert rel_err(co.tau, e * co.theta2 - (1.0 / 3.0 + 2.0 + 2.0 + 4.0 / 3.0)) < 1e-15

    def test_general_point_values(self):
        # t = 3, x = 1 by hand: theta1 = 3/2, theta2 = 155/24, m1 = -3/2,
        # m2 = 83/24
        co = coefficients(3.0, 1.0)
        e = math.exp(-1.0)
        assert co.theta1 == 1.5
        assert rel_err(co.theta2, 155.0 / 24.0) < 1e-15
        assert co.k1 == co.theta1
        assert rel_err(co.k2, -(155.0 / 24.0 - 0.5 * e * 2.25)) < 1e-14
        assert rel_err(co.varpi, -1.5 + e * 1.5) < 1e-14
        want_tau = -1.5 * e * 1.5 + 83.0 / 24.0 - e * (155.0 / 24.0 - 0.5 * e * 2.25)
        assert rel_err(co.tau, want_tau) < 1e-13

    def test_branch_jump_is_real(self):
        # the t -> 2 limit of the general polynomials is not the t = 2 set
        near = coefficients(2.0 - 1e-9, 0.0)
        exact_two = coefficients(2.0, 0.0)
        assert abs(near.k1 - 1.0) < 1e-8
        assert exact_two.k1 == -3.5

    @settings(max_examples=120)
    @given(ts_general | st.just(2.0), st.floats(min_value=-2.0, max_value=3.0))
    def test_varpi_is_transported_k1(self, t, x):
        h = 1e-5
        co = coefficients(t, x)
        k1p = (coefficients(t, x + h).k1 - coefficients(t, x - h).k1) / (2 * h)
        want = k1p + (math.exp(-x) - 1.0) * co.k1
        scale = max(1.0, abs(co.varpi), abs(co.k1))
        assert abs(co.varpi - want) < 1e-8 * scale

    @settings(max_examples=120)
    @given(ts_general | st.just(2.0), st.floats(min_value=-2.0, max_value=3.0))
    def test_tau_is_transported_k2(self, t, x):
        h = 1e-5
        co = coefficients(t, x)
        k2p = (coefficients(t, x + h).k2 - coefficients(t, x - h).k2) / (2 * h)
        want = k2p + (math.exp(-x) - 1.0) * co.k2
        scale = max(1.0, abs(co.tau), abs(co.k2))
        assert abs(co.tau - want) < 1e-7 * scale

    def test_non_finite_x(self):
        with pytest.raises(DomainError):
            coefficients(1.0, math.nan)

    @pytest.mark.parametrize("t,x", [(1.0, 1e300), (1.0, 1e80), (2.0, 1e200), (0.5, -1000.0),
                                     (8.0, 8e76)])
    def test_overflow(self, t, x):
        # x**4, x**3 and e^{-x} pass the float range; at (8, 8e76)
        # (t-2)^2/8 * x^4 reaches inf while x**4 stays finite, which left
        # k2 and tau inf without an OverflowError
        with pytest.raises(DomainError, match="overflow"):
            coefficients(t, x)


class TestHandBuiltPowerIndex:
    """A NormingConstants built by hand skips norming_constants' check of t;
    the approximations and coefficients still refuse a t that is not a
    positive finite number, with the same error."""

    @pytest.mark.parametrize("t,message", [
        (0.0, "power index must be > 0, got 0.0"),
        (-1.0, "power index must be > 0, got -1.0"),
        (math.nan, "t must be finite, got nan"),
        (math.inf, "t must be finite, got inf"),
        (0, "power index must be > 0, got 0.0"),
        (-1, "power index must be > 0, got -1.0"),
    ])
    def test_refused_with_the_same_message(self, t, message):
        good = norming_constants(1000.0, 1.0)
        nc = NormingConstants(good.n, t, good.b, good.c, good.d)
        for approx in (cdf_approx, pdf_approx):
            for order in (ApproxOrder.SECOND, ApproxOrder.THIRD):
                with pytest.raises(DomainError) as exc:
                    approx(nc, 0.5, order)
                assert str(exc.value) == message
        with pytest.raises(DomainError) as exc:
            coefficients(t, 0.5)
        assert str(exc.value) == message


class TestNonFloatPowerIndex:
    """An int or numpy power index is taken as the float of the same value:
    every record has the bits it has for that float, and int 2 takes the
    t = 2 branch."""

    @staticmethod
    def bits(record):
        return [v.hex() if type(v) is float else v for v in record]

    @pytest.mark.parametrize("t", [1, 2, np.float64(0.5), np.int64(3)])
    def test_same_bits_as_the_float(self, t):
        for n in (1e3, 1e6):
            want = norming_constants(n, float(t))
            nc = norming_constants(n, t)
            assert type(nc.t) is float and self.bits(nc) == self.bits(want)
            # a hand-built record keeps t as given; the kernels take its float
            built = NormingConstants(want.n, t, want.b, want.c, want.d)
            for x in (-0.5, 0.0, 1.25):
                assert self.bits(coefficients(t, x)) == self.bits(coefficients(float(t), x))
                assert self.bits(exact_cdf(nc, x)) == self.bits(exact_cdf(want, x))
                for order in ApproxOrder:
                    for approx in (cdf_approx, pdf_approx):
                        expected = self.bits(approx(want, x, order))
                        assert self.bits(approx(nc, x, order)) == expected
                        assert self.bits(approx(built, x, order)) == expected

    def test_int_two_takes_the_t2_branch(self):
        nc = norming_constants(1e6, 2)
        u = nc.b * nc.b
        assert (nc.c, nc.d) == (2.0 * (1.0 - 1.0 / u), u - 2.0 / u)
        assert coefficients(2, 0.0).k1 == -3.5  # -theta1 = -(7/2 + 3x + x^2)


class TestCdfApprox:
    def test_frozen_orders(self):
        nc = norming_constants(1000.0, 1.0)
        assert cdf_approx(nc, 0.0, ApproxOrder.LIMIT).value == gumbel_cdf(0.0).value
        assert rel_err(cdf_approx(nc, 0.0, ApproxOrder.SECOND).value,
                       oracles.CDF_SECOND_1000_T1_X0) < 5e-15
        assert rel_err(cdf_approx(nc, 0.0, ApproxOrder.THIRD).value,
                       oracles.CDF_THIRD_1000_T1_X0) < 5e-15

    def test_exact_order_delegates(self):
        nc = norming_constants(1000.0, 2.0)
        assert cdf_approx(nc, 0.5, ApproxOrder.EXACT).value == exact_cdf(nc, 0.5).value

    def test_order_accepts_strings(self):
        nc = norming_constants(1000.0, 1.0)
        assert cdf_approx(nc, 0.0, "third").value == \
            cdf_approx(nc, 0.0, ApproxOrder.THIRD).value
        with pytest.raises(ValueError):
            cdf_approx(nc, 0.0, "fourth")

    def test_clamped_left_tail(self):
        # small n, far left: the truncation goes negative and is clamped
        nc = norming_constants(10.0, 2.0)
        p = cdf_approx(nc, -2.0, ApproxOrder.SECOND)
        assert p.clamped
        assert p.value == 0.0
        assert p.log_value == -math.inf
        assert p.raw < 0.0
        assert p.unclamped == p.raw

    def test_unclamped_case_keeps_raw_none(self):
        nc = norming_constants(1000.0, 1.0)
        p = cdf_approx(nc, 0.0, ApproxOrder.THIRD)
        assert not p.clamped and p.raw is None

    @settings(max_examples=80)
    @given(st.floats(min_value=math.log(5.0), max_value=math.log(1e12)),
           ts_general | st.just(2.0),
           st.floats(min_value=-3.0, max_value=6.0),
           st.sampled_from([ApproxOrder.LIMIT, ApproxOrder.SECOND, ApproxOrder.THIRD]))
    def test_always_a_probability(self, log_n, t, x, order):
        p = cdf_approx(norming_constants(math.exp(log_n), t), x, order)
        assert 0.0 <= p.value <= 1.0
        if p.value > 0.0:
            assert rel_err(math.exp(p.log_value), p.value) < 1e-12

    def test_third_order_closer_than_limit(self):
        nc = norming_constants(1e6, 1.0)
        exact = exact_cdf(nc, 0.0).value
        err_limit = abs(cdf_approx(nc, 0.0, ApproxOrder.LIMIT).value - exact)
        err_third = abs(cdf_approx(nc, 0.0, ApproxOrder.THIRD).value - exact)
        assert err_third < err_limit / 10.0


class TestPdfApprox:
    def test_limit_is_gumbel(self):
        nc = norming_constants(1000.0, 1.0)
        assert pdf_approx(nc, 0.7, ApproxOrder.LIMIT).value == gumbel_pdf(0.7)

    def test_exact_order_delegates(self):
        nc = norming_constants(1000.0, 2.0)
        assert pdf_approx(nc, 0.5, ApproxOrder.EXACT).value == exact_pdf(nc, 0.5)

    def test_frozen_ratio_t2(self):
        # second+third corrections at (1000, 2, 0): 1 + (varpi + tau/u)/u^2
        nc = norming_constants(1000.0, 2.0)
        got = pdf_approx(nc, 0.0, ApproxOrder.THIRD).value / gumbel_pdf(0.0)
        assert rel_err(got, oracles.PDF_RATIO_EXPANSION_1000_T2_X0) < 5e-15

    def test_floored_left_tail(self):
        nc = norming_constants(10.0, 2.0)
        dens = pdf_approx(nc, -3.0, ApproxOrder.SECOND)
        assert type(dens) is Density and dens == Density(*dens)
        assert dens.floored
        assert dens.value == 0.0
        assert dens.raw < 0.0
        assert dens.unfloored == dens.raw

    def test_unfloored_keeps_raw_none(self):
        dens = pdf_approx(norming_constants(1000.0, 1.0), 0.0, ApproxOrder.THIRD)
        assert not dens.floored and dens.raw is None
        assert dens.unfloored == dens.value

    @settings(max_examples=80)
    @given(st.floats(min_value=math.log(100.0), max_value=math.log(1e10)),
           ts_general | st.just(2.0),
           st.floats(min_value=-1.0, max_value=5.0))
    def test_pdf_matches_cdf_derivative_at_matched_order(self, log_n, t, x):
        # the truncations are derivative-compatible order by order
        nc = norming_constants(math.exp(log_n), t)
        h = 1e-5
        for order in (ApproxOrder.SECOND, ApproxOrder.THIRD):
            diff = (cdf_approx(nc, x + h, order).unclamped
                    - cdf_approx(nc, x - h, order).unclamped) / (2 * h)
            dens = pdf_approx(nc, x, order).unfloored
            assert abs(diff - dens) < 1e-6 * max(1.0, abs(dens))


# Frozen at n = 1000, t = 2, x = 0.5 before orders resolved by lookup; the
# same numbers are in the t = 2 full-precision table locks of test_cli.py
FROZEN_T2_CDF = {"limit": 0.545239211892605, "second": 0.526805674205569,
                 "third": 0.5351267982752075, "exact": 0.5316948308966682}
FROZEN_T2_PDF = {"limit": 0.3307042988904181, "second": 0.3239127306607948,
                 "third": 0.3282361715262478, "exact": 0.3264030722009036}


def third_order_sup_error(target: str, t: float) -> float:
    """Largest |third order - exact| at n = 1e6 over x = -1.5, -1.25, ..., 4."""
    nc = norming_constants(1e6, t)
    xs = [-1.5 + 0.25 * i for i in range(23)]
    if target == "cdf":
        return max(abs(cdf_approx(nc, x, ApproxOrder.THIRD).unclamped
                       - exact_cdf(nc, x).value) for x in xs)
    return max(abs(pdf_approx(nc, x, ApproxOrder.THIRD).unfloored - exact_pdf(nc, x))
               for x in xs)


class TestNoDegradationNearTwo:
    """The t != 2 expansion runs smoothly up to t = 2: only t == 2.0 takes
    the t = 2 formulas, and no index beside it needs a flag."""

    @pytest.mark.parametrize("target", ["cdf", "pdf"])
    def test_sup_error_is_continuous_through_the_branch_point(self, target):
        lo, hi = sorted((third_order_sup_error(target, 1.99),
                         third_order_sup_error(target, 2.01)))
        at_two = third_order_sup_error(target, 2.0)
        for t in (1.999, 1.9999999, 2.0000001, 2.0005):
            err = third_order_sup_error(target, t)
            assert 0.99 * lo <= err <= 1.01 * hi, t
            assert err >= 3.0 * at_two, t


class TestOrderLookup:
    @pytest.mark.parametrize("order", list(ApproxOrder))
    def test_member_and_value_give_the_frozen_numbers(self, order):
        nc = norming_constants(1000.0, 2.0)
        for key in (order, order.value):
            assert cdf_approx(nc, 0.5, key).value == FROZEN_T2_CDF[order.value]
            assert pdf_approx(nc, 0.5, key).value == FROZEN_T2_PDF[order.value]
        assert cdf_approx(nc, 0.5, order) == cdf_approx(nc, 0.5, order.value)
        assert pdf_approx(nc, 0.5, order) == pdf_approx(nc, 0.5, order.value)

    @pytest.mark.parametrize("order", ["fourth", "THIRD", "", None, 3, ["third"]])
    def test_anything_else_is_a_value_error(self, order):
        nc = norming_constants(1000.0, 2.0)
        with pytest.raises(ValueError):
            cdf_approx(nc, 0.5, order)
        with pytest.raises(ValueError):
            pdf_approx(nc, 0.5, order)


# The survival-power factor nu and the density factor n * d/dx Phi(g) have
# expansions whose product is the density expansion. No caller of the
# library needs them, so they live here: nu from the library's coefficients,
# the density factor from its own statement of the terms, and the product
# checks the library's varpi and tau against both.

def density_factor_terms(t: float, x: float) -> tuple[float, float]:
    """Density factor n * d/dx Phi(g) = e^{-x}(1 + m1/b^2 + m2/b^4 + ...): (h, m2),
    m1 = x*h; at t = 2 e^{-x}(1 + p1/b^4 - p2/b^6 + ...): (p1, p2)."""
    if t == 2.0:
        return 0.5 + x + x * x, 1.0 / 3.0 + 2.0 * x + 2.0 * x * x + (4.0 / 3.0) * x ** 3
    h = 1.0 - t + 0.5 * (t - 2.0) * x
    m2 = x * x * ((1.0 - t) * (1.0 - 2.0 * t) / 2.0
                  + 5.0 * (1.0 - t) * (t - 2.0) / 6.0 * x
                  + (t - 2.0) ** 2 / 8.0 * x * x)
    return h, m2


def nu_expansion(nc, x: float) -> float:
    """Phi^{n-1}(g) - (1 - Phi(g))^{n-1}, truncated after b^-4 (t != 2) or
    b^-6 (t = 2, whose leading correction only enters at b^-4)."""
    co = coefficients(nc.t, x)  # refuses an x where e^{-x} or a coefficient overflows
    u = nc.b_squared
    emx, lam = math.exp(-x), gumbel_cdf(x).value
    if nc.t == 2.0:
        return lam * (1.0 - emx / (u * u) * co.theta1 + emx / (u ** 3) * co.theta2)
    return lam * (1.0 + emx / u * co.theta1
                  - emx / (u * u) * (co.theta2 - 0.5 * emx * co.theta1 ** 2))


def density_factor_expansion(nc, x: float) -> float:
    """n * d/dx Phi((c*x + d)^(1/t)), truncated at b^-4 (t != 2) or b^-6
    (t = 2); the leading term is e^{-x} in both branches."""
    u = nc.b_squared
    first, second = density_factor_terms(nc.t, x)
    if nc.t == 2.0:
        return math.exp(-x) * (1.0 + first / (u * u) - second / u ** 3)
    return math.exp(-x) * (1.0 + x * first / u + second / (u * u))


class TestNuExpansion:
    def test_frozen_values(self):
        assert rel_err(nu_expansion(norming_constants(1000.0, 1.0), 0.0),
                       oracles.NU_1000_T1_X0) < 5e-15
        assert rel_err(nu_expansion(norming_constants(1000.0, 2.0), 0.0),
                       oracles.NU_1000_T2_X0) < 5e-15

    @settings(max_examples=80)
    @given(st.floats(min_value=math.log(10.0), max_value=math.log(1e12)),
           ts_general | st.just(2.0),
           st.floats(min_value=-1.0, max_value=4.0))
    def test_reproduces_third_order_cdf(self, log_n, t, x):
        # Lambda(1 + e^{-x} theta-terms) multiplies out to the k1, k2 form
        nc = norming_constants(math.exp(log_n), t)
        assume(nc.c * x + nc.d > 0.0)
        a = nu_expansion(nc, x)
        b = cdf_approx(nc, x, ApproxOrder.THIRD).unclamped
        assert abs(a - b) < 1e-13 * max(1.0, abs(a))

    def test_tracks_exact_survival_power(self):
        # nu approximates Phi^{n-1}(g) - (1 - Phi(g))^{n-1}; the gap shrinks
        # with n at the b^-4 scale
        gaps = []
        for n in (1e3, 1e6):
            nc = norming_constants(n, 1.0)
            g = transformed_quantile(nc, 0.5).g
            exact = (math.exp((n - 1.0) * survival(-g).log_value)
                     - math.exp((n - 1.0) * survival(g).log_value))
            gaps.append(abs(nu_expansion(nc, 0.5) - exact))
        assert gaps[0] < 50.0 / norming_constants(1e3, 1.0).b_squared ** 3
        assert gaps[1] < gaps[0] / 10.0

    def test_left_tail_past_the_exp_range(self):
        # on the support (x_min is about -2.3e3 here), but e^{-x} overflows:
        # the coefficients refuse the point
        nc = norming_constants(1e150, 0.3)
        with pytest.raises(DomainError, match="overflow at x=-710.0"):
            nu_expansion(nc, -710.0)


class TestDensityFactorExpansion:
    def test_frozen_values(self):
        nc = norming_constants(1000.0, 2.0)
        assert rel_err(density_factor_expansion(nc, 0.0),
                       oracles.DENSITY_FACTOR_EXPANSION_1000_T2_X0) < 5e-15

    def test_tracks_exact_factor(self):
        # the factor is n * phi(g) * g'; expansion error drops with n
        gaps = []
        for n in (1e3, 1e6):
            nc = norming_constants(n, 2.0)
            for x in (0.0, 1.0):
                tq = transformed_quantile(nc, x)
                exact = n * std_normal_pdf(tq.g) * tq.dg_dx
                gaps.append(abs(density_factor_expansion(nc, x) - exact))
        assert max(gaps[:2]) < 1e-3
        assert gaps[2] < gaps[0] / 10.0 and gaps[3] < gaps[1] / 10.0

    def test_exact_factor_frozen(self):
        nc = norming_constants(1000.0, 2.0)
        for x, want in ((0.0, oracles.DENSITY_FACTOR_EXACT_1000_T2_X0),
                        (1.0, oracles.DENSITY_FACTOR_EXACT_1000_T2_X1)):
            tq = transformed_quantile(nc, x)
            assert rel_err(1000.0 * std_normal_pdf(tq.g) * tq.dg_dx, want) < 5e-14

    def test_leading_term(self):
        # leading behavior is e^{-x} for both branches: the deviation is
        # O(1/u) and shrinks as n grows
        for t in (1.0, 2.0, 3.0):
            devs = [rel_err(density_factor_expansion(norming_constants(n, t), 1.0),
                            math.exp(-1.0))
                    for n in (1e6, 1e10, 1e14)]
            assert devs[0] < 0.2
            assert devs[2] < devs[1] < devs[0]

    @settings(max_examples=80)
    @given(st.floats(min_value=math.log(10.0), max_value=math.log(1e12)),
           ts_general | st.just(2.0),
           st.floats(min_value=-1.0, max_value=4.0))
    def test_product_is_the_density_expansion(self, log_n, t, x):
        # with nu = Lambda(1 + s1/u^a + s2/u^(a+1)) and the factor
        # e^{-x}(1 + d1/u^a + d2/u^(a+1)), u = b^2 and a = 1 + [t=2], the
        # product is Lambda'(1 + varpi/u^a + tau/u^(a+1)) plus the cross
        # terms past the third order
        nc = norming_constants(math.exp(log_n), t)
        assume(nc.c * x + nc.d > 0.0)
        co = coefficients(t, x)
        first, second = density_factor_terms(t, x)
        u, emx = nc.b_squared, math.exp(-x)
        if nc.t == 2.0:
            s1, s2, d1, d2 = -emx * co.theta1, emx * co.theta2, first, -second
            rest = s1 * d1 / u ** 4 + (s1 * d2 + s2 * d1) / u ** 5 + s2 * d2 / u ** 6
        else:
            s1, s2, d1, d2 = emx * co.theta1, emx * co.k2, x * first, second
            rest = (s1 * d2 + s2 * d1) / u ** 3 + s2 * d2 / u ** 4
        product = nu_expansion(nc, x) * density_factor_expansion(nc, x)
        want = pdf_approx(nc, x, ApproxOrder.THIRD).unfloored + gumbel_pdf(x) * rest
        assert abs(product - want) < 1e-13 * max(1.0, abs(want))
