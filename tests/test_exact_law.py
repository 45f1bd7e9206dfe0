"""The exact finite-n law: log-domain evaluation, the density's plus sign,
vectorization, and distribution-function semantics."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from powex import (
    DomainError,
    PowexError,
    exact_cdf,
    exact_cdf_values,
    exact_pdf,
    norming_constants,
    survival,
    transformed_quantile,
)


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


class TestExactCdf:
    def test_frozen_point(self):
        nc = norming_constants(1000.0, 1.0)
        p = exact_cdf(nc, 0.0)
        assert rel_err(p.value, oracles.EXACT_CDF_1000_T1_X0) < 5e-15
        assert rel_err(math.exp(p.log_value), p.value) < 1e-14

    def test_frozen_point_t2_small_n(self):
        nc = norming_constants(10.0, 2.0)
        assert rel_err(exact_cdf(nc, 0.0).value, oracles.EXACT_CDF_10_T2_X0) < 5e-15

    @pytest.mark.parametrize("n,t,x", [
        (2.0, 1.0, 0.0),
        (5.0, 0.5, 1.0),
        (100.0, 3.0, -0.5),
        (1e6, 1.0, 2.0),
        (1e12, 2.0, 0.0),
        (1e14, 1.0, 0.0),
    ])
    def test_against_independent_oracle(self, n, t, x):
        # full pipeline (root, constants, log-domain powers) vs the
        # high-precision oracle
        want = float(oracles.hp_exact_cdf(n, t, x))
        got = exact_cdf(norming_constants(n, t), x).value
        assert rel_err(got, want) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=math.log(5.0), max_value=math.log(1e12)),
           st.floats(min_value=0.3, max_value=4.0),
           st.floats(min_value=-1.0, max_value=6.0),
           st.floats(min_value=0.01, max_value=1.0))
    def test_monotone_and_bounded(self, log_n, t, x, step):
        # on the support c*x + d > 0 (c > 0, so x + step is on it too);
        # test_domain_error_below_support covers the refusal below it
        nc = norming_constants(math.exp(log_n), t)
        assume(nc.c * x + nc.d > 0.0)
        lo = exact_cdf(nc, x)
        hi = exact_cdf(nc, x + step)
        assert 0.0 <= lo.value <= hi.value <= 1.0

    def test_limits_of_support(self):
        nc = norming_constants(1000.0, 1.0)
        x_min = -nc.d / nc.c
        # just above the boundary the mass is tiny; far right it is full
        assert exact_cdf(nc, x_min + 1e-6).value < 1e-200
        assert exact_cdf(nc, 50.0).value > 1.0 - 1e-6
        assert exact_cdf(nc, 50.0).value <= 1.0

    def test_domain_error_below_support(self):
        nc = norming_constants(1000.0, 2.0)
        with pytest.raises(DomainError) as exc:
            exact_cdf(nc, -nc.d / nc.c)
        assert exc.value.x_min is not None


class TestExactPdf:
    def test_frozen_point(self):
        nc = norming_constants(1000.0, 1.0)
        assert rel_err(exact_pdf(nc, 0.0), oracles.EXACT_PDF_1000_T1_X0) < 5e-14

    def test_against_independent_oracle(self):
        for n, t, x in ((2.0, 1.0, 0.0), (100.0, 3.0, -0.5), (1e6, 2.0, 1.0)):
            want = float(oracles.hp_exact_pdf(n, t, x))
            got = exact_pdf(norming_constants(n, t), x)
            assert rel_err(got, want) < 1e-12

    def test_plus_sign_matches_derivative_where_tail_matters(self):
        # at n = 5 the (1 - Phi)^{n-1} term is material: the plus-sign form
        # tracks the numeric derivative of F_n, the minus-sign variant is
        # off by 10% to 86%
        nc = norming_constants(5.0, 1.0)
        x_min = -nc.d / nc.c
        h = 1e-6
        for dx in (0.05, 0.2, 0.5):
            x = x_min + dx
            diff = (exact_cdf(nc, x + h).value - exact_cdf(nc, x - h).value) / (2 * h)
            assert rel_err(exact_pdf(nc, x), diff) < 1e-8
            g, dg = transformed_quantile(nc, x)
            n = nc.n
            minus = (n * math.exp(-0.5 * g * g) / math.sqrt(2 * math.pi) * dg
                     * (math.exp((n - 1) * survival(-g).log_value)
                        - math.exp((n - 1) * survival(g).log_value)))
            assert rel_err(minus, diff) > 5e-2

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=math.log(100.0), max_value=math.log(1e10)),
           st.floats(min_value=0.5, max_value=3.0),
           st.floats(min_value=-1.0, max_value=4.0))
    def test_derivative_of_cdf(self, log_n, t, x):
        nc = norming_constants(math.exp(log_n), t)
        if exact_pdf(nc, x) <= 1e-8:
            return
        h = 1e-5 * max(1.0, abs(x))
        diff = (exact_cdf(nc, x + h).value - exact_cdf(nc, x - h).value) / (2 * h)
        assert rel_err(diff, exact_pdf(nc, x)) < 1e-6

    def test_integrates_to_cdf_difference(self):
        # Simpson, 512 intervals on [-1, 3] at n = 1e6
        nc = norming_constants(1e6, 1.0)
        a, b, m = -1.0, 3.0, 512
        h = (b - a) / m
        total = exact_pdf(nc, a) + exact_pdf(nc, b)
        for i in range(1, m):
            total += (4 if i % 2 else 2) * exact_pdf(nc, a + i * h)
        integral = total * h / 3.0
        want = exact_cdf(nc, b).value - exact_cdf(nc, a).value
        assert abs(integral - want) < 1e-8

    def test_deep_tail_underflow(self):
        # near the boundary g -> 0, so Phi^{n-1} ~ 0.5^{n-1}: subnormal but
        # representable at n = 1000, a clean 0.0 once n pushes the log past
        # the exp range
        nc = norming_constants(1000.0, 1.0)
        small = exact_pdf(nc, -nc.d / nc.c + 1e-9)
        assert 0.0 < small < 1e-290
        nc_big = norming_constants(2000.0, 1.0)
        assert exact_pdf(nc_big, -nc_big.d / nc_big.c + 1e-9) == 0.0

    def test_nonnegative(self):
        nc = norming_constants(100.0, 0.5)
        xs = [-1.0 + 0.5 * i for i in range(12)]
        assert all(exact_pdf(nc, x) >= 0.0 for x in xs)


class TestSupportBoundary:
    # Next to x_min = -d/c the float64 g carries the conditioning of c*x + d,
    # so the library is compared with the oracle at the same g.
    @pytest.mark.parametrize("n,t,x", [
        (10.0, 0.5, -4.0992651),       # the difference of two logs lost 32% here
        (10.0, 0.5, -4.09926514892),   # and raised a math domain error here
    ])
    def test_cli_reported_points(self, n, t, x):
        nc = norming_constants(n, t)
        want = oracles.hp_exact_cdf_at_g(n, transformed_quantile(nc, x).g)
        p = exact_cdf(nc, x)
        assert rel_err(p.value, float(want)) < 1e-12
        assert rel_err(p.log_value, float(oracles.mp.log(want))) < 1e-14
        assert rel_err(exact_cdf_values(nc, np.array([x]))[0], float(want)) < 1e-12

    @pytest.mark.parametrize("n,t", [(2.0, 1.0), (5.0, 3.0), (10.0, 0.5), (1000.0, 1.0)])
    @pytest.mark.parametrize("dx", [1e-6, 1e-9, 1e-12])
    def test_against_oracle_at_same_g(self, n, t, dx):
        nc = norming_constants(n, t)
        x = -nc.d / nc.c + dx
        want = float(oracles.hp_exact_cdf_at_g(n, transformed_quantile(nc, x).g))
        assert rel_err(exact_cdf(nc, x).value, want) < 1e-12
        assert rel_err(exact_cdf_values(nc, np.array([x]))[0], want) < 1e-12

    def test_underflowing_g_gives_zero(self):
        # t = 0.01: g = (c*x + d)^100 underflows to 0 next to x_min, where
        # F_n = Phi(0)^n - (1 - Phi(0))^n = 0 exactly
        nc = norming_constants(10.0, 0.01)
        x = -nc.d / nc.c + 1e-6
        assert transformed_quantile(nc, x).g == 0.0
        p = exact_cdf(nc, x)
        assert (p.value, p.log_value) == (0.0, -math.inf)
        assert exact_cdf_values(nc, np.array([x, 0.0]))[0] == 0.0
        assert exact_pdf(nc, x) == 0.0

    @settings(max_examples=150, deadline=None)
    @given(st.floats(min_value=math.log(2.0), max_value=math.log(1e14)),
           st.floats(min_value=0.01, max_value=8.0),
           st.one_of(st.floats(min_value=0.0, max_value=1e-9),
                     st.floats(min_value=0.0, max_value=20.0)))
    @example(log_n=math.log(10.0), t=0.5, dx=0.0)
    def test_finite_on_the_support(self, log_n, t, dx):
        # anything but PowexError (or a RuntimeWarning) is a bug here
        try:
            nc = norming_constants(math.exp(log_n), t)
        except PowexError:
            return
        x = -nc.d / nc.c + dx
        assume(nc.c * x + nc.d > 0.0)
        cdf = exact_cdf(nc, x)
        assert 0.0 <= cdf.value <= 1.0 and cdf.log_value <= 0.0
        pdf = exact_pdf(nc, x)
        assert math.isfinite(pdf) and pdf >= 0.0
        vec = exact_cdf_values(nc, np.array([x]))
        assert 0.0 <= vec[0] <= 1.0


class TestExactCdfValues:
    def test_matches_scalar_path(self):
        nc = norming_constants(1000.0, 2.0)
        x_min = -nc.d / nc.c
        near = [x_min + k * math.ulp(x_min) for k in (4, 16)] + [x_min + 1e-9, x_min + 1e-6]
        assert all(nc.c * x + nc.d > 0.0 for x in near)
        xs = np.array(near + [-2.0, -0.5, 0.0, 1.0, 3.0])
        vec = exact_cdf_values(nc, xs)
        for x, v in zip(xs, vec):
            assert rel_err(v, exact_cdf(nc, float(x)).value) < 1e-14

    def test_below_support_is_zero(self):
        # a distribution function vanishes below the support; no error here
        nc = norming_constants(1000.0, 2.0)
        x_min = -nc.d / nc.c
        vec = exact_cdf_values(nc, np.array([x_min - 5.0, x_min, 0.0]))
        assert vec[0] == 0.0
        assert vec[1] == 0.0
        assert vec[2] > 0.0

    def test_empty_and_shape(self):
        nc = norming_constants(1000.0, 1.0)
        assert exact_cdf_values(nc, np.array([])).shape == (0,)
        out = exact_cdf_values(nc, np.linspace(-1, 4, 23))
        assert out.shape == (23,)
        assert np.all(np.diff(out) >= 0.0)
