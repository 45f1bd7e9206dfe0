"""Normal/Gumbel primitives and the Mills tail series."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from powex import (
    DomainError,
    Probability,
    gumbel_cdf,
    gumbel_pdf,
    mills_series_bound,
    mills_series_survival,
    std_normal_pdf,
    survival,
)

# first omitted coefficients a_k = (2k)!/(2^k k!) for the envelope bound
MILLS_A = [1, 1, 3, 15, 105, 945, 10395, 135135]


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want) if want != 0.0 else abs(got)


class TestSurvival:
    def test_frozen_values(self):
        for x, want in oracles.SURVIVAL_VALUES.items():
            assert rel_err(survival(x).value, want) < 1e-13

    def test_against_independent_oracle_on_grid(self):
        # dual route: scipy's erfc vs the Taylor/continued-fraction oracle;
        # the far tail (x ~ 30) measures at 1.1e-13 relative
        xs = [-8.0, -5.0, -2.5, -1.0, -0.3, 0.0, 0.4, 1.0, 2.0, 3.5, 5.0,
              7.0, 8.5, 10.0, 13.0, 17.0, 20.0, 26.0, 31.0, 37.0]
        for x in xs:
            want = float(oracles.hp_survival(x))
            got = survival(x)
            assert rel_err(got.value, want) < 2e-13, x
            assert abs(got.log_value - math.log(want)) < 1e-12 * abs(math.log(want)) + 1e-13

    def test_half_at_zero(self):
        assert survival(0.0).value == 0.5

    def test_log_value_consistent(self):
        for x in (-3.0, 0.0, 2.0, 8.0, 30.0):
            p = survival(x)
            assert rel_err(math.exp(p.log_value), p.value) < 1e-13

    @given(st.floats(min_value=-10.0, max_value=10.0))
    def test_symmetry(self, x):
        assert abs(survival(x).value + survival(-x).value - 1.0) < 1e-15

    @given(st.floats(min_value=-38.0, max_value=38.0),
           st.floats(min_value=1e-6, max_value=5.0))
    def test_strictly_decreasing(self, x, step):
        assert survival(x + step).value <= survival(x).value

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            survival(math.nan)
        with pytest.raises(DomainError):
            survival(math.inf)


class TestStdNormalPdf:
    def test_frozen_value(self):
        assert rel_err(std_normal_pdf(10.0), oracles.STD_NORMAL_PDF_10) < 5e-15

    def test_mode(self):
        assert std_normal_pdf(0.0) == 1.0 / math.sqrt(2.0 * math.pi)

    @given(st.floats(min_value=0.0, max_value=30.0))
    def test_even(self, x):
        assert std_normal_pdf(x) == std_normal_pdf(-x)

    def test_underflow_is_zero_not_error(self):
        assert std_normal_pdf(60.0) == 0.0

    def test_integrates_to_one(self):
        # Simpson on [-10, 10], 2000 intervals
        a, b, m = -10.0, 10.0, 2000
        h = (b - a) / m
        total = std_normal_pdf(a) + std_normal_pdf(b)
        for i in range(1, m):
            total += (4 if i % 2 else 2) * std_normal_pdf(a + i * h)
        assert abs(total * h / 3.0 - 1.0) < 1e-10


class TestMillsSeries:
    @pytest.mark.parametrize("x", [2.5, 3.0, 5.0, 10.0, 20.0])
    @pytest.mark.parametrize("order", range(6))
    def test_envelope_bound(self, x, order):
        # |error| <= 2 * a_{L+1} * x^{-2(L+1)} * phi(x)/x while terms decrease
        approx = mills_series_survival(x, order).value
        exact = survival(x).value
        bound = 2.0 * MILLS_A[order + 1] * x ** (-2 * (order + 1)) * std_normal_pdf(x) / x
        assert abs(approx - exact) <= bound

    @pytest.mark.parametrize("x", [2.5, 3.0, 5.0, 10.0])
    def test_truncations_enclose_exact(self, x):
        # alternating series: even truncations overshoot, odd undershoot
        exact = survival(x).value
        for order in range(5):
            diff = mills_series_survival(x, order).unclamped - exact
            assert (diff > 0.0) == (order % 2 == 0), order

    def test_term_increments_match_coefficients(self):
        # series(L) - series(L-1) = (-1)^L a_L x^{-2L} phi(x)/x against the
        # tabulated (2k)!/(2^k k!), pinning the recurrence; differencing
        # cancels, so the gap is bounded in units of the series scale phi/x
        for x in (3.0, 6.0, 12.0):
            scale = std_normal_pdf(x) / x
            for order in range(1, 8):
                inc = (mills_series_survival(x, order).unclamped
                       - mills_series_survival(x, order - 1).unclamped)
                want = (-1) ** order * MILLS_A[order] * x ** (-2 * order) * scale
                assert abs(inc - want) < 1e-14 * scale, (x, order)

    def test_frozen_value_order_one(self):
        # x=10, L=1: x^{-1} phi(x) (1 - x^{-2})
        got = mills_series_survival(10.0, 1).value
        want = oracles.STD_NORMAL_PDF_10 / 10.0 * (1.0 - 0.01)
        assert rel_err(got, want) < 1e-15

    def test_divergent_truncation_clamped(self):
        p = mills_series_survival(2.0, 12)
        assert p.clamped
        assert p.value == 1.0
        assert rel_err(p.raw, 434.3381302742807) < 1e-12
        assert p.unclamped == p.raw

    def test_well_behaved_result_not_clamped(self):
        p = mills_series_survival(5.0, 12)
        assert not p.clamped
        assert p.raw is None
        assert p.unclamped == p.value

    def test_domain(self):
        with pytest.raises(DomainError):
            mills_series_survival(1.9, 2)
        with pytest.raises(DomainError):
            mills_series_survival(5.0, -1)
        with pytest.raises(DomainError):
            mills_series_survival(5.0, 13)
        mills_series_survival(2.0, 0)  # boundary x=2 admitted
        mills_series_survival(5.0, 12)  # boundary order admitted

    @pytest.mark.parametrize("x", [2.0, 5.0, 20.0])
    @pytest.mark.parametrize("order", range(7))
    def test_bound_is_the_tabulated_envelope(self, x, order):
        want = 2.0 * MILLS_A[order + 1] * x ** (-2 * (order + 1)) * std_normal_pdf(x) / x
        assert mills_series_bound(x, order) == want

    def test_bound_domain(self):
        for x, order in ((1.9, 2), (5.0, -1), (5.0, 13), (math.inf, 1)):
            with pytest.raises(DomainError):
                mills_series_bound(x, order)


class TestGumbel:
    def test_cdf_frozen_point(self):
        p = gumbel_cdf(0.0)
        assert p.value == math.exp(-1.0)
        assert p.log_value == -1.0

    def test_log_value_is_minus_exp(self):
        for x in (-3.0, -0.5, 0.0, 2.0, 10.0):
            assert gumbel_cdf(x).log_value == -math.exp(-x)

    def test_far_left_tail_underflows_cleanly(self):
        p = gumbel_cdf(-710.0)
        assert p.value == 0.0
        assert p.log_value == -math.inf
        assert gumbel_pdf(-710.0) == 0.0

    def test_right_tail(self):
        assert gumbel_cdf(50.0).value == pytest.approx(1.0, abs=1e-15)
        assert gumbel_pdf(50.0) == pytest.approx(math.exp(-50.0), rel=1e-12)

    @given(st.floats(min_value=-5.0, max_value=12.0))
    def test_pdf_positive_cdf_monotone(self, x):
        assert gumbel_pdf(x) > 0.0
        assert gumbel_cdf(x + 0.1).value >= gumbel_cdf(x).value

    @settings(max_examples=50)
    @given(st.floats(min_value=-2.0, max_value=5.0))
    def test_pdf_is_cdf_derivative(self, x):
        h = 1e-6
        diff = (gumbel_cdf(x + h).value - gumbel_cdf(x - h).value) / (2 * h)
        assert rel_err(diff, gumbel_pdf(x)) < 1e-8

    def test_against_oracle(self):
        for x in (-2.0, 0.0, 1.0, 4.0):
            assert rel_err(gumbel_cdf(x).value, float(oracles.hp_gumbel_cdf(x))) < 5e-15
            assert rel_err(gumbel_pdf(x), float(oracles.hp_gumbel_pdf(x))) < 5e-15


class TestProbability:
    @pytest.mark.parametrize("raw", [0.0, 0.25, 1.0])
    def test_from_raw_in_range(self, raw):
        p = Probability.from_raw(raw)
        assert (p.value, p.clamped, p.raw) == (raw, False, None)
        assert p.log_value == (math.log(raw) if raw > 0.0 else -math.inf)

    @pytest.mark.parametrize("raw,value", [(-0.5, 0.0), (1.75, 1.0)])
    def test_from_raw_clamps_and_keeps_raw(self, raw, value):
        p = Probability.from_raw(raw)
        assert (p.value, p.clamped, p.raw, p.unclamped) == (value, True, raw, raw)
        assert p.log_value == (0.0 if value == 1.0 else -math.inf)

    def test_unclamped_plain(self):
        p = Probability(value=0.25, log_value=math.log(0.25))
        assert p.unclamped == 0.25

    def test_unclamped_clamped(self):
        p = Probability(value=1.0, log_value=0.0, clamped=True, raw=1.75)
        assert p.unclamped == 1.75
