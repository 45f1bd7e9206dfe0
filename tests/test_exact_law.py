"""The exact finite-n law: log-domain evaluation, the density's plus sign,
vectorization, and distribution-function semantics."""
from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr, ndtri

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
from powex.exact_law import _logaddexp


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


def same_float(a: float, b: float) -> bool:
    """Equal bits, or both NaN."""
    return (math.isnan(a) and math.isnan(b)) or \
        np.float64(a).view(np.uint64) == np.float64(b).view(np.uint64)


class TestLogaddexp:
    """The scalar density's logaddexp must carry np.logaddexp's bits."""

    def test_dense_grid(self):
        grid = np.concatenate([-np.logspace(-12, 3, 400), [0.0], np.logspace(-12, 3, 400)])
        rng = np.random.default_rng(5)
        pairs = [(a, b) for a in grid[::4] for b in grid[::4]]
        pairs += [(a, a + d) for a in grid for d in (0.0, 5e-16, -3e-13, 1e-8, 36.7, -40.0)]
        pairs += list(zip(rng.uniform(-1000.0, 10.0, 5000), rng.uniform(-1000.0, 10.0, 5000)))
        a, b = np.array(pairs).T
        want = np.logaddexp(a, b)
        bad = [(x, y) for x, y, w in zip(a.tolist(), b.tolist(), want.tolist())
               if not same_float(_logaddexp(x, y), w)]
        assert not bad, bad[:5]

    @pytest.mark.parametrize("a,b", [
        (-3.5, -3.5), (0.0, 0.0), (-0.0, 0.0), (-1e300, -1e300),
        (math.inf, math.inf), (-math.inf, -math.inf),
        (math.inf, -math.inf), (-math.inf, math.inf),
        (math.inf, 2.0), (2.0, math.inf), (-math.inf, -7.0), (-7.0, -math.inf),
        (math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan),
        (math.nan, math.inf), (-math.inf, math.nan),
    ])
    def test_special_arguments(self, a, b):
        with np.errstate(invalid="ignore"):
            want = float(np.logaddexp(a, b))
        assert same_float(_logaddexp(a, b), want)


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
    @example(log_n=1.0, t=0.5, dx=9.0)  # g > 38.5: log(1 - Phi) = log 0 in the array path
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

    def test_nan_point_is_nan(self):
        # a NaN is not below the support: it maps to NaN, and the points
        # around it keep their bits
        nc = norming_constants(1000.0, 2.0)
        xs = np.array([-0.5, 0.0, 1.0, 3.0])
        with_nan = exact_cdf_values(nc, np.insert(xs, 2, np.nan))
        assert math.isnan(with_nan[2])
        assert np.delete(with_nan, 2).tobytes() == exact_cdf_values(nc, xs).tobytes()

    def test_empty_and_shape(self):
        nc = norming_constants(1000.0, 1.0)
        assert exact_cdf_values(nc, np.array([])).shape == (0,)
        out = exact_cdf_values(nc, np.linspace(-1, 4, 23))
        assert out.shape == (23,)
        assert np.all(np.diff(out) >= 0.0)


# Inputs of the exact-law byte locks below.
LAW_GRID = np.linspace(-1.5, 4.0, 10_000)  # perfbench law_sweep's array grid
LOCK_T = (0.5, 1.0, 2.0, 3.0)
LOCK_N = (10.0, 100.0, 1e3, 1e6, 1e12)


def delta_window(nc) -> np.ndarray:
    """Points whose delta = n*log((1 - Phi)/Phi) lies in (-760, -730)."""
    # 1 - Phi(g) = 1/(1 + e^{-r}) gives log((1 - Phi)/Phi) = r = delta/n
    delta = np.linspace(-760.0, -730.0, 121)
    g = -ndtri(1.0 / (1.0 + np.exp(-delta / nc.n)))
    return (g ** nc.t - nc.d) / nc.c


def lock_points(nc) -> np.ndarray:
    """The law grid, points next to x_min (the boundary branch), the delta
    window and special values."""
    x_min = -nc.d / nc.c
    boundary = [x_min + k * math.ulp(x_min) for k in (1, 2, 4, 16, 256, 4096)]
    boundary += [x_min + h for h in (1e-12, 1e-9, 1e-6, 1e-3, 0.1)]
    special = [x_min, np.nextafter(x_min, -math.inf), x_min - 1.0, -1e300,
               -math.inf, math.inf, math.nan, 0.0, -0.0]
    return np.concatenate([LAW_GRID, boundary, delta_window(nc), special])


def lock_digests(t: float, n: float) -> tuple[str, str]:
    """sha256 of exact_cdf_values over lock_points, and of the scalar
    exact_cdf (value, log_value) pairs over its points on the support."""
    nc = norming_constants(n, t)
    xs = lock_points(nc)
    array = exact_cdf_values(nc, xs)
    on_support = [x for x in xs.tolist() if math.isfinite(x) and nc.c * x + nc.d > 0.0]
    scalar = np.array([exact_cdf(nc, x)[:2] for x in on_support], dtype=np.float64)
    return (hashlib.sha256(array.tobytes()).hexdigest(),
            hashlib.sha256(scalar.tobytes()).hexdigest())


# lock_digests at every (t, n) of LOCK_T x LOCK_N: (array, scalar). Frozen
# before the kernel learned to skip work; any later change keeps them.
EXACT_LAW_DIGESTS = {
    "0.5|10": ("3359d46306e9dcba2993f27eeabcf893881f17eb76f9b28784bddc19b17548ac",
               "587dfacdaeff4d96f7287fdf17fe0b71dc361b6446a9e18f16b71ab90220208d"),
    "0.5|100": ("c204537db3650b0ba65c32e8b755e1595e704a7d8e8e822aa833909ace955f33",
                "9ff8a1b4ed458547159fb57e403c26a76aba8c986bd046e29e7a17f82ac063d8"),
    "0.5|1000": ("ecf94da917f5eea349f0e36d23031c85ebc0d89d047c53152a66417d28299f86",
                 "1ccd6347d57dcc484229ca5ca86cd948f2434130f212ba19c9f6aed700cca83e"),
    "0.5|1e+06": ("ae683169a59419f68bf49982acf9a33ddbf0c4e56e2766a9766f48ef193dc538",
                  "05998bdbfc78836d39d308f3dd024f1292959d6baba0ae369fc7112944527c53"),
    "0.5|1e+12": ("710cc6f1c617cf7676ea9d1407f46a9b4ba06810030f8b3b7bd1ebe91c9f101d",
                  "92b0fb33fdd7b9a0c67d7a0dc448f91bf0aa7145d342bea19a8e34d10c474faa"),
    "1|10": ("c74b372ed81cdabd7363afc5c3396bb3cccd98c0b76e884e6374550136c8a743",
             "a41e7b49dc5ab38d00e32f637976f4951fb5e9effc7c73a7645da451aea63592"),
    "1|100": ("a584e6f670f5749dffe891d61f88ad50389e51b1bbe8242b2f9abf0d67872c75",
              "dffcf4a7f32f596b42fa09952fa881f618ca90680f2b59fef8ddacfa9a4c1ff3"),
    "1|1000": ("855af2c94d966722c97c8015a20b42c3e35db1fe78bb303a04c6c022205e3df1",
               "085f389cd5c2c948abc3e3972530dadc01c2e0e30681dd4ebd416d1eb01e9b95"),
    "1|1e+06": ("bccb13c6837d9efd0d26da9e844a0a592f81f2002d52deb818b19633cc6f511e",
                "57d269cc04275ac904a7cba24d6bf53d6b8b39bfa873449491817243deaee2dc"),
    "1|1e+12": ("f8a8d02fa64e776b83767499ee1612604f1add15a863118111066a9ae4aa8ea0",
                "094d31a01f2f5f27e3ec41119352813533b1de10cfbdefc793d28d70e5f1b6d6"),
    "2|10": ("3ed3d51e1b78845d8571b350e0a394c39d609d307a8e316ae87d04fb991b57c7",
             "9fffa803f94393f658c6744fb2f9fc3707407bfc3ad0c932e3f43158539ddbf5"),
    "2|100": ("4f58c3fb5b30912a3388963cda8c1a93c80f40254dec00c783a10e2179acda11",
              "270b85a1a39cbf8f11a9606f4bf405e8ab196e5c8c125a2acdf7bb3d1072df5c"),
    "2|1000": ("bfa33bcc6cde29cfc7a6033169a48ed193ef4963bce113a0fd419a108174bd57",
               "8697679fbe37563f991da4a95b22f7e2c69ca9c608e131757209069faf0d7bd3"),
    "2|1e+06": ("84519ce50a442b04726878ea75d5b9560f74ae37f9ef4bf3a897aff7aba19bf3",
                "fcacf8f13ea44ee47bb8815b6d2705b844b625a6e986251318acb95d1b090a2d"),
    "2|1e+12": ("7558e3f36baa2f4316a83798edd8554bea987e50aede660f876243c5b64f997d",
                "64c6dc8688a9faba32544355702f90d90b2752c22e83d9f255411d8c10550191"),
    "3|10": ("29a508f07e8c949561f430063f30ca0b459894dbaa8a51a6bdff2e5c2c430d88",
             "c157eb78764f0490492ad93e02587d96aae12fa319ee4a32ef34675baa234e0a"),
    "3|100": ("35ee929808dd36fde595e2910e3cc75176af857375859c52b0c7700166fc11d0",
              "65176aa9a2d4c63b6dd993664971bcb7bd49509c517106f34444518879b8ff4b"),
    "3|1000": ("18502e64f6a73744f9d086c60df6b70fddf0c9f5283e6389c1b0d335f724191c",
               "c6efd9c4356014fb875ea93380dfaa6324857fb2acfc4f6df4529f1fbbe6985d"),
    "3|1e+06": ("feae4651f94b148381681c075472ee6cb227c391b2351c1ae305896ff00cc413",
                "9b5e116ce55eb680bc77debbfaaa551859bf5985605769806ff0267ea9206fe4"),
    "3|1e+12": ("06871ad478ddae80bf1518380a6c329cc0550b1cc621d67133d00665bff1ae36",
                "1e2102684184de37eb02f62ca81676655cdf7a911f27d941a14f9c4362d046d0"),
}


class TestFrozenBytes:
    """The exact law keeps its bits, in both paths, wherever it is evaluated."""

    @pytest.mark.parametrize("n", LOCK_N)
    @pytest.mark.parametrize("t", LOCK_T)
    def test_digests(self, t, n):
        assert lock_digests(t, n) == EXACT_LAW_DIGESTS[f"{t:g}|{n:g}"]

    def test_delta_window_is_covered(self):
        # the window points straddle the dead-term cut at delta = -746
        for n in LOCK_N:
            nc = norming_constants(n, 1.0)
            log_phi = log_ndtr(nc.c * delta_window(nc) + nc.d)  # g at t = 1
            delta = n * (np.log(-np.expm1(log_phi)) - log_phi)
            assert delta.min() < -746.0 < delta.max()
            assert np.all((delta > -761.0) & (delta < -729.0))

    @pytest.mark.parametrize("xs,shape", [
        (0.5, ()),
        (np.float64(0.5), ()),
        (np.array(0.5), ()),
        (np.array(math.nan), ()),
        (np.array(-100.0), ()),
        ([], (0,)),
        (np.array([]), (0,)),
        (np.zeros((0, 3)), (0, 3)),
        ([0, 1, 2], (3,)),
        (np.linspace(-20.0, 4.0, 6).reshape(2, 3), (2, 3)),
        (np.linspace(-20.0, 4.0, 6, dtype=np.float32).reshape(3, 2), (3, 2)),
    ])
    def test_shape_and_dtype(self, xs, shape):
        nc = norming_constants(1000.0, 1.0)
        out = exact_cdf_values(nc, xs)
        assert type(out) is np.ndarray
        assert out.shape == shape and out.dtype == np.float64
        flat = exact_cdf_values(nc, np.asarray(xs, dtype=float).ravel())
        assert out.ravel().tobytes() == flat.tobytes()
