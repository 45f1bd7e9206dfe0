"""The exact finite-n law: log-domain evaluation, the density's plus sign,
vectorization, and distribution-function semantics."""
from __future__ import annotations

import ast
import hashlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr, ndtri

import oracles
from oracles import rel_err
from powex import (
    ApproxOrder,
    DomainError,
    PowexError,
    cdf_approx,
    coefficients,
    exact_cdf,
    exact_cdf_values,
    exact_pdf,
    norming_constants,
    pdf_approx,
    survival,
    transformed_quantile,
)
from powex import exact_law
from powex.exact_law import _ArrayOps, _ScalarOps


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


class TestKernelOps:
    """One kernel, two arithmetics: _ScalarOps and _ArrayOps expose the same
    operations, and the kernel calls nothing else on them."""

    @staticmethod
    def operations(ops) -> set[str]:
        return {name for name in vars(ops) if not name.startswith("_")}

    def test_same_operations(self):
        assert self.operations(_ScalarOps) == self.operations(_ArrayOps)

    def test_kernel_calls_only_the_operations(self):
        # the kernel is every function of the module whose first argument is ops
        kernel = [node for node in ast.walk(ast.parse(inspect.getsource(exact_law)))
                  if isinstance(node, ast.FunctionDef) and node.args.args
                  and node.args.args[0].arg == "ops"]
        assert {f.name for f in kernel} == {
            "_log_cdf", "_log_cdf_subnormal", "_log_cdf_tail", "_log_cdf_boundary"}
        used = {node.attr for f in kernel for node in ast.walk(f)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "ops"}
        assert used == self.operations(_ScalarOps)


class TestArrayLogPhi:
    """The array kernel takes log Phi as log1p(-ndtr(-g)) in one buffer: on
    the support that is scipy's log_ndtr(g) bit for bit, NaN included."""

    @staticmethod
    def assert_bits(g):
        got = _ArrayOps.log_phi(g)
        assert type(got) is np.ndarray and got.shape == np.shape(g)
        want = np.asarray(log_ndtr(g))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("lo,hi", [
        (0.0, 1e-300), (0.0, 1.0), (1.0, 5.0), (5.0, 10.0), (10.0, 37.5),
        (37.5, 38.6),  # the subnormal band, down to log Phi = 0
        (38.6, 1e3),
    ])
    def test_bands(self, lo, hi):
        self.assert_bits(np.random.default_rng(2500).uniform(lo, hi, 100_000))

    @pytest.mark.parametrize("g", [0.0, -0.0, 5e-324, math.inf, math.nan])
    @pytest.mark.parametrize("shape", [(), (1,), (2, 3)])
    def test_special_values(self, g, shape):
        self.assert_bits(np.full(shape, g))


class TestPairTerm:
    """exact_pdf adds the survival term as log1p(e^(b - a)) with a = log Phi^(n-1)
    and b = (n - 1)*log(1 - Phi): the one branch of numpy's logaddexp that
    the support can reach, since Phi >= 1/2 there makes b <= a."""

    @pytest.mark.parametrize("g", [0.0, 5e-324, 1e-300, 1e-17])
    def test_survival_log_is_the_lesser_near_zero(self, g):
        assert log_ndtr(-g) <= log_ndtr(g)

    def test_survival_log_is_the_lesser(self):
        g = np.concatenate([np.linspace(0.0, 40.0, 400_001),
                            np.linspace(37.5, 38.6, 20_001)])  # the subnormal band
        assert np.all(log_ndtr(-g) <= log_ndtr(g))

    def test_tie_adds_ln2(self):
        # a == b (g = 0) adds log1p(e^0), which numpy's logaddexp takes as ln 2
        assert math.log1p(1.0) == math.log(2.0)

    @pytest.mark.parametrize("m", [1.0, 9.0, 999.0])
    def test_bits_of_logaddexp(self, m):
        for g in np.linspace(0.0, 40.0, 4001).tolist():
            a, b = m * float(log_ndtr(g)), m * float(log_ndtr(-g))
            assert a + math.log1p(math.exp(b - a)) == float(np.logaddexp(a, b)), g


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

    def test_overflowing_points_warn_nothing(self):
        # c*x passes the float range (c is about 1.7e4); RuntimeWarnings are
        # errors in this suite
        nc = norming_constants(1e6, 7.0)
        assert exact_cdf_values(nc, np.array([-1e306, 1e306])).tolist() == [0.0, 1.0]

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


def sha256(values) -> str:
    """sha256 of the values as float64 bytes."""
    return hashlib.sha256(np.array(values, dtype=np.float64).tobytes()).hexdigest()


def on_support(nc, xs: np.ndarray) -> list[float]:
    return [x for x in xs.tolist() if math.isfinite(x) and nc.c * x + nc.d > 0.0]


def lock_digests(t: float, n: float) -> tuple[str, str]:
    """sha256 of exact_cdf_values over lock_points, and of the scalar
    exact_cdf (value, log_value) pairs over its points on the support."""
    nc = norming_constants(n, t)
    xs = lock_points(nc)
    return (sha256(exact_cdf_values(nc, xs)),
            sha256([exact_cdf(nc, x)[:2] for x in on_support(nc, xs)]))


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


# Inputs of the scalar byte locks: law_sweep's scalar grid, points where the
# truncated orders leave [0, 1] or the coefficients overflow, and bad input
GRID23 = [-1.5 + 0.25 * i for i in range(23)]  # perfbench law_sweep's scalar grid
RECORD_X = GRID23 + [-800.0, -40.0, -8.0, -5.0, -3.0, 6.0, 10.0, 40.0, 800.0,
                     math.inf, math.nan]
BAND_N = (2.0, 10.0, 1e300)


# Inputs of the overflow-band lock. RECORD_X stops at +-800, so it never
# holds an x where one coefficient leaves the float range and another does
# not. OVERFLOW_EDGES are, for some t of OVERFLOW_T, the last x at which one
# coefficient (or x**3, x**4) is in range; the next float away from 0 is
# out. Near -690 it is e^{-x} that carries them out.
OVERFLOW_T = (0.5, 1.0, 2.0, 3.0, 8.0)
OVERFLOW_N = (10.0, 1e6)
OVERFLOW_EDGES = (
    7.950158031179496e+76, 1.1579208923731618e+77, 5.127735412109744e+102,
    5.643803094122361e+102, 7.741001517595157e+153, 1.3407807929942596e+154,
    1.5482003035190314e+154, 1.8961503816218352e+154,
    -682.1765061786864, -684.9378034703697, -685.7343768563338, -685.7459585454055,
    -689.8919478110705, -695.5940896301074, -696.6943274782477, -696.9787970864088,
    -697.3783442321603, -697.3840553881503,
)
OVERFLOW_X = (
    [x for e in OVERFLOW_EDGES for x in (e, -e, math.nextafter(e, math.copysign(math.inf, e)))]
    + [s * x for s in (1.0, -1.0)
       for x in (1e38, 1e76, 8e76, 9e76, 1e77, 5.4e102, 1e120, 1e154, 1.45e154, 1.7e154,
                 1e155, 1e300)]
    + [-683.5, -687.5, -693.0, -697.0, -700.0, -705.0, -708.0, -709.5, -745.0]
)


def band_points(nc) -> np.ndarray:
    """x where g runs over [36.5, 39.5], across the subnormal 1 - Phi(g)."""
    return (np.linspace(36.5, 39.5, 601) ** nc.t - nc.d) / nc.c


def record_or_error(f, *args) -> str:
    """repr of a result record (type, fields and flags), or of its error."""
    try:
        return repr(f(*args))
    except PowexError as exc:
        return f"{type(exc).__name__}: {exc}"


def records_digest(nc, xs) -> str:
    """sha256 of every coefficients, cdf_approx and pdf_approx record or
    error over xs, at all four orders."""
    records = [record_or_error(coefficients, nc.t, x) for x in xs]
    for order in ApproxOrder:
        records += [record_or_error(f, nc, x, order)
                    for f in (cdf_approx, pdf_approx) for x in xs]
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


def scalar_digests(t: float, n: float) -> tuple[str, str]:
    """sha256 of exact_pdf over lock_points on the support, and
    records_digest over RECORD_X."""
    nc = norming_constants(n, t)
    pdf = sha256([exact_pdf(nc, x) for x in on_support(nc, lock_points(nc))])
    return pdf, records_digest(nc, RECORD_X)


def band_digest(t: float, n: float) -> str:
    """sha256 of exact_pdf over band_points."""
    nc = norming_constants(n, t)
    return sha256([exact_pdf(nc, x) for x in on_support(nc, band_points(nc))])


# scalar_digests at every (t, n) of LOCK_T x LOCK_N: (exact_pdf, records),
# and band_digest at every (t, n) of LOCK_T x BAND_N but t = 2 at n = 2
# (below n = 4.13 at t = 2). Frozen before the records skipped the
# NamedTuple constructor.
SCALAR_DIGESTS = {
    "0.5|10": ("221b4ebfa07433f6bfaec8f77d981cdeb1541643b446d36e219af52dc5888162",
               "642dbcf6d2d59f06860974ea6e09ecba560a68e1ddac4af3b84e1829f990b81b"),
    "0.5|100": ("9ebaebb9bb9b670a28d6cadee6a7cd16116a7bcf14d1481df08499e7e2e161f7",
                "a9e3a5a33d3b481ae7d4aed14e32c1cff89540fcd3b062c1cd231109b6b9c300"),
    "0.5|1000": ("fb61d8597b1636b1d7ac2a31be7fbb2fdb63cec8775c8afff62ac0a4b7fa86b8",
                 "3303e8447df63d5f6bc1dbcc16be78975293efc42c83f6a629e2e65586a0a68e"),
    "0.5|1e+06": ("df87b97dede597ddf84a282d33e72fa74b86e38e5d8122118e3502a3dab4fe31",
                  "b8041915047256ed34ec2e5cbf4b143d0b75a2bbede013d3ea812366fdcf5f0c"),
    "0.5|1e+12": ("e8b24d8d877abf8f80b0cca6fddbca2c2dc7a888ac16568f36aa76ec8f09e3b2",
                  "ff8a2303a5c156a02d7a7ea1c4c48367dd488075bc894f1ff67a7638c92e1be7"),
    "1|10": ("b632d290e4b5735afc5d791f90f4f8cec6fa34b91ff4db44eb7b278d19a3ae64",
             "648cf3fbbed0ddfe851d98252ee80b4eb5a9b440db334ed3ac66c0dc5a1de000"),
    "1|100": ("b7fb7c0b2f13a49b3b9255c062789b65a5c0547ba4f54c77ae920b194c8755b0",
              "85d8e242b66c2fa9abef2ff0f4541955016b7b83449205d03e414e7ce2906f3b"),
    "1|1000": ("3568e8f974299e59da3047224fcb0e499f01e1d7b7a74c58d06b2ab20a2f14d1",
               "5b7be17f6ae8360127a1702652b11529fca74328b15e239ab6b310bba36e4522"),
    "1|1e+06": ("0c0aa89be47fa854beac9dc40eb166d0f176a5e0f6cce186a3065b51c23da4b5",
                "93e448d151d62c8587c7d58a830157b9294cdeb0c49a49a124eb7de42af19caf"),
    "1|1e+12": ("74e1747c7164f7281afefa9b30f22c6034c401cdbfc82de63c881a0a81372758",
                "6396a0d1d56aec43c056268e370b6e4226eb502960e5abc2510e1521c30674d6"),
    "2|10": ("486231f5c4457f53371803f1edd3459a667104df70f8be5e0458e698955a617b",
             "40e9a96ac78441cb37b696e5a0b232af68a57593d0f6dd0b55aaa87ae4a7d3be"),
    "2|100": ("0a9dfd4074824ede5d377c69eb0ea50e3a8ba1d5826b1fffac53ca4237ac2555",
              "61bc8240ca682da8a8a1e1e0e9b0e33df61aa41b2d658fb732b5d59a9dae27c2"),
    "2|1000": ("e621fa84d07872b533921b5f05ff995ba083b6630db1d8c05cb92b450146aa10",
               "dfcf41bed369c8ff5664d466c14ef3a8b1e50f0905d39595b4f5bd8e90ef88f2"),
    "2|1e+06": ("45ad25c121864c804cec239f00b3d67fad21ed7272c3b15779badd56cf037a61",
                "2892a5aa18cf0756e0e4d6bb146948c3da0784d2ba2598ebb331a3d23bdce94f"),
    "2|1e+12": ("74c57dbdb26b4b996e8fd5117263afb0de35afe2d6f38a409087fbcb402d34b7",
                "13a8f99e624253ee003eb7d4779a2d8ad10719704e26e5f44b346a3f2de6aac0"),
    "3|10": ("58face54fa3f368db94f41d79c5c139052dbcb3726efc6d88dbbe973bbae871f",
             "303afd50d501b69a90a1c60c31e15c0d5e54ae7468334fb2b65315154bee1b3f"),
    "3|100": ("b2b794c4b38af6a6d05e3697882ba793c1eede4db02cada7646f17abf1da2242",
              "a8dbb648ae345ac531552fac8cadbc3953f9584acb9c6fb0409e2b1258b9950d"),
    "3|1000": ("1634b3c8b9c7822ba32bec6a758c4227f09453a53c4989722b3878b69a36b34e",
               "7e029c657201f4d2063c878a17a9c5f22a79fddf172f2c1118e88747ef274887"),
    "3|1e+06": ("ec99b0055647a7629305129a8ad3cac6b10ea5249721aaf9f05d9e757ce6f31a",
                "c047363d29943cba0118e102c968f7e056bee7286e26764502cc948102dbd3ef"),
    "3|1e+12": ("d0b38f5996c78444549d2b24aeb903f1c6475187ede375f42dadee81180e743b",
                "e89da5e8e065ede060496ea8c0e83cc4574869da1b1c5039f0f6e70ccadbe36b"),
}
PDF_BAND_DIGESTS = {
    "0.5|2": "a3479b3555cfefb18f57e91b314471972ff93ff5b28246fc77a9adcf3973a5fe",
    "0.5|10": "8007c03d73be81f40db7f21a6762d15ac98fe3fb6a7b4a9eddddca87015a0016",
    "0.5|1e+300": "626bec699e69be225063fcbee43fcc9e3b6438bdf66abe9e211fc2925a285d18",
    "1|2": "5191a99dee4bc9be34b0c6f11268df72d83d69faf5f115d5e2c68016f0d7e304",
    "1|10": "9a8913395e9a2a07bd654d5bca51b0a947e500a6bb8720085fd10b785911f5e4",
    "1|1e+300": "9022f9eb01617a7860920f197e8a05390d8f6504b67d132defdbfb5979c52630",
    "2|10": "b6d079e926a6203ca9e1fb95ad573e1865b0258f9201ce0281655751a3b53f33",
    "2|1e+300": "a2edd17477bfe27bdf85369ff7004c7242dae37a97e3946c5d2056d27e04b5ed",
    "3|2": "c27ebc4e1fe1bfdb1bf395af40230d65d9401bc1612179e50d51a29156516243",
    "3|10": "11c75179af654b94bbe7dbb9e0ab3380894f2f114988569bc18737298c4848cf",
    "3|1e+300": "1b1fff922cc4f86a1e7f08647f5fdac3f3483542f535f9dfc4f1eb4ddd20128c",
}

# records_digest over OVERFLOW_X at every (t, n) of OVERFLOW_T x OVERFLOW_N.
# Frozen before the coefficient kernel shared its subexpressions.
OVERFLOW_BAND_DIGESTS = {
    "0.5|10": "a65690488f5da21d3796272ccb17f2dff062831ec19d8c905f7bf3e720059d50",
    "0.5|1e+06": "0e22fa8702df92b5db47d0f29f3e6a54abb2f035ed2f56be6e9d82c71e9d75fe",
    "1|10": "ba1d64d77f9a07c5bce939ca7b25f96822f86b870aa792e2e2c64a2b19fdc7ac",
    "1|1e+06": "1efebe0bcdad51ce91430f8d101608de1b66df4a2bb68c144910815f2731b047",
    "2|10": "153922e88d10a46604eae39ee0fbf99e33942aecc75e6e6932db2aae4183083a",
    "2|1e+06": "d6d3cefabb168e24f5417725940e7f09c97c8de3e50dd7bcdb4e14836092faa7",
    "3|10": "6afcb88ad50c801c0794cf56f6ffc7745895f3000829116841e079c2c5006411",
    "3|1e+06": "d1bac8d7a02591044189e5a1a10227b35a338b1b0524227c9a049944c874d7f4",
    "8|10": "6d29a7a9c61bc97f35cea86cc2cdb162e0e8b00ae47cc6e2df5ff5d31e16c7eb",
    "8|1e+06": "d8f67f832007e892d31b2283fabf89d29d624399c95ac022bf649800aed2fec9",
}


def assert_shape_and_dtype(nc, xs, shape) -> np.ndarray:
    """exact_cdf_values over xs: a float64 array of the input's shape, with
    the bytes of the same points flattened, and of each point as a 0-d
    input."""
    out = exact_cdf_values(nc, xs)
    assert type(out) is np.ndarray
    assert out.shape == shape and out.dtype == np.float64
    flat_xs = np.asarray(xs, dtype=float).ravel()
    flat = exact_cdf_values(nc, flat_xs)
    assert out.ravel().tobytes() == flat.tobytes()
    for x, value in zip(flat_xs, flat):
        assert exact_cdf_values(nc, np.array(x)).tobytes() == value.tobytes()
    return out


class TestFrozenBytes:
    """The exact law keeps its bits, in both paths, wherever it is evaluated."""

    @pytest.mark.parametrize("n", LOCK_N)
    @pytest.mark.parametrize("t", LOCK_T)
    def test_digests(self, t, n):
        assert lock_digests(t, n) == EXACT_LAW_DIGESTS[f"{t:g}|{n:g}"]

    @pytest.mark.parametrize("n", LOCK_N)
    @pytest.mark.parametrize("t", LOCK_T)
    def test_scalar_digests(self, t, n):
        assert scalar_digests(t, n) == SCALAR_DIGESTS[f"{t:g}|{n:g}"]

    @pytest.mark.parametrize("key", PDF_BAND_DIGESTS)
    def test_pdf_band_digests(self, key):
        t, n = map(float, key.split("|"))
        assert band_digest(t, n) == PDF_BAND_DIGESTS[key]

    @pytest.mark.parametrize("n", OVERFLOW_N)
    @pytest.mark.parametrize("t", OVERFLOW_T)
    def test_overflow_band_digests(self, t, n):
        digest = records_digest(norming_constants(n, t), OVERFLOW_X)
        assert digest == OVERFLOW_BAND_DIGESTS[f"{t:g}|{n:g}"]

    def test_overflow_band_is_mixed(self):
        # at every t the points straddle the refusal of the coefficients
        for t in OVERFLOW_T:
            refused = [record_or_error(coefficients, t, x).startswith("DomainError")
                       for x in OVERFLOW_X]
            assert 0 < sum(refused) < len(refused)

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
        (np.linspace(-1.5, 4.0, 2000), (2000,)),
    ])
    def test_shape_and_dtype(self, xs, shape):
        # at t = 3 and 0.7 the power is inexact, and numpy's scalar pow
        # differs from its array loop in the last bits (at 93 of the 2000
        # points at t = 3): a 0-d input must take the array loop too
        for n, t in ((1000.0, 1.0), (1e6, 3.0), (1e6, 0.7)):
            assert_shape_and_dtype(norming_constants(n, t), xs, shape)

    @pytest.mark.parametrize("offsets,mixed", [
        (np.array(1e-6), False),  # the boundary patch, on the whole 0-d input
        (np.array(1.0), False),   # the tail
        (np.array([[1e-12, 0.5, 30.0], [3.0, 1e-9, 1e-3]]), True),
        (np.array([1e-3, 0.01, 0.5, 2.0, 5.0, 30.0], dtype=np.float32).reshape(3, 2), True),
    ])
    def test_shape_and_dtype_next_to_x_min(self, offsets, mixed, monkeypatch):
        # at n = 10 the boundary and tail patches select part of an
        # array, so every shape goes through the gather and scatter
        nc = norming_constants(10.0, 1.0)
        xs = -nc.d / nc.c + offsets
        assert xs.shape == offsets.shape and xs.dtype == offsets.dtype
        out = assert_shape_and_dtype(nc, xs, offsets.shape)
        conds = []
        patch = _ArrayOps.patch
        monkeypatch.setattr(_ArrayOps, "patch", lambda out, cond, *rest:
                            conds.append(cond) or patch(out, cond, *rest))
        assert exact_cdf_values(nc, xs).tobytes() == out.tobytes()
        # a 0-d input runs one patch whole; these arrays scatter two
        assert [bool(c.all()) for c in conds if c.any()] == ([False] * 2 if mixed else [True])
        for x, value in zip(xs.ravel().tolist(), out.ravel().tolist()):
            assert rel_err(value, exact_cdf(nc, x).value) < 1e-13


class TestPowerShortcut:
    """On a grid wholly on the support the array kernel settles every point
    with the bound delta <= n*(log(-y) - y) at the least y = log Phi, and
    skips the delta pass; the lock arrays hold NaN and boundary points, so
    their digests never take it."""

    @pytest.mark.parametrize("n", LOCK_N)
    @pytest.mark.parametrize("t", LOCK_T)
    def test_law_grid_has_the_lock_bytes(self, t, n, monkeypatch):
        nc = norming_constants(n, t)
        locked = exact_cdf_values(nc, lock_points(nc))[:LAW_GRID.size]
        delta_passes = []
        monkeypatch.setattr(_ArrayOps, "expm1", lambda v: delta_passes.append(1) or np.expm1(v))
        grid = exact_cdf_values(nc, LAW_GRID)
        # the bound holds on the whole grid from n = 1e3 on, at none of n <= 100
        assert (not delta_passes) == (n >= 1e3)
        assert grid.tobytes() == locked.tobytes()
        # the scalar path agrees up to the ulps by which math's and numpy's
        # ** give g, times the conditioning of n*log Phi (5e-14 at most here)
        for x, value in zip(LAW_GRID.tolist(), grid.tolist()):
            if nc.c * x + nc.d > 0.0:
                assert rel_err(exact_cdf(nc, x).value, value) < 1e-13
            else:
                assert value == 0.0


class TestPdfSurvivalTerm:
    """Next to x_min, Phi(g) is near 1/2 and (1 - Phi)^(n-1) is as large as
    Phi^(n-1): there exact_pdf follows the oracle only with both terms. From
    n = 1.1e3 on, 2^(1-n) underflows and the density is 0 wherever the
    survival term is material, so the n stay below that."""

    @pytest.mark.parametrize("n", [5.0, 10.0, 30.0, 100.0, 1e3])
    @pytest.mark.parametrize("t", LOCK_T)
    def test_next_to_x_min_against_oracle_at_same_g(self, t, n):
        nc = norming_constants(n, t)
        x_min = -nc.d / nc.c
        for h in (1e-12, 1e-9, 1e-6):
            g, dg_dx = transformed_quantile(nc, x_min + h)
            want = float(oracles.hp_exact_pdf_at_g(n, g, dg_dx))
            assert rel_err(exact_pdf(nc, x_min + h), want) < 2e-12


class TestLogPhiCalls:
    """The array kernel takes log Phi from _ArrayOps.log_phi and calls
    log_ndtr only for log(1 - Phi) on the subnormal tail; the scalar kernel
    takes log Phi from one log_ndtr per point."""

    @staticmethod
    def count_calls(monkeypatch, ops, name) -> list:
        calls = []
        op = getattr(ops, name)
        monkeypatch.setattr(ops, name, lambda g: calls.append(g) or op(g))
        return calls

    @pytest.mark.parametrize("n", LOCK_N)
    @pytest.mark.parametrize("t", LOCK_T)
    def test_law_grid(self, t, n, monkeypatch):
        nc = norming_constants(n, t)
        calls = self.count_calls(monkeypatch, _ArrayOps, "log_ndtr")
        exact_cdf_values(nc, LAW_GRID)
        assert calls == []

    @pytest.mark.parametrize("n", [10.0, 1e6, 1e300])
    @pytest.mark.parametrize("t", LOCK_T)
    def test_subnormal_points_only(self, t, n, monkeypatch):
        nc = norming_constants(n, t)
        g = np.linspace(0.0, 40.0, 4001)  # reaches the subnormal band at 37.5
        xs = (g ** t - nc.d) / nc.c
        g = np.maximum(nc.c * xs + nc.d, 0.0) ** (1.0 / t)  # the kernel's own g
        subnormal = g[log_ndtr(g) > -exact_law._TINY]
        assert 0 < subnormal.size < g.size and subnormal.min() > 37.5
        calls = self.count_calls(monkeypatch, _ArrayOps, "log_ndtr")
        exact_cdf_values(nc, xs)
        assert len(calls) == 1
        assert calls[0].tobytes() == (-subnormal).tobytes()

    @pytest.mark.parametrize("n", LOCK_N)
    @pytest.mark.parametrize("t", LOCK_T)
    def test_scalar_takes_one_log_ndtr_per_point(self, t, n, monkeypatch):
        nc = norming_constants(n, t)
        assert _ScalarOps.log_phi is log_ndtr
        calls = self.count_calls(monkeypatch, _ScalarOps, "log_phi")
        tail_calls = self.count_calls(monkeypatch, _ScalarOps, "log_ndtr")
        xs = on_support(nc, LAW_GRID)
        for x in xs:
            exact_cdf(nc, x)
        assert len(calls) == len(xs) and tail_calls == []


class TestHugeN:
    """From n = 1e65 on the oracle takes Phi^n through logs, since 1 - Phi
    falls below its working precision; the library is compared with it at
    the library's own g."""

    @pytest.mark.parametrize("x", [-1.0, 0.0, 1.0, 2.0])
    @pytest.mark.parametrize("t", LOCK_T)
    @pytest.mark.parametrize("n", [1e65, 1e100, 1e300])
    def test_against_oracle_at_same_g(self, n, t, x):
        nc = norming_constants(n, t)
        g, dg_dx = transformed_quantile(nc, x)
        want = oracles.hp_exact_cdf_at_g(n, g)
        assert rel_err(exact_cdf(nc, x).log_value, float(oracles.mp.log(want))) < 2e-12
        assert rel_err(exact_pdf(nc, x), float(oracles.hp_exact_pdf_at_g(n, g, dg_dx))) < 2e-12


class TestSubnormalTail:
    """Where 1 - Phi(g) is subnormal (g > 37.5) log Phi has lost its bits,
    down to 0 from g = 37.68 on; n*log Phi then comes from log(1 - Phi)."""

    @pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("x", [20.0, 25.0, 30.0, 35.0])
    def test_against_oracle_at_same_g(self, t, x):
        n = 1e300
        nc = norming_constants(n, t)
        g, dg_dx = transformed_quantile(nc, x)
        s = oracles.hp_survival(g)
        assert s < 2.2e-308
        want = n * oracles.mp.log1p(-s)  # s^n is far below it
        p = exact_cdf(nc, x)
        assert rel_err(p.log_value, float(want)) < 1e-12
        value = float(oracles.mp.exp(want))
        assert abs(p.value - value) <= math.ulp(value)
        # the whole-array shortcut, and the full path (a NaN point forces it)
        for xs in ([x], [x, math.nan]):
            assert abs(exact_cdf_values(nc, np.array(xs))[0] - value) <= math.ulp(value)
        want_pdf = (n * oracles.hp_std_normal_pdf(g) * dg_dx
                    * oracles.mp.exp((n - 1) * oracles.mp.log1p(-s)))
        assert rel_err(exact_pdf(nc, x), float(want_pdf)) < 2e-12
