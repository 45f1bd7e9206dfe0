"""Independent high-precision oracles and frozen reference values.

The oracle survival function never touches the library (or scipy): the body
of the distribution goes through a Taylor-series error function at 80-digit
working precision, the far tail through the Gauss continued fraction for
the Mills ratio. Norming roots come from plain bisection. Values frozen
below were produced by these oracles at 40 significant digits and verified
against mpmath's own normal CDF; tests compare the float64 library against
them.
"""
from __future__ import annotations

import mpmath as mp

mp.mp.dps = 40

_TAYLOR_CUTOFF = 8  # Taylor erf below, continued fraction above


def _erf_taylor(z: mp.mpf) -> mp.mpf:
    # erf(z) = 2/sqrt(pi) * sum (-1)^k z^(2k+1) / (k! (2k+1))
    total = mp.mpf(0)
    term = z
    k = 0
    while abs(term) > mp.mpf(10) ** (-(mp.mp.dps + 10)) * max(1, abs(total)):
        total += term / (2 * k + 1)
        k += 1
        term = -term * z * z / k
        if k > 500:
            break
    return 2 / mp.sqrt(mp.pi) * total


def _tail_cf(x: mp.mpf, depth: int = 200) -> mp.mpf:
    # Gauss continued fraction: (1 - Phi(x)) = phi(x) / (x + 1/(x + 2/(x + ...)))
    acc = mp.mpf(0)
    for k in range(depth, 0, -1):
        acc = k / (x + acc)
    phi = mp.exp(-x * x / 2) / mp.sqrt(2 * mp.pi)
    return phi / (x + acc)


def hp_survival(x) -> mp.mpf:
    """1 - Phi(x) at full working precision, independent of the library."""
    x = mp.mpf(x)
    if x < 0:
        return 1 - hp_survival(-x)
    if x <= _TAYLOR_CUTOFF:
        with mp.workdps(mp.mp.dps * 2 + 10):
            val = (1 - _erf_taylor(x / mp.sqrt(2))) / 2
        return +val
    return _tail_cf(x)


def hp_std_normal_pdf(x) -> mp.mpf:
    x = mp.mpf(x)
    return mp.exp(-x * x / 2) / mp.sqrt(2 * mp.pi)


def bisect_u(n) -> mp.mpf:
    """Root of u + ln(u) = 2 ln(n) - ln(2 pi) by plain bisection."""
    n = mp.mpf(n)
    target = 2 * mp.log(n) - mp.log(2 * mp.pi)
    # ln(u) > 0 above u = 1, so the root is below max(target, 1)
    lo, hi = mp.mpf("1e-12"), max(target, mp.mpf(1))
    for _ in range(220):
        mid = (lo + hi) / 2
        if mid + mp.log(mid) - target < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def hp_constants(n, t):
    """(b, c, d) from the bisection oracle."""
    u = bisect_u(n)
    b = mp.sqrt(u)
    t = mp.mpf(t)
    if t == 2:
        c = 2 * (1 - 1 / u)
        d = u - 2 / u
    else:
        c = t * b ** (t - 2)
        d = b ** t
    return b, c, d


def _powers(m, s) -> tuple[mp.mpf, mp.mpf]:
    """Phi^m and (1 - Phi)^m from s = 1 - Phi, through logs: (1 - s)**m
    rounds to 1 once s is below the working precision (n = 1e100 on)."""
    return mp.exp(m * mp.log1p(-s)), mp.exp(m * mp.log(s))


def hp_exact_cdf(n, t, x) -> mp.mpf:
    """Phi^n(g) - (1 - Phi(g))^n through the oracle survival function."""
    b, c, d = hp_constants(n, t)
    return hp_exact_cdf_at_g(n, (c * mp.mpf(x) + d) ** (1 / mp.mpf(t)))


def hp_exact_cdf_at_g(n, g) -> mp.mpf:
    """Phi^n(g) - (1 - Phi(g))^n at a given transformed quantile g.

    Near the support boundary the float64 g carries the conditioning of
    c*x + d, so boundary tests compare the library with this at the same g.
    """
    with mp.workdps(2 * mp.mp.dps):
        n = mp.mpf(n)
        power, surv_power = _powers(n, hp_survival(mp.mpf(g)))
        return +(power - surv_power)


def hp_exact_pdf(n, t, x) -> mp.mpf:
    """n phi(g) g'(x) (Phi^{n-1}(g) + (1 - Phi(g))^{n-1}) via the oracle."""
    t = mp.mpf(t)
    b, c, d = hp_constants(n, t)
    arg = c * mp.mpf(x) + d
    return hp_exact_pdf_at_g(n, arg ** (1 / t), (c / t) * arg ** (1 / t - 1))


def hp_exact_pdf_at_g(n, g, dg_dx) -> mp.mpf:
    """The exact density at a given transformed quantile g and its derivative."""
    n = mp.mpf(n)
    g = mp.mpf(g)
    power, surv_power = _powers(n - 1, hp_survival(g))
    return n * hp_std_normal_pdf(g) * mp.mpf(dg_dx) * (power + surv_power)


def hp_gumbel_cdf(x) -> mp.mpf:
    return mp.exp(-mp.exp(-mp.mpf(x)))


def hp_gumbel_pdf(x) -> mp.mpf:
    x = mp.mpf(x)
    return mp.exp(-x - mp.exp(-x))


# ---------------------------------------------------------------------------
# Values produced by the oracles above at 40 significant digits, rounded to
# the nearest float64 and frozen. The library is float64, so tests compare
# against these with relative tolerances of a few ulp, not equality.

# u = b^2 solving u e^u = n^2/(2 pi)
U_SOLUTIONS = {
    2: 0.41879382922488895,
    3: 0.7066157563736918,
    4: 0.9676236816983187,
    5: 1.1992785722465165,
    10: 2.0496325744621036,
    100: 5.642190864357296,
    1000: 9.70499299656577,
    10 ** 6: 22.672012801913592,
    10 ** 12: 49.5217531351308,
    10 ** 14: 58.56437889436489,
}

# 1 - Phi(x)
SURVIVAL_VALUES = {
    -1.0: 0.8413447460685429,
    0.0: 0.5,
    5.0: 2.866515718791939e-07,
    10.0: 7.619853024160525e-24,
    20.0: 2.7536241186062337e-89,
}

STD_NORMAL_PDF_10 = 7.694598626706419e-23

# survival at b_1000 = sqrt(U_SOLUTIONS[1000])
SURVIVAL_AT_B_1000 = 0.0009188401199208711

# norming constants at n = 1000
B_1000 = 3.1152837746448987
C_1000_T1 = 0.32099804458872666
C_1000_T2 = 1.7939205107404277
D_1000_T2 = 9.498913507306197

# exact law reference points
EXACT_CDF_1000_T1_X0 = 0.39881305239127035
EXACT_PDF_1000_T1_X0 = 0.3991798348385834
EXACT_CDF_10_T2_X0 = 0.19678419651664966

# truncated expansions at n = 1000, t = 1, x = 0
CDF_SECOND_1000_T1_X0 = 0.4057856448442962
CDF_THIRD_1000_T1_X0 = 0.39602103097845737

# survival-power expansion nu at n = 1000, x = 0
NU_1000_T1_X0 = 0.39602103097845737  # coincides with the third-order cdf
NU_1000_T2_X0 = 0.3599775367890298

# density factor n * d/dx Phi(g): truncated expansion vs exact, n = 1000, t = 2
DENSITY_FACTOR_EXPANSION_1000_T2_X0 = 1.0049439303398517
DENSITY_FACTOR_EXACT_1000_T2_X0 = 1.005040212971943
DENSITY_FACTOR_EXACT_1000_T2_X1 = 0.37590148685156877

# density ratio f_n/Lambda': truncated expansion vs exact, n = 1000, t = 2, x = 0
PDF_RATIO_EXPANSION_1000_T2_X0 = 0.9834643272469188
PDF_RATIO_EXACT_1000_T2_X0 = 0.9778092374030998

# limit-order distribution residuals (Lambda - exact) at t = 1, x = 0
RESIDUAL_LIMIT_T1_X0_N1E3 = -0.030933611219828006
RESIDUAL_LIMIT_T1_X0_N1E6 = -0.014733393425206862

# b^2 (exact - Lambda)/Lambda' at t = 1, x = 0, n = 1000
HALL_SCALED_T1_X0_N1E3 = 0.8160566931681633

# ---------------------------------------------------------------------------
# Library regression locks: float64 outputs of the library itself, frozen on
# first run. These pin determinism, not mathematical truth.

# simulate_block_maxima(norming_constants(100, 2.0), reps=5, seed=42).values
SIM_N100_T2_R5_S42 = (
    -0.23675718414510918,
    -0.5098823801890175,
    -0.51647809157174,
    1.6683968504656657,
    1.6539247700983957,
)

# rate_fit of the third-order cdf remainder curve, t=1, x=0, default n grid
SLOPE_T1_X0 = -3.5016867944255914
STDERR_T1_X0 = 0.04041221433585609
