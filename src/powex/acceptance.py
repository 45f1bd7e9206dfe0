"""The acceptance checks behind ``powex verify``: quantitative desk-scale
verification of every headline property, each with an explicit measured
value, bound, and runtime budget.

Check functions return a CheckResult and never raise on a failed bound;
they raise only if the computation itself cannot run. ``run_all`` executes
the full battery in order.
"""
from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import site
import subprocess
import sys
import time
from typing import NamedTuple, Sequence

from .cli import parse_and_dispatch
from .convergence_lab import error_curve, hall_limit_check, naive_t2_constants, \
    rate_fit, Scaling
from .exact_law import exact_cdf, exact_pdf
from .expansions import ApproxOrder, cdf_approx, pdf_approx
from .montecarlo import ks_check, simulate_block_maxima
from .norming import norming_constants, solve_b
from .special_functions import LOG_2PI, gumbel_cdf, mills_series_bound, \
    mills_series_survival, survival


class CheckResult(NamedTuple):
    check: str
    status: str  # PASS or FAIL
    measured: float
    bound: float
    detail: str = ""
    elapsed_s: float = 0.0


def _check(name: str, budget_s: float = math.inf):
    """Make a zero-argument check from a body returning ``(ok, measured,
    bound, detail)``. The check times the whole body, first calls included,
    and PASSes only when ``ok`` holds and the body used under ``budget_s`` s
    of process CPU time, so time the host spends on other processes is not
    charged to it; ``elapsed_s`` reports the body's wall time."""
    def decorate(body):
        @functools.wraps(body)
        def check() -> CheckResult:
            start, start_cpu = time.perf_counter(), time.process_time()
            ok, measured, bound, detail = body()
            cpu = time.process_time() - start_cpu
            elapsed = time.perf_counter() - start
            status = "PASS" if ok and cpu < budget_s else "FAIL"
            return CheckResult(name, status, measured, bound, detail, elapsed)
        return check
    return decorate


@_check("norming-residual", budget_s=1e-3)
def check_norming_residual():
    """|2*pi*b^2*e^{b^2}/n^2 - 1| <= 1e-12 at n in {10, 1e3, 1e6, 1e12}, under 1 ms."""
    ns = [10.0, 1e3, 1e6, 1e12]
    bs = [solve_b(n) for n in ns]
    worst = max(
        abs(math.exp(LOG_2PI + math.log(b * b) + b * b - 2.0 * math.log(n)) - 1.0)
        for n, b in zip(ns, bs)
    )
    return worst <= 1e-12, worst, 1e-12, f"over {len(ns)} solves"


@_check("mills-series", budget_s=1e-3)
def check_mills_series():
    """Series error within 2*a_{L+1}*x^{-2(L+1)}*phi(x)/x for x in {5,10,20},
    L in 0..3, under 1 ms."""
    worst_ratio = 0.0
    for x in (5.0, 10.0, 20.0):
        exact = survival(x).value
        for order in range(4):
            approx = mills_series_survival(x, order).value
            worst_ratio = max(worst_ratio, abs(approx - exact) / mills_series_bound(x, order))
    return worst_ratio <= 1.0, worst_ratio, 1.0, "max |error|/bound ratio"


@_check("hall-limit", budget_s=1.0)
def check_hall_limit():
    """Scaled error vs k1: |gap| at n=1e12 within 1.5|k2|/b^2 + 10/b^4 and
    below the n=1e6 gap, for t in {0.5, 1, 3, 2} x x in {-1, 0, 1, 2}."""
    checks = [hall_limit_check(t, x, [1e6, 1e12])
              for t in (0.5, 1.0, 3.0, 2.0) for x in (-1.0, 0.0, 1.0, 2.0)]
    worst = max(abs(res.final_gap) / res.bound for res in checks)
    return (all(res.passed for res in checks), worst, 1.0,
            "max |final gap|/bound over 16 (t,x)")


def _remainder_slope(target: str, combos: list[tuple[float, float]]):
    grid = [10.0 ** k for k in range(3, 13)]
    worst_dev = 0.0
    ok = True
    slopes = []
    for t, x in combos:
        curve = error_curve(t, x, grid, ApproxOrder.THIRD, target=target,
                            scaling=Scaling.THIRD_ORDER_REMAINDER)
        fit = rate_fit(curve)
        slopes.append(f"(t={t:g},x={x:g})={fit.slope:.3f}")
        worst_dev = max(worst_dev, abs(fit.slope + 4.0))
        ok = ok and -5.0 <= fit.slope <= -3.0
    return ok, worst_dev, 1.0, f"max |slope+4|; slopes {', '.join(slopes)}"


@_check("cdf-remainder-slope", budget_s=1.0)
def check_cdf_remainder_slope():
    """Third-order distribution remainder decays with ln-b slope in [-5, -3]."""
    return _remainder_slope("cdf", [(1.0, 0.0), (1.0, 1.0), (3.0, 0.0), (3.0, 1.0)])


@_check("pdf-remainder-slope", budget_s=1.0)
def check_pdf_remainder_slope():
    """Density remainder (varpi, tau construction) slope in [-5, -3]."""
    return _remainder_slope("pdf", [(1.0, 0.0), (1.0, 1.0), (2.0, 0.0), (2.0, 1.0)])


@_check("order-improvement", budget_s=1.0)
def check_order_improvement():
    """Sup-error over x in [-1.5, 4] strictly drops limit -> second -> third
    at n = 1e6 for t in {1, 2}, both cdf and pdf."""
    xs = [-1.5 + 0.25 * i for i in range(23)]
    orders = [ApproxOrder.LIMIT, ApproxOrder.SECOND, ApproxOrder.THIRD]
    worst_ratio = 0.0
    details = []
    for t in (1.0, 2.0):
        nc = norming_constants(1e6, t)
        for target in ("cdf", "pdf"):
            approx = cdf_approx if target == "cdf" else pdf_approx
            exact = [approx(nc, x, ApproxOrder.EXACT).value for x in xs]
            sups = [max(abs(approx(nc, x, order).value - e) for x, e in zip(xs, exact))
                    for order in orders]
            for a, b in zip(sups, sups[1:]):
                worst_ratio = max(worst_ratio, b / a)
            details.append(f"t={t:g} {target}: "
                           + "->".join(f"{s:.2e}" for s in sups))
    return worst_ratio < 1.0, worst_ratio, 1.0, "; ".join(details)


@_check("t2-acceleration", budget_s=1e-3)
def check_t2_acceleration():
    """At n = 1e6, x = 0 the adjusted t=2 constants beat the naive (c=2, d=b^2)
    ones by at least 5x in |exact_cdf - Lambda|, under 1 ms."""
    lam = gumbel_cdf(0.0).value
    adjusted = abs(exact_cdf(norming_constants(1e6, 2.0), 0.0).value - lam)
    naive = abs(exact_cdf(naive_t2_constants(1e6), 0.0).value - lam)
    ratio = naive / adjusted
    return ratio >= 5.0, ratio, 5.0, "naive/adjusted error ratio (pass when >= bound)"


@_check("exact-self-consistency", budget_s=1.0)
def check_exact_self_consistency():
    """exact_pdf matches the central difference of exact_cdf to 1e-6 relative
    on [-1, 4] for (n, t) in {1e3, 1e6} x {0.5, 1, 2, 3}."""
    worst = 0.0
    xs = [-1.0 + 0.25 * i for i in range(21)]
    for n in (1e3, 1e6):
        for t in (0.5, 1.0, 2.0, 3.0):
            nc = norming_constants(n, t)
            for x in xs:
                h = 1e-5 * max(1.0, abs(x))
                pdf = exact_pdf(nc, x)
                diff = (exact_cdf(nc, x + h).value - exact_cdf(nc, x - h).value) / (2 * h)
                worst = max(worst, abs(diff - pdf) / pdf)
    return worst <= 1e-6, worst, 1e-6, "max relative gap over 168 points"


MC_SEED = 42


@_check("monte-carlo-ks", budget_s=60.0)
def check_monte_carlo():
    """n=100, t=2, reps=1e6, fixed seed: KS vs exact law within the DKW band
    at alpha=0.001, and KS vs the Gumbel limit at least 0.01, under 60 s."""
    nc = norming_constants(100, 2.0)
    sample = simulate_block_maxima(nc, 10 ** 6, MC_SEED)
    against_exact = ks_check(sample, "exact", alpha=0.001)
    against_limit = ks_check(sample, "limit", alpha=0.001)
    ok = against_exact.passed and against_limit.statistic >= 0.01
    return (ok, against_exact.statistic, against_exact.bound,
            f"D_exact={against_exact.statistic:.6f} vs DKW "
            f"{against_exact.bound:.6f}; D_limit="
            f"{against_limit.statistic:.6f} (needs >= 0.01); seed={MC_SEED}")


# Documented command lines whose output must be byte-identical across runs.
DETERMINISM_COMMANDS: tuple[tuple[str, ...], ...] = (
    ("norming", "--n", "1000", "--t", "2"),
    ("norming", "--n", "1e6", "--t", "0.5", "--format", "json"),
    ("norming", "--n", "1"),
    ("table", "--n", "1e6", "--t", "1", "--x=-1:4:0.25",
     "--orders", "limit,second,third,exact", "--target", "cdf"),
    ("table", "--n", "1000", "--t", "2", "--x=0:2:0.5",
     "--orders", "limit,third", "--target", "pdf"),
    ("mills", "--x", "5:20:5", "--order", "3"),
    ("rates", "--t", "1", "--x", "0", "--n-grid", "1e3:1e10:10"),
    ("simulate", "--n", "100", "--t", "2", "--reps", "2000", "--seed", "42"),
)

_SOURCE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _child_env() -> dict[str, str]:
    """``os.environ`` with this package's parent directory first on
    ``PYTHONPATH``, so that a child imports this powex; a site directory,
    which a child searches anyway after the standard library, is left off."""
    env = dict(os.environ)
    if _SOURCE_ROOT not in {*site.getsitepackages(), site.getusersitepackages()}:
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SOURCE_ROOT, env.get("PYTHONPATH")]))
    return env


def _run_cli(cmd: tuple[str, ...]) -> tuple[int, bytes, bytes] | None:
    try:  # a child that times out gives None, which no in-process run equals
        proc = subprocess.run([sys.executable, "-m", "powex", *cmd], env=_child_env(),
                              capture_output=True, timeout=120)
    except subprocess.TimeoutExpired:
        return None
    return proc.returncode, proc.stdout, proc.stderr


def _run_in_process(cmd: Sequence[str]) -> tuple[int, bytes, bytes]:
    """``cmd`` run by ``cli.parse_and_dispatch`` in this process: its exit
    code and its standard output and error as UTF-8 bytes, the triple that
    ``_run_cli`` returns."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = parse_and_dispatch(cmd)
    return code, out.getvalue().encode(), err.getvalue().encode()


@_check("cli-determinism")
def check_cli_determinism():
    """Every documented command gives the same exit code, standard output
    and standard error bytes in a cold ``python -m powex`` child as in this
    process. The two runs are separate processes with their own hash seeds;
    the second is warm, its imports already done."""
    mismatched = [" ".join(cmd) for cmd in DETERMINISM_COMMANDS
                  if _run_cli(cmd) != _run_in_process(cmd)]
    detail = f"{len(DETERMINISM_COMMANDS)} commands run cold and in process"
    if mismatched:
        detail += "; mismatched: " + "; ".join(mismatched)
    return not mismatched, float(len(mismatched)), 0.0, detail


def run_all() -> list[CheckResult]:
    """All acceptance checks, in their documented order."""
    return [
        check_norming_residual(),
        check_mills_series(),
        check_hall_limit(),
        check_cdf_remainder_slope(),
        check_pdf_remainder_slope(),
        check_order_improvement(),
        check_t2_acceleration(),
        check_exact_self_consistency(),
        check_monte_carlo(),
        check_cli_determinism(),
    ]
