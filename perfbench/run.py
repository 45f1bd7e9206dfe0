"""powex benchmark: three seeded, closed-loop, single-client workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports powex from the ``src`` directory beside its own directory and
needs no installed copy. Workloads:

  law_sweep      the scalar numeric path (norming, expansions, exact law,
                 convergence lab), one "study" per op
  mc_crosscheck  the bulk-array path: simulate_block_maxima plus two
                 ks_check calls per op
  cli_session    one cold ``python -m powex`` subprocess per op

One client runs ops one at a time in this process; at most one child
process is alive at any moment. Every op's output is checked against
``refs.json``; an op whose output is wrong, or that raises, counts as
failed.

``--trace 0`` measures for S seconds with tracing off and prints the
end-to-end metrics. Op times are given at a nominal host speed: each op's
latency is scaled by a fixed host-speed reference of the workload's kind,
timed before and after the op (see reference.py), so that a shared host's
slow phases cancel and a change to powex still moves the figures as it
moves raw time. Each op of the cycle is summarised by the median of its
scaled latencies over the run; op_p50_ms and op_p90_ms are percentiles of
those per-op figures over the cycle, and throughput_ops_s is the ops per
second they add up to, times the share of ops that were correct. A summary
line gives the same figures unscaled. setup_s, unscaled, is the median of
seven fresh processes that each import powex, build the inputs and run one
warm-up op (for cli_session: build the inputs and run one cold subprocess).
peak_rss_mb is the peak resident memory of those processes after they go
on to run every op of the cycle once, in a fixed order (for cli_session: of
the largest child of the timed ops). The summary lines also give
failed_ops_share, failed ops over ops attempted.

``--trace 1`` measures S/2 seconds untraced, then whole cycles of ops
traced (at most S/2 seconds), times the start-up, warm CLI dispatch and
acceptance-battery probes untraced, and prints the per-layer metrics; the
spans are written to ``.perfbench/spans-<workload>.json.gz``.
Per-op counts come from the traced ops only. A per-call time of a function
the workload never calls comes from a fixed traced probe (one op of each
in-process workload and one in-process dispatch of each CLI verb).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

WHY = {
    "law_sweep": "scalar numeric path bound by Python per-call overhead, where a vectorized "
                 "numeric core must show its gain; exact_law runs in scalar and array form "
                 "side by side; montecarlo idle",
    "mc_crosscheck": "bulk-array path bound by the Philox stream and ndtri, where "
                     "max-before-ndtri must show its gain; n varies at ~2e6 draws per op, "
                     "trading per-draw against per-replicate cost",
    "cli_session": "CLI cold start, bound by interpreter start-up and import powex; the only "
                   "workload on the cli formatting and serialisation path, one "
                   "python -m powex subprocess per op",
}
LOAD_SHAPE = ("closed loop, one client, ops one at a time; at most one child "
              "process alive")

SETUP_REPEATS = 7
# The host-speed reference of each workload's kind (see reference.py).
REFERENCES = {"law_sweep": "interpreter", "mc_crosscheck": "array",
              "cli_session": "interpreter"}
PROBE_REPEATS = 5
SPAN_LIMIT = 300_000

DISPATCH_VERBS = ("norming", "table", "rates", "mills", "simulate")
NUMERIC_CHECKS = ("check_norming_residual", "check_mills_series", "check_hall_limit",
                  "check_cdf_remainder_slope", "check_pdf_remainder_slope",
                  "check_order_improvement", "check_t2_acceleration",
                  "check_exact_self_consistency")

# Public functions whose calls per op the traced run reports: every one
# that some workload calls.
CALL_COUNTED = (
    "norming.solve_b", "norming.norming_constants", "norming.transformed_quantile",
    "special_functions.std_normal_pdf", "special_functions.survival",
    "special_functions.mills_series_survival", "special_functions.gumbel_cdf",
    "special_functions.gumbel_pdf",
    "expansions.coefficients", "expansions.cdf_approx", "expansions.pdf_approx",
    "exact_law.exact_cdf", "exact_law.exact_pdf", "exact_law.exact_cdf_values",
    "convergence_lab.error_curve", "convergence_lab.rate_fit",
    "convergence_lab.hall_limit_check", "convergence_lab.default_n_grid",
    "montecarlo.simulate_block_maxima", "montecarlo.ks_check",
    "cli.main", "cli.parse_and_dispatch", "cli.build_parser", "cli.parse_grid",
    "cli.parse_n_grid", "cli.emit_table", "cli.format_number",
)
SHARE_LAYERS = ("norming", "special_functions", "expansions", "exact_law",
                "convergence_lab", "montecarlo")

END_TO_END_UNITS = {"throughput_ops_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_refs() -> dict:
    return json.loads((HERE / "refs.json").read_text())


def make_workload(name: str, seed: int, refs: dict):
    if name == "cli_session":
        from cli_session import CliSession
        return CliSession(seed, refs, ROOT)
    import inprocess
    workload = {"law_sweep": inprocess.LawSweep, "mc_crosscheck": inprocess.McCrosscheck}[name]
    return workload(seed, refs)


class Tally:
    """Ops attempted and failed over the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: wrong output from op {what!r}", file=sys.stderr)


def run_op(workload, op, tally: Tally, tracer=None) -> tuple[float, bool]:
    start = time.perf_counter()
    span = tracer.begin_op() if tracer is not None else None
    try:
        ok = workload.run(op)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    finally:
        if span is not None:
            tracer.end_op(span)
    elapsed = time.perf_counter() - start
    tally.record(ok, op)
    return elapsed, ok


def timed_loop(workload, seconds: float, tally: Tally, ref):
    """Cycle through the ops until ``seconds`` pass, with the host-speed
    reference ``ref`` timed before the first op and after every op.

    Returns the latencies of each cycle position, raw and scaled to the
    nominal host speed by the mean time of the two references around each
    op; the ok ops; the wall time; and the reference times.
    """
    raw = [[] for _ in workload.cycle]
    scaled = [[] for _ in workload.cycle]
    refs = [ref.time()]
    ok_ops = 0
    start = time.perf_counter()
    i = 0
    while True:
        position = i % len(workload.cycle)
        elapsed, ok = run_op(workload, workload.cycle[position], tally)
        refs.append(ref.time())
        raw[position].append(elapsed)
        scaled[position].append(elapsed * ref.nominal_s / ((refs[-2] + refs[-1]) / 2))
        ok_ops += ok
        i += 1
        wall = time.perf_counter() - start
        if wall >= seconds:
            return raw, scaled, ok_ops, wall, refs


def traced_cycles(workload, budget: float, tally: Tally, tracer) -> tuple[int, int, float]:
    """Whole cycles under the tracer, at least one, while the next one fits
    the time budget and the span limit: (ops, ok ops, wall)."""
    ops = ok_ops = 0
    start = time.perf_counter()
    while True:
        cycle_start, spans_before = time.perf_counter(), len(tracer)
        for op in workload.cycle:
            ok_ops += run_op(workload, op, tally, tracer)[1]
            ops += 1
        now = time.perf_counter()
        if (now - start + (now - cycle_start) > budget
                or len(tracer) + (len(tracer) - spans_before) > SPAN_LIMIT):
            return ops, ok_ops, now - start


def setup_probe(name: str, seed: int) -> None:
    """Child side of the set-up measurement: import, build the inputs and run
    one warm-up op; then, in process, the rest of the cycle for the peak RSS.

    The ops run in a fixed order, the same for every seed, so that the op
    timed into set-up and the allocator's high-water mark repeat.
    """
    start = time.perf_counter()
    workload = make_workload(name, seed, load_refs())
    ops = sorted(workload.cycle, key=str)
    results = [workload.run(ops[0])]
    setup_s = time.perf_counter() - start
    if name != "cli_session":
        results += [workload.run(op) for op in ops[1:]]
    print(json.dumps({"setup_s": setup_s, "ops": len(results), "failed": results.count(False),
                      "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))


def measure_setup(name: str, seed: int, tally: Tally) -> tuple[list[float], list[int]]:
    """Set-up times and peak RSS (KiB) of ``SETUP_REPEATS`` fresh processes.

    Set-up times stay unscaled: no reference tracked them (set-up is mostly
    imports, file reads and page faults).
    """
    from cli_session import run_child

    times, peaks = [], []
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--setup-probe"]
        code, out, err, _ = run_child(argv, ROOT)
        if code != 0:
            sys.stderr.write(err.decode(errors="replace"))
            fail(f"set-up probe exited with {code}")
        result = json.loads(out.decode().splitlines()[-1])
        tally.attempted += result["ops"]
        tally.failed += result["failed"]
        if result["failed"]:
            print(f"perfbench: {result['failed']} wrong outputs in a set-up probe", file=sys.stderr)
        times.append(result["setup_s"])
        peaks.append(result["peak_rss_kib"])
    return times, peaks


def end_to_end(name: str, seed: int, seconds: float, tally: Tally) -> dict:
    setup, probe_peaks = measure_setup(name, seed, tally)
    workload = make_workload(name, seed, load_refs())
    ref = getattr(reference, REFERENCES[name])()
    run_op(workload, workload.cycle[0], tally)  # warm-up
    raw, scaled, ok_ops, wall, refs = timed_loop(workload, seconds, tally, ref)
    ops = sum(map(len, raw))
    if name == "mc_crosscheck":
        tally.record(workload.canary_ok(), "seeded sample canary")
    # cli_session: the largest child of the run; otherwise a probe process
    # that ran every op of the cycle once
    peak_kib = workload.peak_rss_kib if name == "cli_session" else statistics.median(probe_peaks)

    def figures(latencies: list[list[float]]) -> dict:
        # each op of the cycle at the median of its latencies
        costs = [statistics.median(values) for values in latencies if values]
        return {
            "throughput_ops_s": ok_ops / ops * len(costs) / sum(costs),
            "op_p50_ms": statistics.median(costs) * 1e3,
            "op_p90_ms": statistics.quantiles(costs, n=10, method="inclusive")[8] * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_kib / 1024,
        }

    print(f"# samples: {ops} timed ops in {wall:.1f} s, {min(map(len, raw))} or more "
          f"of each of the {len(raw)} ops of the cycle; {len(setup)} set-ups; "
          f"{len(refs)} timings of the {REFERENCES[name]} reference, median "
          f"{statistics.median(refs) * 1e3:.4g} ms (nominal {ref.nominal_s * 1e3:g} ms)")
    print("# raw, unscaled: " + ", ".join(f"{key} = {value:.6g} {END_TO_END_UNITS[key]}"
                                          for key, value in figures(raw).items()))
    return {key: {"value": value, "unit": END_TO_END_UNITS[key]}
            for key, value in figures(scaled).items()}


class LayerView:
    """Per-layer figures from one tracer; times fall back to ``fallback``
    for functions this tracer never saw."""

    def __init__(self, tracer, ops: int, fallback: LayerView | None = None):
        self.stats = tracer.function_stats()
        self.counts = tracer.counts
        self.ops = ops
        self.fallback = fallback

    def calls_per_op(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[0] / self.ops

    def count_per_op(self, name: str, key: str) -> float:
        return self.counts.get((name, key), 0) / self.ops

    def ns_per(self, name: str, unit: str | None = None, own: bool = False) -> float:
        """Total (or self) ns per call, or per counted unit of work."""
        view = self
        if not self.stats.get(name, (0,))[0] and self.fallback is not None:
            view = self.fallback
        calls, total, self_ns = view.stats.get(name, (0, 0, 0))
        denominator = calls if unit is None else view.counts.get((name, unit), 0)
        if not denominator:
            print(f"perfbench: no traced calls of {name}", file=sys.stderr)
            return 0.0
        return (self_ns if own else total) / denominator

    def self_share(self, layer: str) -> float:
        own = sum(rec[2] for name, rec in self.stats.items()
                  if name.startswith(layer + "."))
        return own / self.stats["op"][1]


def dispatch(argv: list[str]) -> str:
    """One in-process CLI invocation with stdout captured."""
    from powex import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.parse_and_dispatch(argv)
    return out.getvalue()


def median_time(func, repeats: int = PROBE_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probe_tracer(refs: dict, verbs: dict):
    """Fixed traced probe: one op of each in-process workload and one
    in-process dispatch of each CLI verb."""
    import inprocess
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        law, mc = inprocess.LawSweep(0, refs), inprocess.McCrosscheck(0, refs)
        for workload, op in ((law, inprocess.LawOp(1.0, 48, 0.0, "cdf")),
                             (mc, inprocess.McOp(100, 2.0, 42))):
            span = tracer.begin_op()
            workload.run(op)
            tracer.end_op(span)
        for argv in verbs.values():
            span = tracer.begin_op()
            dispatch(argv)
            tracer.end_op(span)
    finally:
        tracer.uninstall()
    return tracer


def cli_and_acceptance_probes(verbs: dict) -> dict:
    """Start-up, warm dispatch and acceptance-battery timings, untraced."""
    from cli_session import run_child
    from powex import acceptance

    def child(code: str) -> None:
        run_child([sys.executable, "-c", code], ROOT)

    values = {}
    start_s = median_time(lambda: child("pass"))
    values["cli.interpreter_start_ms"] = ("ms", start_s * 1e3)
    values["cli.import_powex_ms"] = ("ms", (median_time(lambda: child("import powex"))
                                            - start_s) * 1e3)
    for verb, argv in verbs.items():
        dispatch(argv)  # warm
        values[f"cli.dispatch_warm_ms.{verb}"] = ("ms", median_time(lambda: dispatch(argv)) * 1e3)
    values["acceptance.numeric_checks_s"] = ("s", median_time(
        lambda: [getattr(acceptance, check)() for check in NUMERIC_CHECKS]))
    values["acceptance.check_monte_carlo_s"] = ("s", median_time(acceptance.check_monte_carlo, 1))
    values["acceptance.check_cli_determinism_s"] = (
        "s", median_time(acceptance.check_cli_determinism, 1))
    return values


def per_layer(name: str, seed: int, seconds: float, tally: Tally) -> dict:
    from tracer import Tracer

    refs = load_refs()
    workload = make_workload(name, seed, refs)
    run_op(workload, workload.cycle[0], tally)  # warm-up
    plain, _, plain_ok, _, _ = timed_loop(workload, seconds / 2, tally,
                                         getattr(reference, REFERENCES[name])())
    plain_wall = sum(map(sum, plain))

    tracer = Tracer(child_spans_path=OUT_DIR / "child-spans.json")
    OUT_DIR.mkdir(exist_ok=True)
    cli = name == "cli_session"
    if cli:
        workload.tracer, workload.output_bytes = tracer, 0
    else:
        tracer.install()
    try:
        ops, traced_ok, traced_wall = traced_cycles(workload, seconds / 2, tally, tracer)
    finally:
        if cli:
            workload.tracer = None
        else:
            tracer.uninstall()
    output_bytes = workload.output_bytes if cli else 0

    verbs = {verb: next(c["argv"] for c in refs["cli_session"]["commands"]
                        if c["argv"][0] == verb) for verb in DISPATCH_VERBS}
    view = LayerView(tracer, ops, fallback=LayerView(probe_tracer(refs, verbs), 1))
    tracer.dump(OUT_DIR / f"spans-{name}.json.gz")

    values = {f"{fn}.calls_per_op": ("count", view.calls_per_op(fn)) for fn in CALL_COUNTED}
    us = {"norming.norming_constants.us_per_call": ("norming.norming_constants", None, False),
          "expansions.coefficients.us_per_call": ("expansions.coefficients", None, False),
          "expansions.cdf_approx.self_us_per_call": ("expansions.cdf_approx", None, True),
          "expansions.pdf_approx.self_us_per_call": ("expansions.pdf_approx", None, True),
          "exact_law.exact_cdf.us_per_call": ("exact_law.exact_cdf", None, False),
          "exact_law.exact_pdf.us_per_call": ("exact_law.exact_pdf", None, False),
          "convergence_lab.error_curve.self_us_per_point":
              ("convergence_lab.error_curve", "points", True),
          "convergence_lab.hall_limit_check.self_us_per_point":
              ("convergence_lab.hall_limit_check", "points", True),
          "convergence_lab.rate_fit.us_per_call": ("convergence_lab.rate_fit", None, False)}
    for metric, (fn, unit, own) in us.items():
        values[metric] = ("us", view.ns_per(fn, unit, own) / 1e3)
    for layer in SHARE_LAYERS:
        values[f"{layer}.self_share"] = ("share", view.self_share(layer))
    values.update({
        "exact_law.exact_cdf_values.ns_per_point":
            ("ns", view.ns_per("exact_law.exact_cdf_values", "points")),
        "exact_law.exact_cdf_values.points_per_op":
            ("count", view.count_per_op("exact_law.exact_cdf_values", "points")),
        "montecarlo.simulate_block_maxima.ns_per_draw":
            ("ns", view.ns_per("montecarlo.simulate_block_maxima", "draws")),
        "montecarlo.simulate_block_maxima.draws_per_op":
            ("count", view.count_per_op("montecarlo.simulate_block_maxima", "draws")),
        # computed from array sizes, not measured
        "montecarlo.simulate_block_maxima.bytes_computed_per_op":
            ("B", view.count_per_op("montecarlo.simulate_block_maxima", "bytes_computed")),
        "montecarlo.ks_check.ns_per_rep": ("ns", view.ns_per("montecarlo.ks_check", "reps")),
        "cli.output_bytes_per_op": ("B", output_bytes / ops),
        "cli.emit_ns_per_value": ("ns", view.ns_per("cli.emit_table", "values")),
    })
    values.update(cli_and_acceptance_probes(verbs))
    values["trace.overhead_ratio"] = ("ratio", (traced_ok / traced_wall) / (plain_ok / plain_wall))
    print(f"# samples: {ops} traced ops, {len(tracer)} spans")
    return {key: {"value": value, "unit": unit} for key, (unit, value) in values.items()}


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            **{pkg: importlib.metadata.version(pkg) for pkg in ("numpy", "scipy")},
            "commit": git_commit()}


def provenance(args) -> list[str]:
    env = environment()
    return [f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
            f"why: {WHY[args.workload]}",
            f"load: {LOAD_SHAPE}",
            f"nproc={env['nproc']} python {env['python']}, numpy {env['numpy']}, "
            f"scipy {env['scipy']}, commit {env['commit']}"]


def use_checkout_sources() -> None:
    """Import powex, here and in every child, from the checkout's ``src``."""
    from cli_session import powex_env

    src = ROOT / "src"
    if not (src / "powex" / "__init__.py").is_file():
        fail(f"no powex sources under {src}")
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = powex_env(ROOT)["PYTHONPATH"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WHY), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    use_checkout_sources()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return

    for line in provenance(args):
        print("# " + line)
    tally = Tally()
    if args.trace:
        metrics = per_layer(args.workload, args.seed, args.seconds, tally)
    else:
        metrics = end_to_end(args.workload, args.seed, args.seconds, tally)
    for key, metric in metrics.items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed_ops_share = {tally.failed / tally.attempted:.6g} share "
          f"({tally.failed} of {tally.attempted} ops)")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
