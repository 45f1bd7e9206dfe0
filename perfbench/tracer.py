"""Span recorder for the benchmark's traced runs.

``Tracer.install`` wraps every public function of the powex layer modules
at every module attribute that binds it (``powex.exact_law.exact_cdf`` and
``powex.convergence_lab.exact_cdf`` alike), so nested calls become child
spans and a function's self time is its duration minus its children's.
Spans live in flat arrays in memory until the run ends. Work counts that
per-call times are divided by (points, draws, replicates, emitted values)
are recorded by the same wrappers.

Run as a script, ``python tracer.py SPANS_FILE ARGS...`` runs the powex CLI
with ``ARGS`` under a tracer and writes the spans to ``SPANS_FILE`` as JSON.
"""
from __future__ import annotations

import array
import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("norming", "special_functions", "expansions", "exact_law",
          "convergence_lab", "montecarlo", "cli", "acceptance")

# Every op span gets this name; the workload's calls nest under it.
OP = "op"

# Bytes computed per draw in simulate_block_maxima: the uniform is written,
# ndtri reads it and writes the normal, the row max reads the normal.
SIM_BYTES_PER_DRAW = 4 * 8
# Bytes computed per replicate: the row max is written, then abs, power,
# shift and scale each read and write one float, and the result is stored.
SIM_BYTES_PER_REP = 8 + 5 * 16


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _simulate_counts(args, kwargs, sample) -> dict:
    draws = sample.reps * int(sample.nc.n)
    return {"draws": draws, "reps": sample.reps,
            "bytes_computed": SIM_BYTES_PER_DRAW * draws + SIM_BYTES_PER_REP * sample.reps}


def _emit_counts(args, kwargs, text) -> dict:
    return {"values": len(_arg(args, kwargs, 0, "rows")) * len(_arg(args, kwargs, 1, "schema"))}


# Work counts recorded per call, by traced name.
COUNTERS = {
    "exact_law.exact_cdf_values": lambda a, k, r: {"points": r.size},
    "montecarlo.simulate_block_maxima": _simulate_counts,
    "montecarlo.ks_check": lambda a, k, r: {"reps": _arg(a, k, 0, "sample").reps},
    "convergence_lab.error_curve": lambda a, k, r: {"points": len(r.rows)},
    "convergence_lab.hall_limit_check": lambda a, k, r: {"points": len(r.rows)},
    "cli.emit_table": _emit_counts,
}


def public_functions() -> dict[int, tuple[str, object]]:
    """id(function) -> (traced name, function) for each layer's own public functions."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"powex.{layer}")
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                found[id(obj)] = (f"{layer}.{attr}", obj)
    return found


class Tracer:
    """In-memory spans (name, op, parent, start, end) plus work counts."""

    def __init__(self, child_spans_path: Path | None = None):
        self.names = [OP]
        self.fn = array.array("i")
        self.op = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.counts: dict[tuple[str, str], float] = {}
        self.child_spans_path = child_spans_path
        self._stack: list[int] = []
        self._ops = 0
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _open(self, fn_id: int) -> int:
        i = len(self.start)
        self.fn.append(fn_id)
        self.op.append(self._ops)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def _count(self, name: str, counts: dict) -> None:
        for key, value in counts.items():
            self.counts[name, key] = self.counts.get((name, key), 0) + value

    def _wrap(self, name: str, func):
        fn_id = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        open_, close = self._open, self._close

        @functools.wraps(func)
        def traced(*args, **kwargs):
            i = open_(fn_id)
            try:
                result = func(*args, **kwargs)
            finally:
                close(i)
            if counter is not None:
                self._count(name, counter(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap each public layer function at every powex attribute bound to it."""
        targets = public_functions()
        wrappers = {}
        for module_name, module in list(sys.modules.items()):
            if module_name != "powex" and not module_name.startswith("powex."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) not in targets or targets[id(obj)][1] is not obj:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(*targets[id(obj)])
                setattr(module, attr, wrappers[id(obj)])
                self._restore.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def begin_op(self) -> int:
        return self._open(0)

    def end_op(self, i: int) -> None:
        self._close(i)
        self._ops += 1

    def export(self) -> dict:
        return {"names": self.names, "fn": self.fn.tolist(), "op": self.op.tolist(),
                "parent": self.parent.tolist(), "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(),
                "counts": [[name, key, value] for (name, key), value in self.counts.items()]}

    def merge_child(self, spans: dict) -> None:
        """Append a child process's spans under the op span now open."""
        ids = []
        for name in spans["names"]:
            if name not in self.names:
                self.names.append(name)
            ids.append(self.names.index(name))
        base = len(self.start)
        here = self._stack[-1] if self._stack else -1
        for fn, parent, start, end in zip(spans["fn"], spans["parent"],
                                          spans["start_ns"], spans["end_ns"]):
            self.fn.append(ids[fn])
            self.op.append(self._ops)
            self.parent.append(here if parent < 0 else base + parent)
            self.start.append(start)
            self.end.append(end)
        for name, key, value in spans["counts"]:
            self._count(name, {key: value})

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            json.dump(self.export(), f)

    def function_stats(self) -> dict[str, tuple[int, int, int]]:
        """Traced name -> (calls, total ns, self ns); ``op`` covers the ops."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        covered = [0] * len(durations)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += durations[i]
        stats: dict[str, list[int]] = {}
        for i, fn in enumerate(self.fn):
            rec = stats.setdefault(self.names[fn], [0, 0, 0])
            rec[0] += 1
            rec[1] += durations[i]
            rec[2] += durations[i] - covered[i]
        return {name: tuple(rec) for name, rec in stats.items()}


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from powex import cli

    sys.argv = ["powex", *argv]
    try:
        cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    spans_path.write_text(json.dumps(tracer.export()))
    return code


if __name__ == "__main__":
    sys.exit(main())
