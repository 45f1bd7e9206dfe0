"""The ``cli_session`` workload: cold ``python -m powex`` invocations, one at
a time, cycling through the commands frozen in ``refs.json`` in a seeded
order. Each op checks the exit code and the sha256 of stdout against the
digests frozen with the commands; an op that should fail must also write
``error:`` on stderr.

This module imports nothing from powex, so the untraced parent process
stays small and the set-up it measures is the children's.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 120


def powex_env(root: Path) -> dict:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], root: Path) -> tuple[int, bytes, bytes, int]:
    """Run one child to completion: (exit code, stdout, stderr, peak RSS in KiB).

    The peak RSS is the child's own, from ``wait4``, so it does not mix with
    other children's. The child is killed and reaped on timeout or error.
    """
    proc = subprocess.Popen(argv, cwd=root, env=powex_env(root),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    chunks = {}

    def drain(name, stream):
        chunks[name] = stream.read()

    readers = [threading.Thread(target=drain, args=(name, stream))
               for name, stream in (("out", proc.stdout), ("err", proc.stderr))]
    try:
        for r in readers:
            r.start()
        for r in readers:
            r.join(CHILD_TIMEOUT_S)
        if any(r.is_alive() for r in readers):
            raise TimeoutError(f"child {argv!r} ran longer than {CHILD_TIMEOUT_S} s")
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        for r in readers:
            r.join()
        proc.stdout.close()
        proc.stderr.close()
    return proc.returncode, chunks["out"], chunks["err"], usage.ru_maxrss


class CliSession:
    """Cold CLI start-up plus the formatting and serialisation path."""

    def __init__(self, seed: int, refs: dict, root: Path):
        self.root = root
        self.cycle = list(refs["cli_session"]["commands"])
        random.Random(seed).shuffle(self.cycle)
        self.peak_rss_kib = 0
        self.output_bytes = 0
        # a Tracer while the run is traced: children then run under
        # tracer.py and hand their spans back through a file
        self.tracer = None

    def run(self, command: dict) -> bool:
        if self.tracer is None:
            argv = [sys.executable, "-m", "powex", *command["argv"]]
        else:
            spans = self.tracer.child_spans_path
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), *command["argv"]]
        code, out, err, rss = run_child(argv, self.root)
        if self.tracer is not None:
            self.tracer.merge_child(json.loads(spans.read_text()))
            spans.unlink()
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        self.output_bytes += len(out)
        ok = (code == command["exit_code"]
              and hashlib.sha256(out).hexdigest() == command["stdout_sha256"])
        if command["exit_code"] != 0:
            ok = ok and err.startswith(b"error:")
        return ok
