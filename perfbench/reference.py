"""Host-speed references: fixed work that calls no powex code.

Other tenants of a shared host slow this process by up to 1.7x, in phases
that flip within a second and last up to minutes, and they slow unlike
kinds of work unlike: interpreter-bound code more than array-bound code.
Each workload's op latencies are therefore scaled by a reference of its own
kind, timed right before and right after each op. A change to powex does
not touch the references, so it moves the scaled figures as it moves raw
time.

Each reference is built by a function that returns a callable taking no
arguments; ``nominal_s`` is its time at the nominal host speed, the speed
the scaled figures are given at.
"""
from __future__ import annotations

import json
import math
import re
import time
from typing import Callable, NamedTuple


class Reference(NamedTuple):
    run: Callable[[], object]
    nominal_s: float

    def time(self) -> float:
        start = time.perf_counter()
        self.run()
        return time.perf_counter() - start


def interpreter() -> Reference:
    """Interpreter-bound work spread over many functions and modules, like
    law_sweep's scalar path and a cold CLI start-up."""
    data = {"a": [1, 2, 3], "b": {"c": "text", "d": 1.5}, "e": list(range(20))}
    pattern = re.compile(r"(\w+)=(\d+\.?\d*)")
    words = [f"k{i}={i * 1.5}" for i in range(60)]

    def run() -> float:
        total = 0.0
        for _ in range(4):
            total += len(json.loads(json.dumps(data))["e"])
            total += sum(float(m.group(2)) for m in map(pattern.match, words))
            total += len(sorted(words, key=lambda word: word[::-1]))
            total += sum(math.lgamma(i + 1.5) + math.erfc(i / 10) for i in range(50))
            total += len(f"{total:.6g} {'x':>10}".split())
        return total

    return Reference(run, 0.4e-3)


def array() -> Reference:
    """Array-bound work in numpy and scipy.special: Philox uniforms through
    ndtri to a maximum, like mc_crosscheck's block maxima."""
    import numpy as np
    from scipy import special

    def run() -> float:
        uniforms = np.random.Generator(np.random.Philox(0)).random(50_000)
        return float(special.ndtri(uniforms).max())

    return Reference(run, 2e-3)
