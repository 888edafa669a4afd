"""Host-speed probe: wall times scaled to a nominal host.

On small shared hosts the CPU speed itself drifts: on the 2-vCPU host
this benchmark was built on, a fixed reference kernel took 1.3-1.4 ms for
minutes at a time and 2.7 ms for the next minutes, and a pass of cold
solves slowed with it.  Every timed unit is therefore bracketed by two
probes of that kernel, and its wall time is scaled by
``NOMINAL_PROBE_S / probe``: the time the unit would have taken on a
host where the probe takes ``NOMINAL_PROBE_S``.  Over 60 passes of cold
solves spanning five minutes this cut the pass-to-pass coefficient of
variation from 0.20 (raw wall) to 0.08 (scaled).

The kernel mixes the two kinds of work the program does: Python-level
dict and tuple handling, and small NumPy array operations.  It is
benchmark code, so no change to ``src/repro`` can move it.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

#: probe time (fastest of ``PROBE_CALLS`` calls) on the reference host,
#: fast phase
NOMINAL_PROBE_S = 1.3e-3
#: calls per probe; the fastest filters a single preempted call
PROBE_CALLS = 3


def _reference() -> float:
    table: dict[tuple[int, int], float] = {}
    acc = 0.0
    for i in range(4000):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += table[key]
    values = np.linspace(0.0, 1.0, 48)
    for _ in range(150):
        values = np.minimum(values * 1.01 + 0.001, 1.0)
        acc += float(values.sum())
    return acc


def probe() -> float:
    """Seconds the reference kernel takes now (fastest of a few calls)."""
    best = float("inf")
    for _ in range(PROBE_CALLS):
        start = time.perf_counter()
        _reference()
        best = min(best, time.perf_counter() - start)
    return best


class Measured:
    """Raw and host-scaled seconds of measured units, plus the probes."""

    def __init__(self) -> None:
        self.probes: list[float] = []

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any):
        """Call ``fn``; returns ``(value, raw_s, scaled_s)``."""
        before = probe()
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        raw = time.perf_counter() - start
        after = probe()
        self.probes += (before, after)
        return value, raw, raw * NOMINAL_PROBE_S * 2.0 / (before + after)

    def speed(self) -> float:
        """Median host speed relative to nominal (1.0 = nominal)."""
        if not self.probes:
            return 0.0
        ordered = sorted(self.probes)
        return NOMINAL_PROBE_S / ordered[len(ordered) // 2]
