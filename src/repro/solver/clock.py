"""The solver's single wall-clock access point.

Solvers report anytime profiles (``Incumbent.wall_time_s``) and
enforce wall budgets, which genuinely need a real clock -- but the
flow analysis (HAX002) rightly treats clock reads inside the
solver/core packages as a concurrency-hazard smell.  Concentrating
the one legitimate read here keeps the rest of the solver clock-free:
every other module calls :func:`monotonic_s`, the read below is the
one HAX002 key in ``tools/flow_baseline.json``, and a stray
``time.time()`` / ``perf_counter()`` anywhere else is a new finding.

``time.perf_counter`` (not ``time.time``): budgets and anytime
profiles must never jump under NTP slews or DST -- only a monotonic
clock guarantees ``later - earlier >= 0``.
"""

from __future__ import annotations

import time


def monotonic_s() -> float:
    """Seconds from a monotonic clock with an arbitrary epoch.

    Only differences are meaningful; never compare against wall-clock
    timestamps or persist across processes.
    """
    return time.perf_counter()
