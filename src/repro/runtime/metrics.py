"""Latency / FPS / SLO aggregation helpers shared by the experiment
suite, the streaming driver, and the serving layer."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def fps_from_latency(latency_ms: float, frames: int = 1) -> float:
    """Frames/second from a per-round latency in milliseconds."""
    if latency_ms <= 0:
        return float("inf")
    return frames * 1e3 / latency_ms


def improvement_percent(baseline: float, improved: float) -> float:
    """Percent reduction from ``baseline`` to ``improved``.

    Positive when ``improved`` is smaller (faster); the unit the
    paper's "Improvement over the best baseline (%)" columns use.
    """
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return (baseline - improved) / baseline * 100.0


def speedup(baseline: float, improved: float) -> float:
    """Multiplicative speedup, the unit of paper Table 8."""
    if improved <= 0:
        raise ValueError("improved time must be positive")
    return baseline / improved


def hit_rate(hits: int, misses: int) -> float:
    """Cache hit fraction; 0.0 before any lookup happened.

    Shared by every cache the stack reports on (schedule cache,
    evaluation memo, slowdown cells) so summaries agree on the
    no-traffic convention.
    """
    if hits < 0 or misses < 0:
        raise ValueError("hits and misses must be >= 0")
    lookups = hits + misses
    return hits / lookups if lookups else 0.0


# -- sample aggregation -----------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of a sample (q in [0, 100])."""
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    vals = list(values)
    if not vals:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(vals, q))


def percentile_ms(latencies_s: Sequence[float], q: float) -> float:
    """Latency percentile of a sample in seconds, reported in ms."""
    return percentile(latencies_s, q) * 1e3


def mean_ms(latencies_s: Sequence[float]) -> float:
    """Mean of a latency sample in seconds, reported in ms."""
    vals = list(latencies_s)
    if not vals:
        raise ValueError("mean of an empty sample")
    return float(np.mean(vals)) * 1e3


def deadline_miss_rate(
    latencies_s: Iterable[float], deadline_s: float | None
) -> float:
    """Fraction of samples exceeding the deadline (0 when unset)."""
    vals = list(latencies_s)
    if deadline_s is None or not vals:
        return 0.0
    misses = sum(1 for lat in vals if lat > deadline_s + 1e-12)
    return misses / len(vals)


def goodput_rps(good_count: int, span_s: float) -> float:
    """SLO-compliant completions per second over a serving span."""
    if good_count < 0:
        raise ValueError("good_count must be >= 0")
    if span_s <= 0:
        return float("inf") if good_count else 0.0
    return good_count / span_s


def throughput_rps(count: int, wall_s: float) -> float:
    """Completions per *wall-clock* second.

    The fleet benchmark's unit: unlike :func:`goodput_rps` (which
    divides by the virtual serving span), this measures how fast the
    serving system itself ran -- sharding shrinks per-shard solve
    sizes, so the same virtual trace completes in less wall time.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if wall_s <= 0:
        return float("inf") if count else 0.0
    return count / wall_s


def per_round_ms(total_s: float, rounds: int) -> float:
    """Mean wall milliseconds per executed round (0 with no rounds).

    The fleet's per-round wall metric: a shard's wall seconds spread
    over the rounds it actually dispatched.
    """
    if total_s < 0:
        raise ValueError("total_s must be >= 0")
    if rounds <= 0:
        return 0.0
    return total_s * 1e3 / rounds


def utilization(busy_s: float, span_s: float) -> float:
    """Busy fraction of a resource over a span, clamped to [0, 1]."""
    if busy_s < 0 or span_s < 0:
        raise ValueError("busy_s and span_s must be >= 0")
    if span_s <= 0:
        return 0.0
    return min(busy_s / span_s, 1.0)
