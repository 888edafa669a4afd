"""Discrete-event simulator of concurrent execution on a shared-memory SoC.

This is the substrate that stands in for the physical Jetson/Snapdragon
boards: every experiment's reported latency/FPS comes from running a
schedule through this engine, never from a scheduler's own estimate.

Execution model
---------------
* Each accelerator executes at most one task at a time, picking the
  first *ready* task in its priority queue (a task is ready when all
  its dependencies have finished and its release time has passed).
* A task carries two work quantities: pure compute seconds (dedicated
  to its accelerator) and DRAM bytes streamed through the shared
  memory controller.  Compute and traffic progress in lockstep, so a
  task's progress rate under a bandwidth allocation ``b`` is
  ``min(1 / compute_s, b / dram_bytes)`` fractions per second --
  exactly the roofline the standalone model uses, now with a shared
  ``b``.
* At every task start/end the engine recomputes bandwidth allocations
  via demand-capped max-min fair sharing of the EMC capacity, which
  itself degrades slightly with the number of active clients
  (arbitration overhead).  Memory-bound tasks stretch; compute-bound
  ones are barely affected -- the central phenomenon of the paper.
* Each such period is recorded as a
  :class:`~repro.soc.timeline.ContentionInterval` (paper Fig. 4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence, TypeVar

from repro.soc.platform import Platform
from repro.soc.timeline import ContentionInterval, TaskRecord, Timeline

#: relative slack when comparing simulated times
_EPS = 1e-12
#: client key of :func:`max_min_allocate`
K = TypeVar("K", bound=Hashable)


class DeadlockError(RuntimeError):
    """No task can make progress but work remains (bad schedule)."""


class BandwidthExhaustedError(ValueError):
    """Background traffic leaves a running task no positive achieved
    bandwidth: the interference model is outside its valid range."""


@dataclass(frozen=True)
class SimTask:
    """One schedulable unit of work (a layer group or a transition)."""

    task_id: str
    accel: str
    #: dedicated-compute duration in seconds (launch overhead included)
    compute_s: float
    #: bytes streamed through the shared EMC
    dram_bytes: float
    #: bandwidth cap the task can pull even when alone (bytes/s)
    max_bw: float
    #: task ids that must finish before this one may start
    deps: tuple[str, ...] = ()
    #: earliest wall-clock start (streaming frame arrivals)
    release_time: float = 0.0
    #: labels for timeline queries (dnn, iteration, group, role, ...)
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.compute_s < 0 or self.dram_bytes < 0:
            raise ValueError(f"{self.task_id}: negative work")
        if self.dram_bytes > 0 and self.max_bw <= 0:
            raise ValueError(f"{self.task_id}: traffic but no bandwidth cap")
        if self.release_time < 0:
            raise ValueError(f"{self.task_id}: negative release time")

    @property
    def standalone_s(self) -> float:
        """Duration with the memory system to itself."""
        mem_s = self.dram_bytes / self.max_bw if self.dram_bytes else 0.0
        return max(self.compute_s, mem_s)


@dataclass
class _Running:
    task: SimTask
    start: float
    fraction: float = 0.0
    #: current allocated bandwidth, refreshed each interval
    alloc_bw: float = 0.0

    def demand(self) -> float:
        """Bandwidth that would let the task run at full standalone rate."""
        t = self.task
        if t.dram_bytes <= 0:
            return 0.0
        if t.compute_s <= 0:
            return t.max_bw
        return min(t.dram_bytes / t.compute_s, t.max_bw)

    def rate(self) -> float:
        """Progress in fractions/second under the current allocation."""
        t = self.task
        compute_rate = 1.0 / t.compute_s if t.compute_s > 0 else float("inf")
        if t.dram_bytes > 0:
            mem_rate = self.alloc_bw / t.dram_bytes
        else:
            mem_rate = float("inf")
        r = min(compute_rate, mem_rate)
        if r == float("inf"):  # zero-work task: finishes instantly
            return 1e18
        return r


def max_min_allocate(
    demands: Mapping[K, float], capacity: float
) -> dict[K, float]:
    """Demand-capped max-min fair division of EMC bandwidth.

    Clients demanding less than an equal share keep their demand; the
    leftover is redistributed among the rest.  When total demand fits
    within capacity everyone is satisfied and no slowdown occurs.
    """
    alloc = {k: 0.0 for k in demands}
    pending = {k: d for k, d in demands.items() if d > 0}
    remaining = capacity
    while pending and remaining > _EPS:
        share = remaining / len(pending)
        satisfied = [k for k, d in pending.items() if d <= share + _EPS]
        if satisfied:
            for k in satisfied:
                alloc[k] = pending.pop(k)
                remaining -= alloc[k]
        else:
            for k in pending:
                alloc[k] = share
            remaining = 0.0
            pending.clear()
    return alloc


class Engine:
    """Event-driven executor for a set of :class:`SimTask`.

    Parameters
    ----------
    platform:
        The SoC whose EMC arbitration governs contention.
    contention:
        Disable to give every task its standalone bandwidth cap -- used
        by ablations and by contention-unaware baseline predictions.
    background_bw:
        Constant bytes/s stolen from the EMC by an unmodeled agent
        (e.g. the Z3 solver running on a CPU core in Table 7).
    """

    def __init__(
        self,
        platform: Platform,
        *,
        contention: bool = True,
        background_bw: float = 0.0,
    ) -> None:
        if background_bw < 0:
            raise ValueError("background_bw must be >= 0")
        self.platform = platform
        self.contention = contention
        self.background_bw = background_bw

    # -----------------------------------------------------------------
    def run(
        self,
        tasks: Sequence[SimTask],
        queues: Mapping[str, Sequence[str]] | None = None,
    ) -> Timeline:
        """Execute ``tasks`` and return the observed timeline.

        ``queues`` optionally fixes the per-accelerator priority order;
        by default tasks keep their list order.  Raises
        :class:`DeadlockError` when dependencies can never be met.
        """
        by_id = {t.task_id: t for t in tasks}
        if len(by_id) != len(tasks):
            raise ValueError("duplicate task ids")
        for t in tasks:
            for d in t.deps:
                if d not in by_id:
                    raise ValueError(f"{t.task_id}: unknown dep {d!r}")
        accel_names = {t.accel for t in tasks}
        unknown = accel_names - set(self.platform.accelerator_names) - {"cpu"}
        if unknown:
            raise ValueError(
                f"tasks reference unknown accelerators {sorted(unknown)}"
            )

        if queues is None:
            # sorted: set iteration order would leak PYTHONHASHSEED
            # into per-accelerator FCFS queue construction
            order: dict[str, list[str]] = {
                a: [] for a in sorted(accel_names)
            }
            for t in tasks:
                order[t.accel].append(t.task_id)
        else:
            order = {a: list(ids) for a, ids in queues.items()}
            queued = set(itertools.chain.from_iterable(order.values()))
            if queued != set(by_id):
                raise ValueError("queues must cover every task exactly once")

        finished: dict[str, float] = {}
        running: dict[str, _Running] = {}  # accel -> running task
        records: list[TaskRecord] = []
        intervals: list[ContentionInterval] = []
        now = 0.0

        def ready_time(task: SimTask) -> float:
            """Instant the task became runnable (deps done + released)."""
            dep_end = max(
                (finished[d] for d in task.deps), default=0.0
            )
            return max(task.release_time, dep_end)

        def try_start(t_now: float) -> bool:
            """Start tasks on idle accelerators, first-come-first-served.

            Among runnable tasks the one that became ready earliest
            wins (queue position breaks ties) -- the policy a real
            runtime's per-DSA submission queues exhibit, and the same
            policy the scheduler's cost model assumes.
            """
            started = False
            for accel, queue in order.items():
                if accel in running:
                    continue
                best_id, best_key = None, None
                for position, task_id in enumerate(queue):
                    task = by_id[task_id]
                    if task.release_time > t_now + _EPS:
                        continue
                    if any(d not in finished for d in task.deps):
                        continue
                    key = (ready_time(task), position)
                    if best_key is None or key < best_key:
                        best_id, best_key = task_id, key
                if best_id is not None:
                    queue.remove(best_id)
                    running[accel] = _Running(by_id[best_id], t_now)
                    started = True
            return started

        def reallocate() -> None:
            if not running:
                return
            if not self.contention:
                for r in running.values():
                    r.alloc_bw = r.task.max_bw
                return
            demands = {
                r.task.task_id: r.demand() for r in running.values()
            }
            capacity = self.platform.emc_capacity(len(running))
            capacity = max(capacity - self.background_bw, 0.05 * capacity)
            alloc = max_min_allocate(demands, capacity)
            # sub-saturation interference: a client's achieved bandwidth
            # degrades with the traffic the *other* clients generate
            # (bank conflicts / row-buffer misses), even when its
            # max-min allocation is fully satisfied.
            coeff = self.platform.interference_coeff
            total_alloc = sum(alloc.values()) + self.background_bw
            for r in running.values():
                b = alloc[r.task.task_id]
                others = total_alloc - b
                factor = 1.0 - coeff * others / capacity
                if b > 0 and factor <= 0:
                    raise BandwidthExhaustedError(
                        f"{r.task.task_id}: background_bw "
                        f"{self.background_bw:.4g} B/s leaves no "
                        f"bandwidth at t={now:.6f}s"
                    )
                r.alloc_bw = b * factor

        total = len(by_id)
        while len(finished) < total:
            while try_start(now):
                pass
            if not running:
                # jump to the next release time, if any
                future = [
                    by_id[tid].release_time
                    for q in order.values()
                    for tid in q
                    if by_id[tid].release_time > now + _EPS
                ]
                if not future:
                    missing = [tid for q in order.values() for tid in q]
                    raise DeadlockError(
                        f"no runnable task at t={now:.6f}s; "
                        f"blocked: {missing[:8]}{'...' if len(missing) > 8 else ''}"
                    )
                now = min(future)
                continue

            reallocate()
            # horizon: earliest finish or earliest future release that
            # could enable a new task on an idle accelerator
            etas: list[float] = []
            for r in running.values():
                rate = r.rate()
                etas.append(now + (1.0 - r.fraction) / rate)
            horizon = min(etas)
            releases = [
                by_id[tid].release_time
                for accel, q in order.items()
                if accel not in running
                for tid in q
                if now + _EPS < by_id[tid].release_time < horizon
            ]
            next_t = min(releases) if releases else horizon

            dt = next_t - now
            interval_alloc = {
                r.task.task_id: r.alloc_bw for r in running.values()
            }
            if dt > 0:
                intervals.append(
                    ContentionInterval(now, next_t, interval_alloc)
                )
            done_accels: list[str] = []
            for accel, r in running.items():
                r.fraction = min(r.fraction + r.rate() * dt, 1.0)
                if r.fraction >= 1.0 - 1e-9:
                    done_accels.append(accel)
            now = next_t
            for accel in done_accels:
                r = running.pop(accel)
                finished[r.task.task_id] = now
                records.append(
                    TaskRecord(
                        task_id=r.task.task_id,
                        accel=accel,
                        start=r.start,
                        end=now,
                        standalone_s=r.task.standalone_s,
                        meta=r.task.meta,
                    )
                )

        return Timeline(records, intervals)
