"""Execution traces emitted by the discrete-event engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping


@dataclass(frozen=True, slots=True)
class TaskRecord:
    """Observed execution of one simulated task."""

    task_id: str
    accel: str
    start: float
    end: float
    #: what the task would have taken with the EMC to itself
    standalone_s: float
    #: free-form labels attached by the task builder (dnn, iteration,
    #: group index, role, ...)
    meta: Mapping[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def slowdown(self) -> float:
        """Observed duration over standalone duration (>= ~1.0)."""
        if self.standalone_s <= 0:
            return 1.0
        return self.duration / self.standalone_s


@dataclass(frozen=True, slots=True)
class ContentionInterval:
    """One period with a fixed set of co-running tasks.

    These are exactly the *contention intervals* of paper Section 3.3
    (Fig. 4): periods delimited by task starts/ends, during which each
    active task experiences a constant slowdown determined by the
    cumulative memory pressure.
    """

    start: float
    end: float
    #: task id -> allocated EMC bandwidth (bytes/s) during the interval
    allocations: Mapping[str, float]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def total_bandwidth(self) -> float:
        return sum(self.allocations.values())


class Timeline:
    """Complete trace of one engine run."""

    def __init__(
        self,
        records: Iterable[TaskRecord],
        intervals: Iterable[ContentionInterval],
    ) -> None:
        self.records: tuple[TaskRecord, ...] = tuple(
            sorted(records, key=lambda r: (r.start, r.end))
        )
        self.intervals: tuple[ContentionInterval, ...] = tuple(intervals)
        self._by_id = {r.task_id: r for r in self.records}
        #: lazy :meth:`completion` index: sorted meta key names ->
        #: {meta values: last end time}
        self._completions: dict[
            tuple[str, ...], dict[tuple[object, ...], float]
        ] = {}

    def __getstate__(self) -> dict[str, object]:
        # the index is rebuilt on demand; it never rides a pickle
        return {**self.__dict__, "_completions": {}}

    def __getitem__(self, task_id: str) -> TaskRecord:
        return self._by_id[task_id]

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._by_id

    def __len__(self) -> int:
        return len(self.records)

    @property
    def makespan(self) -> float:
        """End of the last task (start of time is 0)."""
        return max((r.end for r in self.records), default=0.0)

    def select(self, **meta: object) -> list[TaskRecord]:
        """Records whose meta matches all given key/value pairs."""
        return [
            r
            for r in self.records
            if all(r.meta.get(k) == v for k, v in meta.items())
        ]

    def span(self, **meta: object) -> float:
        """Wall-clock span (first start to last end) of matching tasks."""
        selected = self.select(**meta)
        if not selected:
            return 0.0
        return max(r.end for r in selected) - min(r.start for r in selected)

    def completion(self, **meta: object) -> float:
        """Last end time of matching tasks (0.0 when none match).

        Equal to ``max(r.end for r in self.select(**meta))``, answered
        from an index built once per set of meta key names, so a
        server querying every (dnn, rep) of a round pays one pass.
        """
        names = tuple(sorted(meta))
        index = self._completions.get(names)
        if index is None:
            index = {}
            for r in self.records:
                values = tuple(r.meta.get(k) for k in names)
                if values not in index or r.end > index[values]:
                    index[values] = r.end
            self._completions[names] = index
        return index.get(tuple(meta[k] for k in names), 0.0)

    def busy_time(self, accel: str) -> float:
        """Total seconds the accelerator spent executing tasks."""
        return sum(r.duration for r in self.records if r.accel == accel)

    def utilization(self, accel: str) -> float:
        """Busy fraction of the accelerator over the makespan."""
        span = self.makespan
        return self.busy_time(accel) / span if span > 0 else 0.0

    def mean_slowdown(self, **meta: object) -> float:
        """Average contention slowdown across matching tasks, weighted
        by standalone duration (so long layers dominate, as in the
        paper's Fig. 6 whole-network slowdown numbers)."""
        selected = self.select(**meta)
        base = sum(r.standalone_s for r in selected)
        if base <= 0:
            return 1.0
        return sum(r.duration for r in selected) / base

    def __repr__(self) -> str:
        return (
            f"<Timeline {len(self.records)} tasks, "
            f"makespan {self.makespan * 1e3:.3f} ms>"
        )
