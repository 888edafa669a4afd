"""Static schedule cache (paper Section 3.5, the *static* path).

For autonomous systems with fixed input devices and a known set of
control-flow graphs, the paper predetermines optimal schedules offline
and toggles them at runtime when the CFG changes -- no solver in the
loop.  :class:`ScheduleCache` provides exactly that: it keys schedules
by the workload signature (streams, repeats, pipeline, objective,
platform, grouping), solves on first request, and answers instantly
afterwards.  The one on-disk format is the JSONL
:class:`~repro.core.solve_store.SolveStore`: ``precompute`` writes
through an attached writable store, and the deployment attaches the
same file read-only to answer every precomputed workload unsolved.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence

from repro.core.formulation import Formulation
from repro.core.haxconn import FALLBACK_MARGIN, HaXCoNN, ScheduleResult
from repro.core.schedule import DNNSchedule, Schedule
from repro.core.workload import Workload

if TYPE_CHECKING:  # deferred: solve_store is storage-only
    from repro.core.solve_store import SolveStore


def workload_signature(workload: Workload, scheduler: HaXCoNN) -> str:
    """Deterministic key: everything that shapes the optimal schedule.

    Besides the workload itself this covers the scheduler's cost-model
    configuration -- a cache file produced under one configuration must
    not serve a scheduler with a different one.
    """
    parts = [
        scheduler.platform.name,
        str(scheduler.max_groups),
        str(scheduler.max_transitions),
        str(scheduler.include_transitions),
        str(scheduler.resource_constrained),
        f"{FALLBACK_MARGIN:g}",
        f"{Formulation.epsilon_makespan_frac:g}",
        type(scheduler.contention_model).__name__,
        workload.objective,
        ";".join(
            f"{'+'.join(d.models)}x{d.repeats}" for d in workload.dnns
        ),
        ",".join(f"{u}->{v}" for u, v in workload.pipeline),
    ]
    return "|".join(parts)


def schedule_to_payload(schedule: Schedule) -> dict[str, Any]:
    """JSON-serializable form of a schedule (the solve-store shape)."""
    return {
        "serialized": schedule.serialized,
        "streams": [
            {"dnn": s.dnn_name, "assignment": list(s.assignment)}
            for s in schedule.per_dnn
        ],
    }


def schedule_from_payload(payload: Mapping[str, Any]) -> Schedule:
    """Inverse of :func:`schedule_to_payload`.

    Re-materialized schedules carry ``scheduler="cached"`` provenance,
    exactly like the results :meth:`ScheduleCache.get` serves on a hit.
    """
    return Schedule(
        per_dnn=tuple(
            DNNSchedule(
                dnn_name=s["dnn"], assignment=tuple(s["assignment"])
            )
            for s in payload["streams"]
        ),
        serialized=bool(payload["serialized"]),
        meta={"scheduler": "cached"},
    )


class ScheduleCache:
    """Solve-once, toggle-forever schedule store.

    Beyond local solve-and-memoize, the cache speaks the fleet's
    gossip protocol (:meth:`export_delta` / :meth:`merge`) so serving
    shards exchange published schedules at epoch boundaries, and it
    can sit on top of a persistent
    :class:`~repro.core.solve_store.SolveStore` so schedules survive
    the process (:meth:`attach_store`).
    """

    def __init__(self, scheduler: HaXCoNN) -> None:
        self.scheduler = scheduler
        self._store: dict[str, Schedule] = {}
        #: (signature, stream names) -> (the installed schedule the
        #: result was materialized from, the result); see :meth:`get`
        self._results: dict[
            tuple[str, tuple[str, ...]], tuple[Schedule, ScheduleResult]
        ] = {}
        self.hits = 0
        self.misses = 0
        #: hits answered by entries that came from the attached store
        self.store_hits = 0
        #: signatures adopted from the persistent store
        self._from_store: set[str] = set()
        #: locally-published (sig, payload) pairs not yet gossiped
        self._pending: list[tuple[str, dict[str, Any]]] = []
        #: persistent write-through target (None = in-memory only)
        self._write_store: "SolveStore | None" = None

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, workload: Workload) -> bool:
        return workload_signature(workload, self.scheduler) in self._store

    def __iter__(self) -> Iterator[str]:
        return iter(self._store)

    # ------------------------------------------------------------------
    def get(self, workload: Workload) -> ScheduleResult:
        """Return the optimal schedule, solving only on first request.

        A hit is a toggle: the first hit on an installed schedule
        materializes it once (formulation plus prediction, directly
        executable by :func:`repro.runtime.run_schedule`) and later
        hits return that same frozen result.  The result is keyed by
        signature *and* stream names (the signature omits them; the
        schedule carries them) and is only served while its schedule
        is still the installed one, so no writer can leave it stale.
        """
        key = workload_signature(workload, self.scheduler)
        result = self._hit(key, workload)
        if result is None:
            self.misses += 1
            result = self.scheduler.schedule(workload)
            self._publish(key, result.schedule)
        return result

    def _hit(self, key: str, workload: Workload) -> ScheduleResult | None:
        """The :meth:`get` hit path for a caller that already holds the
        workload's signature ``key``: the materialized result, counted
        as a hit, or ``None`` (uncounted) when nothing is installed."""
        cached = self._store.get(key)
        if cached is None:
            return None
        self.hits += 1
        if key in self._from_store:
            self.store_hits += 1
        materialized = self._results.get((key, workload.names))
        if materialized is not None and materialized[0] is cached:
            return materialized[1]
        formulation, _ = self.scheduler.build_formulation(workload)
        # hits always dispatch with "cached" provenance, whatever meta
        # the installed schedule carried: a cache toggle is a toggle
        # (and the serving layer's first-HaX-CoNN telemetry counts it
        # as solver-certified knowledge serving the mix)
        result = self.scheduler.result_from_assignments(
            workload,
            formulation,
            [s.assignment for s in cached],
            scheduler_name="cached",
            serialized=cached.serialized,
        )
        self._results[(key, workload.names)] = (cached, result)
        return result

    def put(self, workload: Workload, schedule: Schedule) -> None:
        """Install an externally-obtained schedule for a workload.

        The serving layer's anytime path uses this to publish a
        converged D-HaX-CoNN schedule so later occurrences of the mix
        toggle instantly; neither a hit nor a miss is counted.
        """
        key = workload_signature(workload, self.scheduler)
        self._publish(key, schedule)

    def _publish(self, key: str, schedule: Schedule) -> None:
        """Install an entry and queue it for gossip / write-through."""
        payload = schedule_to_payload(schedule)
        self._store[key] = schedule
        self._pending.append((key, payload))
        if self._write_store is not None:
            self._write_store.append_schedule(key, payload)

    def signature(self, workload: Workload) -> str:
        """This cache's key for ``workload``."""
        return workload_signature(workload, self.scheduler)

    # -- persistent store / cross-shard gossip -------------------------
    def attach_store(self, store: "SolveStore") -> int:
        """Adopt every schedule the store holds; return the count.

        A writable store also becomes the write-through target: every
        subsequently published schedule is appended (content-addressed,
        so repeat publications are free).  Adopted entries answer later
        lookups as ordinary hits and additionally bump ``store_hits``.
        This is the offline path (:meth:`precompute`, then a deployment
        that attaches the store read-only); serving reaches the store
        only through :class:`repro.serve.fleet.Fleet`.
        """
        adopted = 0
        for sig, payload in sorted(store.schedules().items()):
            if sig not in self._store:
                self._store[sig] = schedule_from_payload(payload)
                self._from_store.add(sig)
                adopted += 1
        if not store.readonly:
            self._write_store = store
        return adopted

    def export_delta(
        self, limit: int = 256
    ) -> tuple[tuple[str, dict[str, Any]], ...]:
        """Drain up to ``limit`` locally-published entries for peers.

        The gossip shape the fleet's epoch sync uses: items are plain
        tuples, bounded per call, and the remainder rides the next
        call.
        """
        if not self._pending:
            return ()
        out = tuple(self._pending[:limit])
        del self._pending[: len(out)]
        return out

    def merge(
        self, delta: Sequence[tuple[str, Mapping[str, Any]]]
    ) -> None:
        """Adopt peer-published schedules; never re-exported (no echo
        loops), never counted as local hits or misses."""
        for sig, payload in delta:
            if sig not in self._store:
                self._store[sig] = schedule_from_payload(payload)

    def adopt_stored(
        self, delta: Sequence[tuple[str, Mapping[str, Any]]]
    ) -> None:
        """Like :meth:`merge`, but for entries that originate in the
        persistent solve store (the fleet seeds its shards' policies
        this way, so no policy opens the store file during serving);
        lookups these entries answer additionally bump
        ``store_hits``."""
        for sig, payload in delta:
            if sig not in self._store:
                self._store[sig] = schedule_from_payload(payload)
                self._from_store.add(sig)

    @staticmethod
    def _fragment_sha(assignment: tuple[str, ...]) -> str:
        """Content address of one fragment (the ordering tie-break)."""
        blob = json.dumps(list(assignment), separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def warm_starts(
        self, workload: Workload, *, limit: int = 2
    ) -> list[tuple[str, list[tuple[str, ...]]]]:
        """Warm-start seeds for ``workload`` composed from similar mixes.

        A stream that appeared in any cached concurrent schedule --
        under a *different* mix -- contributes its assignment there as
        a fragment; a seed assembles one fragment per stream.  The
        anytime solver validates each seed against the current
        domains (grouping or transition-budget changes simply drop
        it), so stale fragments are harmless.  Returns up to ``limit``
        labeled seeds in ``schedule(warm_starts=...)`` shape.

        Candidate ordering is *explicitly keyed*, never an artifact of
        store iteration order: each bucket sorts by fragment sha.  The
        same cache contents therefore produce the same seeds after any
        adoption order, gossip interleaving, or store compaction -- the
        property the provenance regression test pins.
        """
        fragments: dict[str, list[tuple[str, ...]]] = {}
        for sig in sorted(self._store):
            schedule = self._store[sig]
            if schedule.serialized:
                continue  # uniform-GPU fragments add nothing over gpu-only
            for stream in schedule.per_dnn:
                key = stream.dnn_name.split("@")[0]
                bucket = fragments.setdefault(key, [])
                if stream.assignment not in bucket:
                    bucket.append(stream.assignment)
        for bucket in fragments.values():
            bucket.sort(key=self._fragment_sha)

        seeds: list[tuple[str, list[tuple[str, ...]]]] = []
        keys = [d.name.split("@")[0] for d in workload.dnns]
        for rank in range(max(0, limit)):
            chosen: list[tuple[str, ...]] = []
            fresh = rank == 0
            for key in keys:
                bucket = fragments.get(key)
                if not bucket:
                    return seeds  # a stream never seen: no composition
                index = min(rank, len(bucket) - 1)
                fresh = fresh or index == rank
                chosen.append(bucket[index])
            if not fresh:  # every bucket exhausted: would repeat rank-1
                break
            seeds.append((f"cache-{rank}", chosen))
        return seeds

    def precompute(self, workloads: list[Workload]) -> None:
        """Offline phase: solve every CFG the deployment can reach
        (written through to an attached writable store)."""
        for workload in workloads:
            self.get(workload)
