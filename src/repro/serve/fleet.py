"""Sharded serving fleet with cross-shard solve gossip.

One :class:`~repro.serve.server.ServingSession` is a single serial
event loop; the fleet runs ``N`` of them (shards) behind a
deterministic tenant->shard router and scans them in one process.
Sharding pays algorithmically: each shard co-schedules only its own
tenants, so its mixes (and their solves) stay small.  Shards share
solve work two ways:

* **epoch gossip** -- shards synchronize at fixed round-count
  intervals (``sync_rounds``): every alive shard exports the converged
  schedules it published this epoch (the gossip protocol spoken by
  :meth:`~repro.serve.policy.ServingPolicy.export_delta` /
  :meth:`~repro.serve.policy.ServingPolicy.merge`), and the fleet
  concatenates the epoch's deltas in shard-index order into one union;
* **the persistent solve store** -- the fleet seeds every shard with
  the store's schedules before the first round and appends each
  epoch's gossip union to disk
  (:class:`~repro.core.solve_store.SolveStore`); shards see the store
  only through ``merge``.  The fleet is the serving layer's only
  reader and writer of the store, and a single replica is a
  one-shard fleet.

Epochs run in **lockstep**.  In each pass every alive shard, in index
order, merges the previous epoch's union, serves ``sync_rounds``
rounds and exports its delta; shards that finished drop out (their
last delta, drained whole, still reaches the union), and the union is
appended to the store.

Determinism contract: a
shard's :class:`~repro.serve.slo.FleetReport` is a pure function of
its seeded arrival stream, its policy configuration, and the merge
sequence it observes at its epoch boundaries.  Epochs are counted in
*rounds* (virtual time), never wall-clock, and the (epoch,
shard-index) merge order fixes that sequence, so a shard's report is
byte-identical from run to run (provided the policy itself is
deterministic -- e.g. the anytime solver under its ``nodes`` clock).
Wall-clock only appears in telemetry fields (:attr:`ShardOutcome.wall_s`,
:attr:`ShardOutcome.first_hax_wall_s`) that stay out of the report.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.core.solve_store import SolveStore
from repro.runtime import metrics
from repro.runtime.trace import timeline_to_trace_events, write_trace_events
from repro.serve.policy import ServingPolicy
from repro.serve.requests import Tenant, generate_requests
from repro.serve.server import ServingSession, check_loop_settings
from repro.serve.slo import (
    AdmissionConfig,
    FleetReport,
    admitted_request_count,
)
from repro.soc.platform import Platform, get_platform
from repro.solver.clock import monotonic_s

#: accepted, retired ``Fleet(backend=)`` values; all select nothing
BACKENDS = ("auto", "fork", "serial")
#: accepted, retired ``Fleet(transport=)`` values; both select nothing
TRANSPORTS = ("auto", "shm")
#: most gossip items a shard exports per epoch (a finishing shard
#: exports in batches of this size until it holds nothing)
GOSSIP_LIMIT = 256


def stable_shard(name: str, shards: int) -> int:
    """Process-independent tenant-name hash in ``range(shards)``.

    The builtin ``hash`` is salted per process, so it would route the
    same tenant differently on every run; CRC-32 is stable across
    processes, platforms, and Python versions.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    return zlib.crc32(name.encode("utf-8")) % shards


class ShardRouter:
    """Deterministic tenant -> shard assignment.

    ``hash`` mode routes each tenant by :func:`stable_shard` -- the
    placement a stateless frontend can compute with no coordination.
    ``balanced`` mode is the optional least-backlog rebalancer: it
    weighs each tenant by its *admitted* request count within the
    horizon -- the arrival stream filtered through the fleet's
    admission tiers, when configured, since shed requests never load a
    shard (seeded arrival processes and token-bucket admission are
    both pure, so the weight is deterministic) -- and assigns
    heaviest-first to the least-loaded shard, ties to the lowest shard
    index.
    """

    def __init__(self, shards: int, *, mode: str = "hash") -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if mode not in ("hash", "balanced"):
            raise ValueError(
                f"unknown router mode {mode!r}; expected hash or balanced"
            )
        self.shards = shards
        self.mode = mode

    def shard_of(self, tenant_name: str) -> int:
        """Placement of one tenant (``hash`` routing)."""
        return stable_shard(tenant_name, self.shards)

    def assign(
        self,
        tenants: Sequence[Tenant],
        *,
        horizon_s: float | None = None,
        max_requests: int = 10_000,
        admission: AdmissionConfig | None = None,
    ) -> list[list[Tenant]]:
        """Partition ``tenants`` into ``shards`` buckets.

        ``balanced`` mode needs ``horizon_s`` to weigh tenants (and
        honors ``admission`` when weighing); some buckets may come
        back empty (fewer tenants than shards).
        """
        out: list[list[Tenant]] = [[] for _ in range(self.shards)]
        if self.mode == "hash":
            for tenant in tenants:
                out[self.shard_of(tenant.name)].append(tenant)
            return out
        if horizon_s is None:
            raise ValueError("balanced routing needs horizon_s")
        by_name = {t.name: t for t in tenants}
        weighted = sorted(
            (
                (
                    -self._expected_requests(
                        t,
                        horizon_s=horizon_s,
                        max_requests=max_requests,
                        admission=admission,
                    ),
                    t.name,
                )
                for t in tenants
            ),
        )
        loads = [0] * self.shards
        for negative_count, name in weighted:
            target = min(range(self.shards), key=lambda s: (loads[s], s))
            loads[target] += -negative_count
            out[target].append(by_name[name])
        return out

    @staticmethod
    def _expected_requests(
        tenant: Tenant,
        *,
        horizon_s: float,
        max_requests: int,
        admission: AdmissionConfig | None,
    ) -> int:
        """Balanced-mode weight: requests that survive admission.

        Only the arrival-only admission checks (the per-tier token
        bucket) are replayable here -- queue-depth and SLO-slack
        decisions depend on serving state the router cannot see -- but
        the token bucket is exactly what bounds a tenant's sustained
        admitted rate, which is the load a shard actually carries.
        """
        times = [
            r.arrival_s
            for r in generate_requests(
                [tenant],
                horizon_s=horizon_s,
                max_per_tenant=max_requests,
            )
        ]
        if admission is None:
            return len(times)
        return admitted_request_count(admission, tenant.priority, times)


@dataclass(frozen=True)
class ShardOutcome:
    """One shard's results: the byte-stable report plus telemetry."""

    index: int
    tenants: tuple[str, ...]
    report: FleetReport
    #: deterministic round index of the first HaX-CoNN-family dispatch
    first_hax_round: int | None
    #: wall-clock seconds this shard served until that dispatch
    #: (telemetry; excluded from the report)
    first_hax_wall_s: float | None
    #: wall-clock seconds this shard spent serving its own rounds
    #: (telemetry; peers' epochs are not counted)
    wall_s: float
    #: gossip epochs this shard completed
    epochs: int = 0

    @property
    def served(self) -> int:
        return len(self.report.served)

    @property
    def shed(self) -> int:
        return len(self.report.rejected)

    @property
    def routed(self) -> int:
        """Requests the router placed on this shard (served + shed)."""
        return len(self.report.requests)


def _empty_outcome(index: int) -> ShardOutcome:
    """Outcome for a shard the router left without tenants."""
    report = FleetReport(
        [], [], tenant_slos={}, policy_stats={"policy": "idle"}
    )
    return ShardOutcome(
        index=index,
        tenants=(),
        report=report,
        first_hax_round=None,
        first_hax_wall_s=None,
        wall_s=0.0,
    )


@contextmanager
def _shard_errors(shard_id: int) -> Iterator[None]:
    """Re-raise anything a shard's policy or session raises as a
    :class:`RuntimeError` naming the shard."""
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"fleet shard {shard_id} failed: {exc!r}") from exc


class ShardedFleetReport:
    """Aggregate view over every shard's outcome for one fleet run."""

    def __init__(
        self,
        outcomes: Sequence[ShardOutcome],
        *,
        router: str,
        wall_s: float,
        store: SolveStore | None = None,
    ) -> None:
        self.outcomes = tuple(
            sorted(outcomes, key=lambda o: o.index)
        )
        self.router = router
        self.wall_s = wall_s
        self.store_path = None if store is None else store.path

    # -- aggregates ----------------------------------------------------
    @property
    def shards(self) -> int:
        return len(self.outcomes)

    @property
    def served(self) -> int:
        return sum(o.served for o in self.outcomes)

    @property
    def shed(self) -> int:
        return sum(o.shed for o in self.outcomes)

    @property
    def rounds(self) -> int:
        return sum(len(o.report.rounds) for o in self.outcomes)

    @property
    def throughput_rps(self) -> float:
        """Served requests per wall-clock second of the whole run."""
        return metrics.throughput_rps(self.served, self.wall_s)

    def latencies_s(self) -> list[float]:
        return [
            r.latency_s
            for o in self.outcomes
            for r in o.report.served
        ]

    @property
    def p50_ms(self) -> float:
        return metrics.percentile_ms(self.latencies_s(), 50)

    @property
    def p99_ms(self) -> float:
        return metrics.percentile_ms(self.latencies_s(), 99)

    @property
    def store_hits(self) -> int:
        """Cache hits answered by solve-store entries, fleet-wide."""
        return sum(
            int(_stat(o.report.policy_stats, "store_hits"))
            for o in self.outcomes
        )

    @property
    def solves(self) -> int:
        return sum(
            int(_stat(o.report.policy_stats, "solves"))
            for o in self.outcomes
        )

    @property
    def epochs(self) -> int:
        """Gossip epochs completed, summed over shards."""
        return sum(o.epochs for o in self.outcomes)

    def mean_round_wall_ms(self) -> float:
        """Mean per-shard wall milliseconds per dispatched round.

        Each shard's wall time is divided by the rounds it
        dispatched, then averaged across shards.
        """
        per = [
            metrics.per_round_ms(o.wall_s, len(o.report.rounds))
            for o in self.outcomes
            if o.report.rounds
        ]
        return sum(per) / len(per) if per else 0.0

    # -- retired telemetry, still read by the benchmark harness --------
    # No shard ever blocks on a peer or sends gossip across a process
    # boundary, so these read 0 and empty.
    @property
    def transport_stats(self) -> dict[str, int]:
        return {}

    @property
    def idle_wall_s(self) -> float:
        return 0.0

    def idle_per_round_ms(self) -> float:
        return 0.0

    def admission_totals(self) -> dict[str, int]:
        """Fleet-wide admission counters (empty when no shard ran an
        admission controller)."""
        totals: dict[str, int] = {}
        for o in self.outcomes:
            stats = o.report.admission_stats
            if not stats:
                continue
            for key, value in stats.items():
                if isinstance(value, int):
                    totals[key] = totals.get(key, 0) + value
        return totals

    def time_to_first_hax_s(self) -> float | None:
        """Worst-case (max) wall-clock time-to-first-HaX-CoNN-incumbent
        across shards that dispatched one; None if none did."""
        times = [
            o.first_hax_wall_s
            for o in self.outcomes
            if o.first_hax_wall_s is not None
        ]
        return max(times) if times else None

    def describe_shards(self) -> tuple[str, ...]:
        """Per-shard report texts, the byte-identity unit."""
        return tuple(o.report.describe() for o in self.outcomes)

    # -- presentation ---------------------------------------------------
    def describe(self) -> str:
        """Fleet-level summary table (per-shard rows + fleet line).

        Percentiles and rates go through :mod:`repro.runtime.metrics`
        like every other summary in the repo.
        """
        header = (
            f"{'shard':>5s} {'tenants':24s} {'routed':>6s} "
            f"{'served':>6s} {'shed':>5s} {'p50':>9s} {'p99':>9s} "
            f"{'goodput':>8s} {'rounds':>6s} {'solves':>6s} "
            f"{'store':>5s}"
        )
        lines = [header, "-" * len(header)]
        for o in self.outcomes:
            stats = o.report.policy_stats
            names = ",".join(o.tenants) if o.tenants else "-"
            if o.served:
                p50 = f"{o.report.p50_ms:7.2f}ms"
                p99 = f"{o.report.p99_ms:7.2f}ms"
                goodput = f"{o.report.goodput_rps:6.1f}/s"
            else:
                p50, p99, goodput = "-".rjust(9), "-".rjust(9), "-".rjust(8)
            lines.append(
                f"{o.index:5d} {names[:24]:24s} {o.routed:6d} "
                f"{o.served:6d} {o.shed:5d} {p50:>9s} {p99:>9s} "
                f"{goodput:>8s} {len(o.report.rounds):6d} "
                f"{int(_stat(stats, 'solves')):6d} "
                f"{int(_stat(stats, 'store_hits')):5d}"
            )
        lines.append(
            f"fleet: {self.shards} shards ({self.router} routing), "
            f"{self.served} served / "
            f"{self.shed} shed in {self.rounds} rounds; "
            f"{self.solves} solves, {self.store_hits} store hits; "
            f"{self.wall_s * 1e3:.0f} ms wall, "
            f"{self.throughput_rps:.1f} req/s"
        )
        totals = self.admission_totals()
        if totals:
            lines.append(
                "admission: "
                + ", ".join(
                    f"{key}={value}"
                    for key, value in sorted(totals.items())
                )
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<ShardedFleetReport {self.shards} shards, "
            f"{self.served} served, "
            f"{self.shed} shed, {self.wall_s * 1e3:.1f} ms wall>"
        )

    # -- export --------------------------------------------------------
    def export_chrome_trace(self, path: str | Path) -> Path:
        """Merged Chrome trace: one process row per shard."""
        events: list[dict[str, object]] = []
        for o in self.outcomes:
            names = ",".join(o.tenants) if o.tenants else "idle"
            events.extend(
                timeline_to_trace_events(
                    o.report.merged_timeline(),
                    pid=o.index + 1,
                    process_name=f"shard {o.index} [{names}]",
                )
            )
        return write_trace_events(events, path)


def _stat(stats: Mapping[str, object], key: str) -> float:
    value = stats.get(key, 0)
    return float(value) if isinstance(value, (int, float)) else 0.0


class Fleet:
    """N serving shards behind a deterministic router.

    Parameters
    ----------
    platform:
        The simulated SoC every shard serves on.
    tenants:
        The full tenant population; the router partitions it.
    policy_factory:
        ``shard_index -> ServingPolicy``; called once per shard that
        serves tenants, at the start of every run, so each run starts
        from fresh policies.  For byte-identical reports the produced
        policy must itself be deterministic, as
        :class:`CachedAnytimePolicy` is over any scheduler: it plans
        swaps in node-count phase time.
    shards:
        Replica count.
    backend:
        Retired: ``"auto"`` (default), ``"fork"`` and ``"serial"`` are
        accepted and select nothing; any other value raises
        :class:`ValueError`.  Every fleet scans its shards in one
        process.
    router:
        ``hash`` / ``balanced`` or a :class:`ShardRouter`.
    sync_rounds:
        Rounds each shard serves between gossip epochs.
    max_lag:
        Retired: any value ``>= 0`` is accepted and selects nothing; a
        negative value raises :class:`ValueError`.  Every fleet runs
        its gossip epochs in lockstep.
    admission:
        Optional :class:`~repro.serve.slo.AdmissionConfig`: per-tenant
        priority tiers with token-bucket rate, queue-depth, and
        SLO-slack shedding, applied identically in every shard (and,
        for the token bucket, by the balanced router when weighing).
    batching:
        ``tenant`` (one dispatch stream per tenant, the classic loop)
        or ``continuous`` (same-model tenants coalesced into one
        batched stream per round; see
        :meth:`~repro.serve.server.ServingSession._mix_groups`).
    store:
        Optional :class:`SolveStore`: its schedules seed every shard
        before the first round, and (when writable) the fleet appends
        each epoch's gossip union.
    transport:
        Retired: ``"auto"`` (default) and ``"shm"`` are accepted and
        select nothing; any other value raises :class:`ValueError`.
    """

    def __init__(
        self,
        platform: Platform | str,
        tenants: Sequence[Tenant],
        policy_factory: Callable[[int], ServingPolicy],
        *,
        shards: int,
        backend: str = "auto",
        router: ShardRouter | str = "hash",
        max_batch: int = 1,
        objective: str = "latency",
        sync_rounds: int = 8,
        max_lag: int = 0,
        admission: AdmissionConfig | None = None,
        batching: str = "tenant",
        store: SolveStore | None = None,
        transport: str = "auto",
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if sync_rounds < 1:
            raise ValueError("sync_rounds must be >= 1")
        if max_lag < 0:
            raise ValueError("max_lag must be >= 0")
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r}; "
                f"expected one of {TRANSPORTS}"
            )
        # the router needs unique names; every shard reruns this on
        # its own tenants
        check_loop_settings(tenants, max_batch=max_batch, batching=batching)
        self.platform = (
            get_platform(platform) if isinstance(platform, str) else platform
        )
        self.tenants = tuple(tenants)
        self.policy_factory = policy_factory
        self.shards = shards
        self.router = (
            router
            if isinstance(router, ShardRouter)
            else ShardRouter(shards, mode=router)
        )
        if self.router.shards != shards:
            raise ValueError("router shard count must match the fleet's")
        self.max_batch = max_batch
        self.objective = objective
        self.sync_rounds = sync_rounds
        self.admission = admission
        self.batching = batching
        self.store = store

    # ------------------------------------------------------------------
    def _initial_delta(self) -> tuple[Any, ...]:
        """The solve store's schedules as one gossip delta.

        Shards receive artifacts through the same ``merge`` path as
        epoch gossip; they never touch the store file.
        """
        if self.store is None:
            return ()
        return tuple(
            ("sched-store", sig, payload)
            for sig, payload in sorted(self.store.schedules().items())
        )

    def _append_store(self, delta: Sequence[Any]) -> None:
        """Persist one epoch's gossip union (writable stores only;
        content addressing makes replays free)."""
        if self.store is None or self.store.readonly:
            return
        for item in delta:
            if item[0] == "sched":
                self.store.append_schedule(item[1], item[2])

    # ------------------------------------------------------------------
    def _open_shard(
        self,
        shard_id: int,
        tenants: Sequence[Tenant],
        initial_delta: tuple[Any, ...],
        horizon_s: float,
        max_requests: int,
    ) -> tuple[ServingSession, ServingPolicy]:
        """A fresh shard: its serving session and its policy, seeded
        with the store delta."""
        policy = self.policy_factory(shard_id)
        policy.merge(initial_delta)
        session = ServingSession(
            self.platform,
            tenants,
            policy,
            horizon_s=horizon_s,
            max_requests=max_requests,
            max_batch=self.max_batch,
            objective=self.objective,
            admission=self.admission,
            batching=self.batching,
        )
        return session, policy

    def run(
        self, *, horizon_s: float, max_requests: int = 10_000
    ) -> ShardedFleetReport:
        """Serve every request within ``horizon_s`` across all shards.

        Each lockstep pass runs one gossip epoch: every alive shard,
        in index order, merges the previous epoch's union, serves
        ``sync_rounds`` rounds and exports its delta; finished shards
        drop out, and the epoch's union is appended to the store.  A
        shard that raises ends the run with a :class:`RuntimeError`
        naming it.
        """
        start = monotonic_s()
        assignment = self.router.assign(
            self.tenants,
            horizon_s=horizon_s,
            max_requests=max_requests,
            admission=self.admission,
        )
        initial = self._initial_delta()
        shards: dict[int, tuple[ServingSession, ServingPolicy]] = {}
        outcomes: dict[int, ShardOutcome] = {}
        for sid, bucket in enumerate(assignment):
            if not bucket:
                outcomes[sid] = _empty_outcome(sid)
                continue
            with _shard_errors(sid):
                shards[sid] = self._open_shard(
                    sid, bucket, initial, horizon_s, max_requests
                )
        union: tuple[Any, ...] = ()
        epoch = 0
        while shards:
            delta: list[Any] = []
            for sid, (session, policy) in list(shards.items()):
                with _shard_errors(sid):
                    if epoch:
                        policy.merge(union)
                    session.run_rounds(self.sync_rounds)
                    delta.extend(policy.export_delta(limit=GOSSIP_LIMIT))
                    # a finishing shard has no later epoch to carry
                    # what the limit held back: drain all of it
                    while session.finished and (
                        rest := policy.export_delta(limit=GOSSIP_LIMIT)
                    ):
                        delta.extend(rest)
                if session.finished:
                    outcomes[sid] = ShardOutcome(
                        index=sid,
                        tenants=tuple(t.name for t in assignment[sid]),
                        report=session.report(),
                        first_hax_round=session.first_hax_round,
                        first_hax_wall_s=session.first_hax_wall_s,
                        wall_s=session.wall_s,
                        epochs=epoch + 1,
                    )
                    del shards[sid]
            union = tuple(delta)
            self._append_store(union)
            epoch += 1
        return ShardedFleetReport(
            [outcomes[sid] for sid in sorted(outcomes)],
            router=self.router.mode,
            wall_s=monotonic_s() - start,
            store=self.store,
        )
