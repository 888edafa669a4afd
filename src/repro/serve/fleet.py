"""Sharded multi-process serving fleet with cross-shard solve gossip.

One :class:`~repro.serve.server.Server` is a single serial event loop;
the fleet runs ``N`` server replicas in worker processes behind a
deterministic tenant->shard router, so served-request throughput stops
being capped by one loop.  Shards share solve work two ways:

* **epoch gossip** -- shards synchronize at fixed round-count
  intervals (``sync_rounds``): every alive shard posts the converged
  schedules it published this epoch (the gossip protocol spoken by
  :meth:`~repro.serve.policy.ServingPolicy.export_delta` /
  :meth:`~repro.serve.policy.ServingPolicy.merge`), the parent builds
  each epoch's union in shard-index order and hands it back;
* **the persistent solve store** -- the parent seeds every shard with
  the store's schedules before the first round and appends each
  epoch's gossip union to disk
  (:class:`~repro.core.solve_store.SolveStore`; the parent is the
  single writer, so fork workers never interleave partial lines).

Gossip rounds follow a **bounded-lag pipelined protocol** instead of
a global barrier.  A shard that has completed epoch ``f`` may start
epoch ``f + 1`` as soon as every alive peer has completed epoch
``f - max_lag``; before it does, it merges the unions of every epoch
``<= f - max_lag`` it has not merged yet, each union being the
concatenation of that epoch's per-shard deltas in shard-index order.
``max_lag = 0`` degenerates to the classic lockstep barrier
(broadcast sequence identical message for message); ``max_lag >= 1``
lets fast shards keep serving up to that many epochs ahead of the
slowest peer, so barrier idle time collapses while every merge stays
deterministic.  Shards that finish stop gating the pipeline and
contribute no later deltas.  The gate and the worker launcher are the
epoch runtime of :mod:`repro.core.parallel`; fork shards send their
deltas inside the control messages on its queues.

Determinism contract: a
shard's :class:`~repro.serve.slo.FleetReport` is a pure function of
its seeded arrival stream, its policy configuration, and the merge
sequence it observes at its epoch boundaries.  Epochs are counted in
*rounds* (virtual time), never wall-clock, and the (epoch,
shard-index) merge order plus the bounded-lag gate make that sequence
independent of how fast any shard happens to run.  At a fixed seed
and fixed ``max_lag`` a shard's report is therefore byte-identical
across the fork and serial backends (provided the policy itself is
deterministic -- e.g. the anytime solver under its ``nodes``
clock).  Wall-clock only appears in telemetry fields
(:attr:`ShardOutcome.wall_s`, :attr:`ShardOutcome.idle_wall_s`,
:attr:`ShardOutcome.first_hax_wall_s`) that stay out of the report.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.core.parallel import (
    DONE,
    ERROR,
    SYNC,
    EpochGate,
    Link,
    WorkerPool,
    resolve_backend,
)
from repro.core.solve_store import SolveStore
from repro.runtime import metrics
from repro.runtime.trace import timeline_to_trace_events, write_trace_events
from repro.serve.policy import ServingPolicy
from repro.serve.requests import Tenant, generate_requests
from repro.serve.server import BATCHING_MODES, Server, ServingSession
from repro.serve.slo import (
    AdmissionConfig,
    FleetReport,
    admitted_request_count,
)
from repro.soc.platform import Platform, get_platform
from repro.solver.clock import monotonic_s

#: fork runs shards in worker processes; serial scans them in-process
#: and produces byte-identical reports; auto picks fork when it can
BACKENDS = ("auto", "fork", "serial")
#: accepted, retired ``Fleet(transport=)`` values; both select nothing
TRANSPORTS = ("auto", "shm")
#: most gossip items a shard exports per epoch
GOSSIP_LIMIT = 256


def stable_shard(name: str, shards: int) -> int:
    """Process-independent tenant-name hash in ``range(shards)``.

    The builtin ``hash`` is salted per process, so it would route the
    same tenant differently in every worker; CRC-32 is stable across
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
    index.  ``pinned`` mode places tenants by an explicit
    ``{tenant name: shard}`` mapping (benchmark topology control).
    """

    def __init__(
        self,
        shards: int,
        *,
        mode: str = "hash",
        pinned: Mapping[str, int] | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if mode not in ("hash", "balanced", "pinned"):
            raise ValueError(
                f"unknown router mode {mode!r}; "
                "expected hash, balanced, or pinned"
            )
        if mode == "pinned":
            if pinned is None:
                raise ValueError("pinned routing needs a pinned mapping")
            bad = {n: s for n, s in pinned.items() if not 0 <= s < shards}
            if bad:
                raise ValueError(f"pinned shards out of range: {bad}")
        elif pinned is not None:
            raise ValueError("pinned mapping requires mode='pinned'")
        self.shards = shards
        self.mode = mode
        self.pinned = dict(pinned) if pinned is not None else None

    def shard_of(self, tenant_name: str) -> int:
        """Placement of one tenant (``hash``/``pinned`` routing)."""
        if self.pinned is not None:
            try:
                return self.pinned[tenant_name]
            except KeyError:
                raise ValueError(
                    f"tenant {tenant_name!r} has no pinned shard"
                ) from None
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
        if self.mode in ("hash", "pinned"):
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
    #: wall-clock seconds to that dispatch (telemetry; excluded from
    #: the report and from cross-backend identity)
    first_hax_wall_s: float | None
    #: wall-clock seconds this shard spent serving (telemetry)
    wall_s: float
    #: wall-clock seconds spent blocked on the bounded-lag gate
    #: (telemetry; the pipelined protocol exists to shrink this)
    idle_wall_s: float = 0.0
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
    """Outcome for a shard the router left without tenants.

    Built identically by every backend (no worker runs), so empty
    shards preserve the cross-backend byte-identity of the fleet."""
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


@dataclass(frozen=True)
class _ShardConfig:
    """Picklable per-shard serving parameters."""

    horizon_s: float
    max_requests: int
    max_batch: int
    objective: str
    sync_rounds: int
    max_lag: int = 0
    admission: AdmissionConfig | None = None
    batching: str = "tenant"


def _shard_outcome(
    shard_id: int,
    tenants: Sequence[Tenant],
    session: ServingSession,
    wall_start: float,
    *,
    idle_wall_s: float = 0.0,
    epochs: int = 0,
) -> ShardOutcome:
    return ShardOutcome(
        index=shard_id,
        tenants=tuple(t.name for t in tenants),
        report=session.report(),
        first_hax_round=session.first_hax_round,
        first_hax_wall_s=session.first_hax_wall_s,
        wall_s=monotonic_s() - wall_start,
        idle_wall_s=idle_wall_s,
        epochs=epochs,
    )


def _open_shard(
    platform: Platform,
    tenants: Sequence[Tenant],
    policy_factory: Callable[[int], ServingPolicy],
    initial_delta: tuple[Any, ...],
    config: _ShardConfig,
    shard_id: int,
) -> tuple[ServingSession, ServingPolicy, float]:
    """A fresh shard: its policy seeded with the store delta, its
    serving session, and the session's wall-clock start."""
    policy = policy_factory(shard_id)
    policy.merge(initial_delta)
    server = Server(
        platform,
        tenants,
        policy,
        max_batch=config.max_batch,
        objective=config.objective,
        admission=config.admission,
        batching=config.batching,
    )
    wall_start = monotonic_s()
    session = server.session(
        horizon_s=config.horizon_s, max_requests=config.max_requests
    )
    return session, policy, wall_start


def _run_shard(
    link: Link,
    platform: Platform,
    tenants: Sequence[Tenant],
    policy_factory: Callable[[int], ServingPolicy],
    initial_delta: tuple[Any, ...],
    config: _ShardConfig,
) -> None:
    """Shard worker: serve in gossip epochs under the bounded-lag gate.

    Run ``sync_rounds`` rounds, post this epoch's delta tagged with
    the epoch number, block until the parent grants the next epoch
    (the grant carries every epoch union the bounded-lag invariant
    says must be merged first), merge, repeat.  With ``max_lag = 0``
    the grant only arrives once every peer has posted the same epoch,
    i.e. the classic lockstep barrier.  The policy and server are
    built *inside* the worker from the factory so fork and serial
    shards start from an identical fresh state (under fork the
    factory's closed-over profile database is inherited
    copy-on-write, so no shard re-profiles).  Time spent blocked on
    the grant accumulates into :attr:`ShardOutcome.idle_wall_s`
    (telemetry only).
    """
    shard_id = link.index
    idle_wall_s = 0.0
    epoch = 0
    try:
        session, policy, wall_start = _open_shard(
            platform, tenants, policy_factory, initial_delta, config, shard_id
        )

        def outcome() -> ShardOutcome:
            return _shard_outcome(
                shard_id,
                tenants,
                session,
                wall_start,
                idle_wall_s=idle_wall_s,
                epochs=epoch + 1,
            )

        while True:
            session.run_rounds(config.sync_rounds)
            delta = policy.export_delta(limit=GOSSIP_LIMIT)
            if session.finished:
                link.post(DONE, epoch, delta, outcome())
                return
            link.post(SYNC, epoch, delta)
            wait_start = monotonic_s()
            reply = link.wait()
            idle_wall_s += monotonic_s() - wait_start
            if reply is None:  # a peer failed: report and exit
                link.post(DONE, epoch, (), outcome())
                return
            policy.merge(reply[0])
            epoch += 1
    except Exception as exc:  # surfaced by the parent
        link.fail(epoch, exc)


class ShardedFleetReport:
    """Aggregate view over every shard's outcome for one fleet run."""

    def __init__(
        self,
        outcomes: Sequence[ShardOutcome],
        *,
        backend: str,
        router: str,
        wall_s: float,
        store: SolveStore | None = None,
        transport_stats: Mapping[str, int] | None = None,
        max_lag: int = 0,
    ) -> None:
        self.outcomes = tuple(
            sorted(outcomes, key=lambda o: o.index)
        )
        self.backend = backend
        self.router = router
        self.wall_s = wall_s
        self.store_path = None if store is None else store.path
        #: fork runs: ``inline`` counts the non-empty deltas and grants
        #: that crossed the control queues
        self.transport_stats = dict(transport_stats or {})
        #: bounded-lag window the run used (0 = lockstep barrier)
        self.max_lag = max_lag

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
    def idle_wall_s(self) -> float:
        """Wall seconds shards spent blocked on the bounded-lag gate."""
        return sum(o.idle_wall_s for o in self.outcomes)

    @property
    def epochs(self) -> int:
        """Gossip epochs completed, summed over shards."""
        return sum(o.epochs for o in self.outcomes)

    def mean_round_wall_ms(self) -> float:
        """Mean per-shard wall milliseconds per dispatched round.

        Each shard's wall time (compute *plus* gate stall) is divided
        by the rounds it dispatched, then averaged across shards --
        the per-iteration cost metric of the bounded-staleness
        literature, and the quantity the pipelined protocol shrinks:
        a shard marching at the global barrier pace pays the barrier
        in every round's denominator.
        """
        per = [
            metrics.per_round_ms(o.wall_s, len(o.report.rounds))
            for o in self.outcomes
            if o.report.rounds
        ]
        return sum(per) / len(per) if per else 0.0

    def idle_per_round_ms(self) -> float:
        """Mean per-shard gate-stall milliseconds per dispatched round."""
        per = [
            metrics.per_round_ms(o.idle_wall_s, len(o.report.rounds))
            for o in self.outcomes
            if o.report.rounds
        ]
        return sum(per) / len(per) if per else 0.0

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
        """Per-shard report texts, the cross-backend identity unit."""
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
            f"fleet: {self.shards} shards ({self.backend} backend, "
            f"{self.router} routing), "
            f"{self.served} served / "
            f"{self.shed} shed in {self.rounds} rounds; "
            f"{self.solves} solves, {self.store_hits} store hits; "
            f"{self.wall_s * 1e3:.0f} ms wall, "
            f"{self.throughput_rps:.1f} req/s"
        )
        if self.max_lag:
            lines.append(
                f"pipeline: max_lag {self.max_lag}, "
                f"{self.epochs} epochs, "
                f"mean round wall {self.mean_round_wall_ms():.2f} ms, "
                f"idle {self.idle_per_round_ms():.2f} ms/round"
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
            f"<ShardedFleetReport {self.shards} shards "
            f"({self.backend}), {self.served} served, "
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
    """N server replicas behind a deterministic router.

    Parameters
    ----------
    platform:
        The simulated SoC every shard serves on.
    tenants:
        The full tenant population; the router partitions it.
    policy_factory:
        ``shard_index -> ServingPolicy``; called *inside* each worker
        so every backend builds identical fresh policies.  For
        cross-backend byte-identity the produced policy must itself be
        deterministic, as :class:`CachedAnytimePolicy` is over any
        scheduler: it plans swaps in node-count phase time.
    shards:
        Replica count.
    backend:
        ``fork`` (worker processes; requires the fork start method),
        ``serial`` (the same protocol scanned in-process, byte-identical
        reports), or ``auto`` (fork for several shards when available,
        else serial).
    router:
        ``hash`` / ``balanced`` or a :class:`ShardRouter`.
    sync_rounds:
        Rounds each shard serves between gossip epochs.
    max_lag:
        Bounded-lag window of the pipelined round protocol: a shard
        may run up to ``max_lag`` gossip epochs ahead of the slowest
        alive peer.  ``0`` (default) is the classic lockstep barrier;
        raising it removes barrier idle time while keeping every
        shard's merge sequence deterministic.
    admission:
        Optional :class:`~repro.serve.slo.AdmissionConfig`: per-tenant
        priority tiers with token-bucket rate, queue-depth, and
        SLO-slack shedding, applied identically in every shard (and,
        for the token bucket, by the balanced router when weighing).
    batching:
        ``tenant`` (one dispatch stream per tenant, the classic loop)
        or ``continuous`` (same-model tenants coalesced into one
        batched stream per round; see
        :meth:`~repro.serve.server.Server._mix_groups`).
    store:
        Optional :class:`SolveStore`: its schedules seed every shard
        before the first round, and (when writable) the parent appends
        each epoch's gossip union -- single-writer by construction.
    transport:
        Retired: ``"auto"`` (default) and ``"shm"`` are accepted and
        select nothing; any other value raises :class:`ValueError`.
        Fork shards always send their deltas inside the control
        messages on the queues, and serial shards exchange them
        in-process.
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
        if batching not in BATCHING_MODES:
            raise ValueError(
                f"unknown batching mode {batching!r}; "
                f"expected one of {BATCHING_MODES}"
            )
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r}; "
                f"expected one of {TRANSPORTS}"
            )
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        self.platform = (
            get_platform(platform) if isinstance(platform, str) else platform
        )
        self.tenants = tuple(tenants)
        self.policy_factory = policy_factory
        self.shards = shards
        self.backend = backend
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
        self.max_lag = max_lag
        self.admission = admission
        self.batching = batching
        self.store = store

    # ------------------------------------------------------------------
    def _initial_delta(self) -> tuple[Any, ...]:
        """The solve store's schedules as one gossip delta.

        Workers receive artifacts through the same ``merge`` path as
        epoch gossip -- they never touch the store file, which keeps
        the parent the single writer.
        """
        if self.store is None:
            return ()
        return tuple(
            ("sched-store", sig, payload)
            for sig, payload in sorted(self.store.schedules().items())
        )

    def _append_store(self, delta: Sequence[Any]) -> None:
        """Persist one epoch's gossip union (parent-side, writable
        stores only; content addressing makes replays free)."""
        if self.store is None or self.store.readonly:
            return
        for item in delta:
            if item[0] == "sched":
                self.store.append_schedule(item[1], item[2])

    # ------------------------------------------------------------------
    def run(
        self, *, horizon_s: float, max_requests: int = 10_000
    ) -> ShardedFleetReport:
        """Serve every request within ``horizon_s`` across all shards."""
        start = monotonic_s()
        backend = resolve_backend(self.backend, self.shards)
        assignment = self.router.assign(
            self.tenants,
            horizon_s=horizon_s,
            max_requests=max_requests,
            admission=self.admission,
        )
        config = _ShardConfig(
            horizon_s=horizon_s,
            max_requests=max_requests,
            max_batch=self.max_batch,
            objective=self.objective,
            sync_rounds=self.sync_rounds,
            max_lag=self.max_lag,
            admission=self.admission,
            batching=self.batching,
        )
        initial = self._initial_delta()
        live = [
            (sid, bucket)
            for sid, bucket in enumerate(assignment)
            if bucket
        ]
        transport_stats = {"inline": 0}
        if backend == "serial":
            outcomes = self._run_serial(live, initial, config)
        else:
            outcomes, transport_stats = self._run_fork(live, initial, config)
        for sid, bucket in enumerate(assignment):
            if not bucket:
                outcomes[sid] = _empty_outcome(sid)
        return ShardedFleetReport(
            [outcomes[sid] for sid in sorted(outcomes)],
            backend=backend,
            router=self.router.mode,
            wall_s=monotonic_s() - start,
            store=self.store,
            transport_stats=transport_stats,
            max_lag=self.max_lag,
        )

    # -- serial backend: the protocol scanned in-process ---------------
    def _run_serial(
        self,
        live: Sequence[tuple[int, list[Tenant]]],
        initial: tuple[Any, ...],
        config: _ShardConfig,
    ) -> dict[int, ShardOutcome]:
        """Run every shard in-process under the bounded-lag gate.

        Exactly the fork protocol with the worker loop inlined: the
        scan visits shards in index order and runs each shard's next
        epoch once the :class:`~repro.core.parallel.EpochGate` grants
        it, merging the grant right before the epoch that needs it --
        the same positions in each shard's own timeline as a fork
        worker's merges, so reports match fork byte for byte.  With
        ``max_lag = 0`` every scan runs every alive shard once: the
        classic lockstep epoch.
        """
        shards: dict[int, tuple[ServingSession, ServingPolicy, float]] = {}
        for sid, bucket in live:
            try:
                shards[sid] = _open_shard(
                    self.platform,
                    bucket,
                    self.policy_factory,
                    initial,
                    config,
                    sid,
                )
            except Exception as exc:
                # same surface as a failed fork worker
                raise RuntimeError(
                    f"fleet shard {sid} failed: {exc!r}"
                ) from exc
        tenants_of = {sid: bucket for sid, bucket in live}
        outcomes: dict[int, ShardOutcome] = {}
        gate = EpochGate(shards, config.max_lag)
        while gate.alive:
            progressed = False
            for sid in list(gate.alive):
                session, policy, wall_start = shards[sid]
                if sid in gate.waiting:
                    granted = gate.grant(sid)
                    if granted is None:
                        continue  # gated behind a slower peer this scan
                    policy.merge(granted[1])
                epoch = gate.completed[sid] + 1
                try:
                    session.run_rounds(config.sync_rounds)
                    delta = policy.export_delta(limit=GOSSIP_LIMIT)
                except Exception as exc:
                    raise RuntimeError(
                        f"fleet shard {sid} failed: {exc!r}"
                    ) from exc
                gate.post(sid, epoch, delta, last=session.finished)
                progressed = True
                if session.finished:
                    outcomes[sid] = _shard_outcome(
                        sid,
                        tenants_of[sid],
                        session,
                        wall_start,
                        epochs=epoch + 1,
                    )
            if not progressed:  # unreachable: the slowest shard is
                # never gated by its own epoch
                raise RuntimeError("pipelined fleet scan stalled")
            for _epoch, union in gate.flush():
                self._append_store(union)
        return outcomes

    # -- fork backend: bounded-lag pipelined workers ---------------------
    def _run_fork(
        self,
        live: Sequence[tuple[int, list[Tenant]]],
        initial: tuple[Any, ...],
        config: _ShardConfig,
    ) -> tuple[dict[int, ShardOutcome], dict[str, int]]:
        """Shard processes serve epochs concurrently; the parent
        drives the :class:`~repro.core.parallel.EpochGate`.

        A shard that posted epoch ``f`` blocks until every alive peer
        has completed epoch ``f - max_lag``; its grant then carries
        exactly the epoch unions up to ``f - max_lag`` it has not
        merged yet, so the merge sequence is a pure function of the
        workload and ``max_lag``.  Completed unions reach the store in
        epoch order.  A failed shard stops the others and raises.
        """
        outcomes: dict[int, ShardOutcome] = {}
        error: tuple[int, str] | None = None
        gate = EpochGate((sid for sid, _ in live), config.max_lag)
        pool = WorkerPool(
            _run_shard,
            {
                sid: (self.platform, bucket, self.policy_factory, initial, config)
                for sid, bucket in live
            },
            label="fleet shard",
        )
        with pool:
            while gate.alive:
                kind, sid, epoch, body, *extra = pool.receive()
                if kind == ERROR:
                    if error is None:
                        error = (sid, body)
                    gate.retire(sid)
                else:
                    gate.post(sid, epoch, body, last=kind == DONE)
                    if kind == DONE:
                        outcomes[sid] = extra[0]
                if error is not None:
                    for waiting in gate.stop():
                        pool.stop(waiting)
                    continue
                for waiting, _horizon, payload in gate.grants():
                    pool.grant(waiting, payload)
                for _epoch, union in gate.flush():
                    self._append_store(union)
        if error is not None:
            sid, message = error
            raise RuntimeError(f"fleet shard {sid} failed: {message}")
        return outcomes, dict(pool.stats)
