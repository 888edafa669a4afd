"""The event-driven multi-tenant serving loop on simulator time.

The :class:`Server` closes the loop the paper's D-HaX-CoNN leaves
open: requests arrive continuously from many tenants, and the system
must decide *online* what to co-schedule.  The loop alternates between
two virtual-time events:

1. **admission** -- every request whose arrival instant has passed is
   admitted into its tenant's FIFO queue (or shed by the session's
   :class:`~repro.serve.slo.AdmissionController`, when the server has
   an admission config);
2. **dispatch** -- the tenants with backlogged requests form the
   *active mix*; the policy picks a schedule for that mix (cache
   toggle, naive start, or anytime incumbent), the server takes up to
   ``max_batch`` requests per tenant as that stream's repeats, and the
   round executes on the discrete-event simulator.  Virtual time then
   advances by the measured round makespan -- back-pressure is real:
   requests arriving mid-round queue behind it.

Per-mix *phase time* (cumulative seconds the SoC spent serving a mix)
drives the anytime policy's incumbent swaps, mirroring the paper's
solver-co-runs-with-inference model: solver progress accrues only
while its mix is actually executing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from repro.core.workload import Workload, WorkloadDNN
from repro.runtime.executor import run_schedule
from repro.serve.policy import MixCandidate, ServingPolicy
from repro.serve.requests import Request, Tenant, generate_requests
from repro.serve.slo import (
    AdmissionConfig,
    AdmissionController,
    FleetReport,
    ServedRequest,
)
from repro.soc.platform import Platform, get_platform
from repro.soc.timeline import Timeline
from repro.solver.clock import monotonic_s

#: slack when comparing virtual-time instants
_EPS = 1e-12

#: smoothing for the per-tenant measured-latency estimate the
#: SLO-budget admission check consumes (virtual time only)
_EWMA_ALPHA = 0.2

#: request batching modes: one stream per tenant (the classic loop)
#: or same-model tenants coalesced into one continuous-batch stream
BATCHING_MODES = ("tenant", "continuous")

#: scheduler provenance that counts as a HaX-CoNN incumbent round:
#: cache toggles ("cached") and every solver-produced schedule
#: ("haxconn", "haxconn-incumbent", "haxconn-serial-fallback") --
#: as opposed to the naive starts a novel mix serves first
_HAX_FAMILY_PREFIX = "haxconn"
_HAX_FAMILY_EXACT = ("cached",)


def _is_hax_scheduler(name: str) -> bool:
    return name in _HAX_FAMILY_EXACT or name.startswith(_HAX_FAMILY_PREFIX)


@dataclass(frozen=True)
class RoundRecord:
    """One dispatched round: which mix ran, when, on what schedule."""

    index: int
    start_s: float
    end_s: float
    #: tenant names in stream order (stream n served tenants[n])
    tenants: tuple[str, ...]
    #: requests served per tenant stream this round
    batch: tuple[int, ...]
    #: ``schedule.meta["scheduler"]`` of the dispatched schedule
    scheduler: str
    timeline: Timeline

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class Server:
    """Multi-tenant serving on one simulated SoC (every round is
    simulated with shared-memory contention)."""

    def __init__(
        self,
        platform: Platform | str,
        tenants: Sequence[Tenant],
        policy: ServingPolicy,
        *,
        max_batch: int = 1,
        objective: str = "latency",
        admission: AdmissionConfig | None = None,
        batching: str = "tenant",
    ) -> None:
        if not tenants:
            raise ValueError("server needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if batching not in BATCHING_MODES:
            raise ValueError(
                f"unknown batching mode {batching!r}; "
                f"expected one of {BATCHING_MODES}"
            )
        self.platform = (
            get_platform(platform) if isinstance(platform, str) else platform
        )
        self.tenants = tuple(tenants)
        self.policy = policy
        self.max_batch = max_batch
        self.objective = objective
        self.admission = admission
        self.batching = batching

    # ------------------------------------------------------------------
    def _mix_groups(
        self, active: Sequence[Tenant]
    ) -> list[tuple[tuple[str, ...], tuple[Tenant, ...]]]:
        """Active tenants folded into dispatch streams.

        Under ``tenant`` batching every tenant is its own stream (the
        classic loop, byte-identical).  Under ``continuous`` batching
        tenants serving the *same model chain* share one stream, so
        their pending requests ride a single batched dispatch --
        groups keep first-tenant order, members keep tenant order.
        """
        if self.batching != "continuous":
            return [(t.models, (t,)) for t in active]
        order: list[tuple[str, ...]] = []
        members: dict[tuple[str, ...], list[Tenant]] = {}
        for t in active:
            if t.models not in members:
                order.append(t.models)
                members[t.models] = []
            members[t.models].append(t)
        return [(m, tuple(members[m])) for m in order]

    def _group_workload(
        self, groups: Sequence[tuple[tuple[str, ...], tuple[Tenant, ...]]]
    ) -> Workload:
        return Workload.concurrent(
            *[WorkloadDNN.of(*models) for models, _ in groups],
            objective=self.objective,
        )

    def session(
        self, *, horizon_s: float, max_requests: int = 10_000
    ) -> "ServingSession":
        """A resumable serving session over this server's tenants.

        The fleet steps sessions in gossip epochs
        (:meth:`ServingSession.run_rounds`); ``run_rounds()`` with no
        limit serves every request arriving within ``horizon_s``,
        draining queues past the horizon, so the report always covers
        the full arrival set.
        """
        return ServingSession(
            self, horizon_s=horizon_s, max_requests=max_requests
        )


class ServingSession:
    """One resumable serving run: the fleet's epoch-step unit.

    Holds every piece of loop state -- request stream, per-tenant
    queues, round and request records, per-mix phase time, the
    virtual clock -- so the loop can be advanced a bounded number of
    rounds at a time (:meth:`run_rounds`) with gossip applied between
    calls.  How the rounds are chunked never changes the result, and
    the round trace is a pure function of the arrival stream, the
    admission rules and the policy's answers: wall-clock never enters
    the virtual timeline.

    The session additionally tracks *time-to-first-HaX-CoNN-
    incumbent*: the round index and wall-clock latency (via the
    sanctioned :func:`repro.solver.clock.monotonic_s`) at which the
    first HaX-CoNN-family schedule -- a cache toggle or a solver
    incumbent, as opposed to a naive start -- was dispatched.  Its
    wall clock, like :attr:`wall_s`, only runs inside
    :meth:`run_rounds`, so a fleet's peer epochs between calls are
    not counted.  Both are benchmark telemetry only; they never
    appear in the :class:`FleetReport`.
    """

    def __init__(
        self,
        server: Server,
        *,
        horizon_s: float,
        max_requests: int = 10_000,
    ) -> None:
        self.server = server
        self._requests = generate_requests(
            list(server.tenants),
            horizon_s=horizon_s,
            max_per_tenant=max_requests,
        )[:max_requests]
        self._queues: dict[str, deque[Request]] = {
            t.name: deque() for t in server.tenants
        }
        self._slo = {t.name: t.slo_s for t in server.tenants}
        self._priority = {t.name: t.priority for t in server.tenants}
        self._admission = (
            AdmissionController(server.admission)
            if server.admission is not None
            else None
        )
        #: per-tenant EWMA of measured (virtual) request latency; feeds
        #: the SLO-slack admission check, so it uses simulator time only
        self._latency_ewma: dict[str, float] = {}
        self.records: list[ServedRequest] = []
        self.rounds: list[RoundRecord] = []
        self._mix_elapsed: dict[tuple[str, ...], float] = {}
        self._now = 0.0
        self._next_arrival = 0
        self._finished = False
        #: virtual seconds spent jumping over empty-queue gaps
        self.virtual_idle_s = 0.0
        #: wall-clock seconds spent inside :meth:`run_rounds`
        #: (telemetry only)
        self.wall_s = 0.0
        #: round index of the first HaX-CoNN-family dispatch
        #: (deterministic; None until it happens)
        self.first_hax_round: int | None = None
        #: :attr:`wall_s` at that dispatch (telemetry only)
        self.first_hax_wall_s: float | None = None

    @property
    def finished(self) -> bool:
        """Every generated request has been served or shed."""
        return self._finished

    def run_rounds(self, limit: int | None = None) -> int:
        """Advance the loop by up to ``limit`` dispatched rounds
        (unbounded when None); returns the rounds executed.  Virtual
        idle-time jumps to the next arrival do not count as rounds."""
        if limit is not None and limit < 0:
            raise ValueError("limit must be >= 0 when given")
        entered = monotonic_s()
        executed = 0
        while not self._finished and (limit is None or executed < limit):
            # 1. admission: everything that has arrived by `now`
            while (
                self._next_arrival < len(self._requests)
                and self._requests[self._next_arrival].arrival_s
                <= self._now + _EPS
            ):
                req = self._requests[self._next_arrival]
                self._next_arrival += 1
                shed_reason = None
                if self._admission is not None:
                    shed_reason = self._admission.decide(
                        tenant=req.tenant,
                        priority=self._priority[req.tenant],
                        arrival_s=req.arrival_s,
                        queue_depth=len(self._queues[req.tenant]),
                        slo_s=self._slo[req.tenant],
                        est_latency_s=self._latency_ewma.get(req.tenant),
                    )
                if shed_reason is None:
                    self._queues[req.tenant].append(req)
                else:
                    self.records.append(
                        ServedRequest(
                            tenant=req.tenant,
                            seq=req.seq,
                            arrival_s=req.arrival_s,
                            slo_s=self._slo[req.tenant],
                            rejected=True,
                            shed_reason=shed_reason,
                        )
                    )

            active = [
                t for t in self.server.tenants if self._queues[t.name]
            ]
            if not active:
                if self._next_arrival >= len(self._requests):
                    self._finished = True
                    break  # drained: every request served or shed
                nxt = self._requests[self._next_arrival].arrival_s
                self.virtual_idle_s += max(nxt - self._now, 0.0)
                self._now = nxt
                continue

            # 1b. runtime throttle hook: the policy may defer some
            # backlogged tenants to a later round (MoCA-style); a None
            # answer (the default) keeps the full mix
            if len(active) > 1:
                candidates = tuple(
                    MixCandidate(
                        tenant=t.name,
                        models=t.models,
                        priority=t.priority,
                        queue_depth=len(self._queues[t.name]),
                    )
                    for t in active
                )
                keep = self.server.policy.filter_mix(
                    candidates,
                    round_index=len(self.rounds),
                    now_s=self._now,
                )
                if keep is not None:
                    kept = [t for t in active if t.name in keep]
                    if kept:
                        active = kept

            # 2. dispatch one round for the active mix
            groups = self.server._mix_groups(active)
            workload = self.server._group_workload(groups)
            mix_key = workload.names
            elapsed = self._mix_elapsed.get(mix_key, 0.0)
            result = self.server.policy.result_for(workload, elapsed)
            # per-stream service order: members of a continuous-batch
            # group drain round-robin, so no co-tenant is starved
            picks: list[tuple[Tenant, ...]] = []
            for _, members in groups:
                quotas = [
                    min(len(self._queues[m.name]), self.server.max_batch)
                    for m in members
                ]
                order: list[Tenant] = []
                while any(quotas):
                    for j, member in enumerate(members):
                        if quotas[j]:
                            order.append(member)
                            quotas[j] -= 1
                picks.append(tuple(order))
            batch = tuple(len(p) for p in picks)
            execution = run_schedule(
                result, self.server.platform, repeats=batch
            )
            timeline = execution.timeline
            for n, stream_picks in enumerate(picks):
                for rep, tenant in enumerate(stream_picks):
                    req = self._queues[tenant.name].popleft()
                    finish = self._now + timeline.completion(
                        dnn=n, rep=rep
                    )
                    latency = finish - req.arrival_s
                    prev = self._latency_ewma.get(req.tenant)
                    self._latency_ewma[req.tenant] = (
                        latency
                        if prev is None
                        else _EWMA_ALPHA * latency
                        + (1.0 - _EWMA_ALPHA) * prev
                    )
                    self.records.append(
                        ServedRequest(
                            tenant=req.tenant,
                            seq=req.seq,
                            arrival_s=req.arrival_s,
                            slo_s=self._slo[req.tenant],
                            start_s=self._now,
                            finish_s=finish,
                            round_index=len(self.rounds),
                        )
                    )
            duration = execution.makespan_s
            scheduler_name = str(
                result.schedule.meta.get("scheduler", "?")
            )
            if self.first_hax_round is None and _is_hax_scheduler(
                scheduler_name
            ):
                self.first_hax_round = len(self.rounds)
                self.first_hax_wall_s = self.wall_s + (
                    monotonic_s() - entered
                )
            self.rounds.append(
                RoundRecord(
                    index=len(self.rounds),
                    start_s=self._now,
                    end_s=self._now + duration,
                    tenants=tuple(
                        "+".join(m.name for m in members)
                        for _, members in groups
                    ),
                    batch=batch,
                    scheduler=scheduler_name,
                    timeline=timeline,
                )
            )
            self._mix_elapsed[mix_key] = elapsed + duration
            self._now += duration
            executed += 1
        self.wall_s += monotonic_s() - entered
        return executed

    def report(self) -> FleetReport:
        """The run so far as a :class:`FleetReport`."""
        records = sorted(
            self.records, key=lambda r: (r.arrival_s, r.tenant, r.seq)
        )
        return FleetReport(
            records,
            list(self.rounds),
            tenant_slos=dict(self._slo),
            policy_stats=self.server.policy.stats(),
            admission_stats=(
                self._admission.stats()
                if self._admission is not None
                else None
            ),
        )
