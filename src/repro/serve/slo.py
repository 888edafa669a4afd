"""Per-tenant and fleet SLO metrics for serving runs.

Every number here is derived from *measured* request records -- round
start/finish instants observed on the discrete-event simulator -- never
from scheduler predictions.  Aggregation (percentiles, miss rates,
goodput, utilization) goes through the shared helpers in
:mod:`repro.runtime.metrics`; :meth:`FleetReport.merged_timeline` puts
the whole run on one clock for :mod:`repro.runtime.trace`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.runtime import metrics
from repro.soc.timeline import ContentionInterval, TaskRecord, Timeline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from repro.serve.server import RoundRecord


@dataclass(frozen=True)
class ServedRequest:
    """Outcome of one request: admitted-and-served, or shed."""

    tenant: str
    seq: int
    arrival_s: float
    slo_s: float | None = None
    #: round dispatch instant (None for rejected requests)
    start_s: float | None = None
    #: simulator-measured completion instant
    finish_s: float | None = None
    round_index: int | None = None
    rejected: bool = False
    #: admission-controller deny reason (None when admitted)
    shed_reason: str | None = None

    def __post_init__(self) -> None:
        if not self.rejected and (
            self.start_s is None or self.finish_s is None
        ):
            raise ValueError(
                f"{self.tenant}#{self.seq}: served request needs "
                "start and finish instants"
            )

    @property
    def latency_s(self) -> float:
        """Arrival-to-completion latency (queueing included)."""
        if self.finish_s is None:
            raise ValueError(f"{self.tenant}#{self.seq} was rejected")
        return self.finish_s - self.arrival_s

    @property
    def met_slo(self) -> bool:
        if self.rejected:
            return False
        if self.slo_s is None:
            return True
        return self.latency_s <= self.slo_s + 1e-12


@dataclass(frozen=True)
class TenantStats:
    """Measured service quality of one tenant over a run."""

    name: str
    latencies_s: tuple[float, ...]
    rejected: int
    slo_s: float | None
    span_s: float

    @classmethod
    def from_requests(
        cls,
        name: str,
        requests: Sequence[ServedRequest],
        *,
        slo_s: float | None,
        span_s: float,
    ) -> "TenantStats":
        return cls(
            name=name,
            latencies_s=tuple(
                r.latency_s for r in requests if not r.rejected
            ),
            rejected=sum(1 for r in requests if r.rejected),
            slo_s=slo_s,
            span_s=span_s,
        )

    @property
    def served(self) -> int:
        return len(self.latencies_s)

    @property
    def p50_ms(self) -> float:
        return metrics.percentile_ms(self.latencies_s, 50)

    @property
    def p99_ms(self) -> float:
        return metrics.percentile_ms(self.latencies_s, 99)

    @property
    def mean_ms(self) -> float:
        return metrics.mean_ms(self.latencies_s)

    @property
    def miss_rate(self) -> float:
        """Deadline misses among served requests (sheds not counted)."""
        return metrics.deadline_miss_rate(self.latencies_s, self.slo_s)

    @property
    def goodput_rps(self) -> float:
        """SLO-compliant completions per second of serving span."""
        good = sum(
            1
            for lat in self.latencies_s
            if self.slo_s is None or lat <= self.slo_s + 1e-12
        )
        return metrics.goodput_rps(good, self.span_s)


@dataclass(frozen=True)
class TierConfig:
    """Admission rules for one priority tier.

    Every rule is optional; an all-``None`` tier admits everything.
    ``rate_hz``/``burst`` form a token bucket refilled on *arrival*
    instants, so the admitted prefix of a tenant's arrival stream is a
    pure function of the stream itself (the balanced router replays
    the same bucket when it weighs tenants).  ``depth_cap`` bounds the
    tenant's backlog, and ``slack_factor`` sheds when the tenant's
    measured latency estimate exceeds ``slack_factor * slo_s`` -- the
    SLO-budget check, on virtual time only.
    """

    priority: int
    rate_hz: float | None = None
    burst: int = 4
    depth_cap: int | None = None
    slack_factor: float | None = None

    def __post_init__(self) -> None:
        if self.rate_hz is not None and self.rate_hz <= 0:
            raise ValueError("rate_hz must be positive when set")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.depth_cap is not None and self.depth_cap < 1:
            raise ValueError("depth_cap must be >= 1 when set")
        if self.slack_factor is not None and self.slack_factor <= 0:
            raise ValueError("slack_factor must be positive when set")


@dataclass(frozen=True)
class AdmissionConfig:
    """Priority-tiered admission rules (stateless).

    The runtime state lives in :class:`AdmissionController`, built
    fresh per serving session -- which is what lets the fleet hand one
    config to every shard and keep shards independent.
    """

    tiers: tuple[TierConfig, ...] = ()

    def __post_init__(self) -> None:
        priorities = [t.priority for t in self.tiers]
        if len(set(priorities)) != len(priorities):
            raise ValueError(f"duplicate tier priorities: {priorities}")

    def tier_for(self, priority: int) -> TierConfig | None:
        for tier in self.tiers:
            if tier.priority == priority:
                return tier
        return None


#: deny reasons, in check order
SHED_RATE, SHED_DEPTH, SHED_SLACK = "rate", "depth", "slo-slack"


class AdmissionController:
    """Stateful admission decisions for one serving session.

    Decisions consume only virtual-time inputs (arrival instants,
    queue depths, measured virtual latencies), so a replayed session
    sheds the identical request set.  It is the serving loop's only
    load-shedding path.
    """

    def __init__(self, config: AdmissionConfig) -> None:
        self.config = config
        #: token-bucket state per tenant: (tokens, last refill instant)
        self._buckets: dict[str, tuple[float, float]] = {}
        self.admitted = 0
        self.shed_by_reason: dict[str, int] = {}

    def _bucket_admit(
        self, tier: TierConfig, tenant: str, arrival_s: float
    ) -> bool:
        if tier.rate_hz is None:
            return True
        tokens, last = self._buckets.get(
            tenant, (float(tier.burst), arrival_s)
        )
        tokens = min(
            float(tier.burst), tokens + (arrival_s - last) * tier.rate_hz
        )
        if tokens >= 1.0:
            self._buckets[tenant] = (tokens - 1.0, arrival_s)
            return True
        self._buckets[tenant] = (tokens, arrival_s)
        return False

    def decide(
        self,
        *,
        tenant: str,
        priority: int,
        arrival_s: float,
        queue_depth: int,
        slo_s: float | None,
        est_latency_s: float | None,
    ) -> str | None:
        """``None`` to admit, else the deny reason."""
        tier = self.config.tier_for(priority)
        if tier is None:
            self.admitted += 1
            return None
        reason: str | None = None
        if not self._bucket_admit(tier, tenant, arrival_s):
            reason = SHED_RATE
        elif tier.depth_cap is not None and queue_depth >= tier.depth_cap:
            reason = SHED_DEPTH
        elif (
            tier.slack_factor is not None
            and slo_s is not None
            and est_latency_s is not None
            and est_latency_s > tier.slack_factor * slo_s
        ):
            reason = SHED_SLACK
        if reason is None:
            self.admitted += 1
            return None
        self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1
        return reason

    @property
    def shed(self) -> int:
        return sum(self.shed_by_reason.values())

    def stats(self) -> dict[str, object]:
        out: dict[str, object] = {
            "admitted": self.admitted,
            "shed": self.shed,
        }
        for reason in sorted(self.shed_by_reason):
            out[f"shed_{reason}"] = self.shed_by_reason[reason]
        return out

    def admitted_times(
        self, tier: TierConfig | None, times: Sequence[float]
    ) -> tuple[float, ...]:
        """The arrival-only admitted prefix of an arrival stream.

        Replays just the token bucket (depth and slack need queue
        state a pre-pass cannot know) on a throwaway bucket -- the
        deterministic weight the balanced router uses for admitted
        (post-shed) backlog.  Never touches session state.
        """
        if tier is None or tier.rate_hz is None:
            return tuple(times)
        probe = AdmissionController(AdmissionConfig(tiers=(tier,)))
        return tuple(
            t
            for t in times
            if probe._bucket_admit(tier, "probe", t)
        )


def admitted_request_count(
    config: AdmissionConfig | None,
    priority: int,
    times: Sequence[float],
) -> int:
    """Router-side pre-pass: how many of ``times`` the arrival-only
    admission rules would let through (all of them without a config)."""
    if config is None:
        return len(times)
    controller = AdmissionController(config)
    return len(controller.admitted_times(config.tier_for(priority), times))


class FleetReport:
    """Everything measured during one serving run."""

    def __init__(
        self,
        requests: Sequence[ServedRequest],
        rounds: Sequence["RoundRecord"],
        *,
        tenant_slos: Mapping[str, float | None],
        policy_stats: Mapping[str, object],
        admission_stats: Mapping[str, object] | None = None,
    ) -> None:
        self.requests = tuple(requests)
        self.rounds = tuple(rounds)
        self.tenant_slos = dict(tenant_slos)
        self.policy_stats = dict(policy_stats)
        #: admission-controller counters (None when no controller ran,
        #: which keeps legacy report bytes unchanged)
        self.admission_stats = (
            None if admission_stats is None else dict(admission_stats)
        )

    # -- aggregate views ----------------------------------------------
    @property
    def span_s(self) -> float:
        """First arrival to last completion (the serving horizon)."""
        if not self.rounds:
            return 0.0
        return max(r.end_s for r in self.rounds)

    @property
    def served(self) -> tuple[ServedRequest, ...]:
        return tuple(r for r in self.requests if not r.rejected)

    @property
    def rejected(self) -> tuple[ServedRequest, ...]:
        return tuple(r for r in self.requests if r.rejected)

    def tenant_stats(self) -> dict[str, TenantStats]:
        by_tenant: dict[str, list[ServedRequest]] = {
            name: [] for name in self.tenant_slos
        }
        for r in self.requests:
            by_tenant.setdefault(r.tenant, []).append(r)
        span = self.span_s
        return {
            name: TenantStats.from_requests(
                name,
                reqs,
                slo_s=self.tenant_slos.get(name),
                span_s=span,
            )
            for name, reqs in by_tenant.items()
        }

    @property
    def p99_ms(self) -> float:
        return metrics.percentile_ms(
            [r.latency_s for r in self.served], 99
        )

    @property
    def p50_ms(self) -> float:
        return metrics.percentile_ms(
            [r.latency_s for r in self.served], 50
        )

    @property
    def miss_rate(self) -> float:
        served = self.served
        if not served:
            return 0.0
        return sum(1 for r in served if not r.met_slo) / len(served)

    @property
    def goodput_rps(self) -> float:
        return metrics.goodput_rps(
            sum(1 for r in self.served if r.met_slo), self.span_s
        )

    def utilization(self) -> dict[str, float]:
        """Busy fraction per accelerator over the whole serving span."""
        busy: dict[str, float] = {}
        for rnd in self.rounds:
            for rec in rnd.timeline.records:
                busy[rec.accel] = busy.get(rec.accel, 0.0) + rec.duration
        span = self.span_s
        return {
            accel: metrics.utilization(b, span)
            for accel, b in sorted(busy.items())
        }

    # -- export --------------------------------------------------------
    def merged_timeline(self) -> Timeline:
        """All rounds on one clock, task ids prefixed per round."""
        records: list[TaskRecord] = []
        intervals: list[ContentionInterval] = []
        for rnd in self.rounds:
            offset = rnd.start_s
            for rec in rnd.timeline.records:
                records.append(
                    dataclasses.replace(
                        rec,
                        task_id=f"r{rnd.index}:{rec.task_id}",
                        start=rec.start + offset,
                        end=rec.end + offset,
                    )
                )
            for iv in rnd.timeline.intervals:
                intervals.append(
                    ContentionInterval(
                        start=iv.start + offset,
                        end=iv.end + offset,
                        allocations={
                            f"r{rnd.index}:{task}": bw
                            for task, bw in iv.allocations.items()
                        },
                    )
                )
        return Timeline(records, intervals)

    # -- presentation ---------------------------------------------------
    def describe(self) -> str:
        lines = [
            f"{'tenant':16s} {'served':>6s} {'shed':>5s} {'p50':>9s} "
            f"{'p99':>9s} {'miss':>6s} {'goodput':>8s}"
        ]
        lines.append("-" * len(lines[0]))
        for name, st in sorted(self.tenant_stats().items()):
            if st.served:
                lines.append(
                    f"{name:16s} {st.served:6d} {st.rejected:5d} "
                    f"{st.p50_ms:7.2f}ms {st.p99_ms:7.2f}ms "
                    f"{st.miss_rate * 100:5.1f}% {st.goodput_rps:6.1f}/s"
                )
            else:
                lines.append(
                    f"{name:16s} {st.served:6d} {st.rejected:5d} "
                    f"{'-':>9s} {'-':>9s} {'-':>6s} {'-':>8s}"
                )
        util = "  ".join(
            f"{a}={u * 100:.0f}%" for a, u in self.utilization().items()
        )
        lines.append(
            f"fleet: {len(self.served)} served / "
            f"{len(self.rejected)} shed over {self.span_s * 1e3:.1f} ms "
            f"virtual, {len(self.rounds)} rounds; utilization {util}"
        )
        stats = ", ".join(
            f"{k}={v}" for k, v in self.policy_stats.items()
        )
        lines.append(f"policy: {stats}")
        if self.admission_stats is not None:
            admission = ", ".join(
                f"{k}={v}" for k, v in self.admission_stats.items()
            )
            lines.append(f"admission: {admission}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<FleetReport {len(self.served)} served, "
            f"{len(self.rejected)} shed, {len(self.rounds)} rounds, "
            f"span {self.span_s * 1e3:.2f} ms>"
        )
