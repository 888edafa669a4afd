"""Serving study: cache-plus-anytime vs static policies on a changing
tenant mix.

A three-tenant deployment whose active mix changes mid-run (a detection
tenant hands over to a segmentation tenant while a camera-classification
tenant runs throughout) is served under four policies:

- ``gpu_only``  -- every round serialized on the GPU,
- ``naive``     -- contention-oblivious fixed GPU & DSA mapping,
- ``haxconn``   -- :class:`~repro.serve.policy.CachedAnytimePolicy`:
  schedule-cache toggles for known mixes, D-HaX-CoNN anytime solving
  (naive start, incumbent swaps) for novel ones,
- ``moca``      -- :class:`~repro.serve.policy.DynamicThrottlePolicy`:
  the MoCA-style runtime baseline -- naive static mappings plus a
  dispatch-time throttle that defers the most memory-aggressive tenant
  whenever the PCCS model predicts the mix overcommits bandwidth.

All latency numbers are measured by executing rounds on the simulator;
the policies only ever see decoupled profiles and predictions.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.haxconn import HaXCoNN
from repro.core.solve_store import SolveStore
from repro.runtime import metrics
from repro.serve.slo import AdmissionConfig
from repro.experiments.common import format_table, get_db
from repro.serve.fleet import Fleet, ShardedFleetReport
from repro.serve.policy import (
    CachedAnytimePolicy,
    DynamicThrottlePolicy,
    ServingPolicy,
    gpu_only_policy,
    naive_policy,
)
from repro.serve.requests import (
    PeriodicArrivals,
    PoissonArrivals,
    Tenant,
    TraceArrivals,
)
from repro.serve.server import RoundRecord
from repro.soc.platform import get_platform

POLICIES = ("gpu_only", "naive", "haxconn", "moca")


def windowed(
    rate_hz: float, start_s: float, end_s: float, *, seed: int = 0
) -> TraceArrivals:
    """Periodic arrivals confined to ``[start_s, end_s)`` -- the trace
    form of a tenant that joins and later leaves the fleet."""
    times = PeriodicArrivals(rate_hz, seed=seed).times_within(
        end_s - start_s, start=start_s
    )
    return TraceArrivals(tuple(times))


def default_tenants(horizon_s: float) -> list[Tenant]:
    """The changing mix: cam runs throughout; det hands over to seg.

    Rates sit near the serialized-GPU capacity of the two-tenant
    mixes, the regime where scheduling policy decides whether queues
    drain or build -- a lightly-loaded server makes every policy look
    identical because rounds degenerate to single-tenant mixes.
    """
    half = horizon_s / 2
    return [
        Tenant.of(
            "cam",
            "googlenet",
            arrivals=PoissonArrivals(120.0, seed=11),
            slo_s=0.030,
        ),
        Tenant.of(
            "det",
            "vgg19",
            arrivals=windowed(70.0, 0.0, half, seed=12),
            slo_s=0.040,
        ),
        Tenant.of(
            "seg",
            "resnet152",
            arrivals=windowed(70.0, half, horizon_s, seed=13),
            slo_s=0.040,
        ),
    ]


def make_policy(
    name: str,
    platform_name: str,
    *,
    max_groups: int | None,
    max_transitions: int,
) -> ServingPolicy:
    platform = get_platform(platform_name)
    db = get_db(platform_name)
    if name == "gpu_only":
        return gpu_only_policy(platform, db=db, max_groups=max_groups)
    if name == "naive":
        return naive_policy(platform, db=db, max_groups=max_groups)
    if name == "haxconn":
        scheduler = HaXCoNN(
            platform,
            db=db,
            max_groups=max_groups,
            max_transitions=max_transitions,
        )
        return CachedAnytimePolicy(scheduler)
    if name == "moca":
        return DynamicThrottlePolicy(
            platform, db=db, max_groups=max_groups
        )
    raise KeyError(f"unknown serving policy {name!r}")


def _idle_s(rounds: Sequence[RoundRecord]) -> float:
    """Virtual seconds the SoC sat idle up to the last round: the
    first round's start plus each gap between consecutive rounds."""
    idle = rounds[0].start_s if rounds else 0.0
    for before, after in zip(rounds, rounds[1:]):
        idle += after.start_s - before.end_s
    return idle


def run(
    platform_name: str = "xavier",
    *,
    horizon_s: float = 0.5,
    max_groups: int | None = 8,
    max_transitions: int = 1,
    max_batch: int = 2,
    policies: tuple[str, ...] = POLICIES,
    admission: AdmissionConfig | None = None,
    batching: str = "tenant",
) -> list[dict[str, object]]:
    platform = get_platform(platform_name)
    rows: list[dict[str, object]] = []
    for name in policies:
        policy = make_policy(
            name,
            platform_name,
            max_groups=max_groups,
            max_transitions=max_transitions,
        )
        fleet = Fleet(
            platform,
            default_tenants(horizon_s),
            lambda _shard, policy=policy: policy,
            shards=1,
            max_batch=max_batch,
            admission=admission,
            batching=batching,
        )
        report = fleet.run(horizon_s=horizon_s).outcomes[0].report
        stats = policy.stats()
        eval_stats = getattr(policy, "eval_stats", dict)()
        util = report.utilization()
        n_rounds = len(report.rounds)
        admitted = (report.admission_stats or {}).get(
            "admitted", len(report.served)
        )
        rows.append(
            {
                "policy": name,
                "served": len(report.served),
                "admitted": admitted,
                "shed": len(report.rejected),
                "p50_ms": report.p50_ms,
                "p99_ms": report.p99_ms,
                "miss_%": report.miss_rate * 100.0,
                "goodput_rps": report.goodput_rps,
                "rounds": n_rounds,
                "idle_ms_per_round": metrics.per_round_ms(
                    _idle_s(report.rounds), n_rounds
                ),
                "solves": stats.get("solves", 0),
                "cache_hits": stats.get("cache_hits", 0),
                "swaps": stats.get("swaps", 0),
                "memo_hit_%": 100.0 * eval_stats.get("memo_hit_rate", 0.0),
                "fp_iter": eval_stats.get("fp_iter_mean", 0.0),
                "throttled": stats.get("throttled", 0),
                "gpu_util_%": util.get(platform.gpu.name, 0.0) * 100.0,
            }
        )
    return rows


# -- the sharded fleet scenario ---------------------------------------

#: update points matched to serving-round phase time (milliseconds of
#: phase per round), so anytime phases converge within a short run
FLEET_UPDATE_POINTS = (0.002, 0.005, 0.01, 0.02, 0.05)


def fleet_tenants(*, rate_hz: float = 300.0, slo_s: float = 0.5) -> list[Tenant]:
    """Four heavy single-model tenants under sustained backlog.

    The regime where sharding pays on a single machine: one shard must
    co-schedule the joint four-stream mix (an expensive solve), while a
    four-shard fleet solves four cheap single-stream mixes.
    """
    models = ("resnet50", "vgg16", "googlenet", "resnet18")
    return [
        Tenant.of(
            f"t{k}-{model}",
            model,
            arrivals=PoissonArrivals(rate_hz, seed=100 + k),
            slo_s=slo_s,
        )
        for k, model in enumerate(models)
    ]


def make_fleet_policy_factory(
    platform_name: str,
    *,
    max_groups: int | None = 8,
    max_transitions: int = 2,
    node_budget: int = 1500,
) -> Callable[[int], ServingPolicy]:
    """Per-shard policy factory for a deterministic fleet.

    The policy plans its swaps in node-count phase time, so its
    decisions never depend on wall time, whatever the solver or its
    clock.  The factory is called once per shard, and every shard
    shares the one profile database.
    """
    platform = get_platform(platform_name)
    db = get_db(platform_name)

    def factory(shard_id: int) -> ServingPolicy:
        scheduler = HaXCoNN(
            platform,
            db=db,
            max_groups=max_groups,
            max_transitions=max_transitions,
            solver="portfolio",
            solver_clock="nodes",
            node_budget=node_budget,
        )
        return CachedAnytimePolicy(
            scheduler, update_points=FLEET_UPDATE_POINTS
        )

    return factory


def run_fleet(
    platform_name: str = "xavier",
    *,
    horizon_s: float = 0.12,
    shard_counts: tuple[int, ...] = (1, 2, 4),
    store: SolveStore | None = None,
    sync_rounds: int = 4,
) -> list[dict[str, object]]:
    """Fleet scaling rows: the same tenant population served by
    1..N shards, sharing solves through gossip and ``store``."""
    platform = get_platform(platform_name)
    factory = make_fleet_policy_factory(platform_name)
    rows: list[dict[str, object]] = []
    for shards in shard_counts:
        fleet = Fleet(
            platform,
            fleet_tenants(),
            factory,
            shards=shards,
            router="balanced",
            sync_rounds=sync_rounds,
            store=store,
        )
        rows.append(fleet_row(fleet.run(horizon_s=horizon_s)))
    return rows


def fleet_row(report: ShardedFleetReport) -> dict[str, object]:
    """One fleet run as a summary-table row (the ``haxconn serve``
    fleet columns)."""
    ttf = report.time_to_first_hax_s()
    totals = report.admission_totals()
    return {
        "shards": report.shards,
        "served": report.served,
        "admitted": totals.get("admitted", report.served),
        "shed": report.shed,
        "p50_ms": report.p50_ms if report.served else None,
        "p99_ms": report.p99_ms if report.served else None,
        "rounds": report.rounds,
        "solves": report.solves,
        "store_hits": report.store_hits,
        "wall_ms": report.wall_s * 1e3,
        "round_wall_ms": report.mean_round_wall_ms(),
        "tput_rps": report.throughput_rps,
        "ttf_hax_ms": None if ttf is None else ttf * 1e3,
    }


FLEET_COLUMNS = (
    "shards",
    "served",
    "admitted",
    "shed",
    "p50_ms",
    "p99_ms",
    "rounds",
    "solves",
    "store_hits",
    "wall_ms",
    "round_wall_ms",
    "tput_rps",
    "ttf_hax_ms",
)


def format_fleet_results(rows: list[dict[str, object]]) -> str:
    return format_table(
        rows,
        list(FLEET_COLUMNS),
        title="Serving fleet: shard scaling on one machine "
        "(shared solve store + epoch gossip)",
    )


def format_results(rows: list[dict[str, object]]) -> str:
    return format_table(
        rows,
        [
            "policy",
            "served",
            "admitted",
            "shed",
            "p50_ms",
            "p99_ms",
            "miss_%",
            "goodput_rps",
            "rounds",
            "idle_ms_per_round",
            "solves",
            "cache_hits",
            "swaps",
            "memo_hit_%",
            "fp_iter",
            "throttled",
            "gpu_util_%",
        ],
        title="Serving: cache+anytime vs static policies on a "
        "changing tenant mix",
    )


if __name__ == "__main__":
    print(format_results(run()))
    print()
    print(format_fleet_results(run_fleet()))
