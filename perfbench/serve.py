"""``serve-shift`` / ``serve-warm``: a two-shard fleet over a solve store."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from perfbench import common
from perfbench.workloads import Population

SHARDS = 2
SYNC_ROUNDS = 4
MAX_LAG = 2
#: the fleet scheduler (mirrors ``serving.make_fleet_policy_factory``)
MAX_GROUPS = 8
MAX_TRANSITIONS = 2
NODE_BUDGET = 1500


@dataclass
class ServeSetup:
    platform: object
    db: object
    population: Population

    def fleet(self, backend: str, store, created: list | None = None):
        """A fresh fleet; ``created`` collects the shard policies (only
        visible in-process, i.e. for the serial backend)."""
        from repro.core.haxconn import HaXCoNN
        from repro.experiments.serving import FLEET_UPDATE_POINTS
        from repro.serve.fleet import Fleet
        from repro.serve.policy import CachedAnytimePolicy

        platform, db = self.platform, self.db

        def factory(shard_id: int):
            scheduler = HaXCoNN(
                platform,
                db=db,
                max_groups=MAX_GROUPS,
                max_transitions=MAX_TRANSITIONS,
                solver="portfolio",
                solver_workers=2,
                solver_backend="serial",
                solver_clock="nodes",
                node_budget=NODE_BUDGET,
            )
            policy = CachedAnytimePolicy(
                scheduler, update_points=FLEET_UPDATE_POINTS
            )
            if created is not None:
                created.append(policy)
            return policy

        return Fleet(
            platform,
            self.population.tenants,
            factory,
            shards=SHARDS,
            backend=backend,
            router="balanced",
            sync_rounds=SYNC_ROUNDS,
            max_lag=MAX_LAG,
            admission=self.population.admission,
            store=store,
            transport="shm" if backend == "fork" else "auto",
        )


def setup(population: Population) -> ServeSetup:
    """Calibrate the platform, fit PCCS, profile the population's
    models at the fleet grouping and construct one fleet."""
    from repro.soc.platform import get_platform

    get_platform.cache_clear()
    platform = get_platform(common.SERVE_PLATFORM)
    db = common.fresh_dbs((common.SERVE_PLATFORM,))[common.SERVE_PLATFORM]
    for model in population.models():
        db.profile(model, max_groups=MAX_GROUPS)
    ready = ServeSetup(platform, db, population)
    ready.fleet("serial", None)
    return ready


@dataclass
class FleetRun:
    report: object
    #: wall seconds of the timed unit (store open + ``Fleet.run``)
    wall_s: float
    #: the same, scaled to the nominal host (see ``hostspeed``)
    scaled_s: float

    @property
    def digest(self) -> str:
        text = "\n".join(self.report.describe_shards())
        return hashlib.sha256(text.encode()).hexdigest()

    def stat(self, key: str) -> int:
        return sum(
            int(o.report.policy_stats.get(key, 0) or 0)
            for o in self.report.outcomes
        )

    def slo_miss_frac(self) -> float:
        records = [
            r
            for o in self.report.outcomes
            for r in (*o.report.served, *o.report.rejected)
        ]
        # a shed request counts as a miss (``met_slo`` is False)
        missed = sum(1 for r in records if not r.met_slo)
        return missed / len(records) if records else 0.0


def run_once(
    ready: ServeSetup,
    backend: str,
    store_path: Path,
    *,
    readonly: bool,
    created: list | None = None,
):
    """Open the store and serve the population once (the timed unit)."""
    from repro.core.solve_store import SolveStore

    store = SolveStore(store_path, readonly=readonly)
    return ready.fleet(backend, store, created).run(
        horizon_s=ready.population.horizon_s
    )


def arrivals(population: Population) -> int:
    from repro.serve.requests import generate_requests

    return len(
        generate_requests(list(population.tenants), horizon_s=population.horizon_s)
    )


def check(run: FleetRun, expected_arrivals: int, *, warm: bool) -> list[str]:
    """Per-run checks: nothing lost, certified cache entries, and the
    store behaviour the workload promises."""
    report = run.report
    problems = []
    routed = sum(o.routed for o in report.outcomes)
    if routed != expected_arrivals:
        problems.append(f"routed {routed} != arrivals {expected_arrivals}")
    if report.served + report.shed != routed:
        problems.append(
            f"served {report.served} + shed {report.shed} != routed {routed}"
        )
    if run.stat("verify_failures"):
        problems.append(f"{run.stat('verify_failures')} uncertified schedules")
    if warm:
        if report.solves != 0:
            problems.append(f"warm fleet solved {report.solves} mixes")
        if report.store_hits <= 0:
            problems.append("warm fleet took no store hits")
    elif report.solves <= 0:
        problems.append("cold fleet made no solves")
    if report.served < 1000:
        problems.append(f"only {report.served} served; p99 needs 1000")
    return problems


def lost(run: FleetRun, expected_arrivals: int) -> int:
    return max(expected_arrivals - run.report.served - run.report.shed, 0)
