"""Route fuzz scenarios into the serving layer.

A scenario that survives the oracle stack is a *vetted* workload: its
schedules verify, its evaluators agree, its baselines behave.  This
module turns such a :class:`ScenarioSpec` into serving tenants (the
SLO and arrival-process fields finally matter here) and drives it
through :class:`repro.serve.server.Server` or
:class:`repro.serve.fleet.Fleet` -- so the fuzzer doubles as a
generator of replayable multi-tenant serving workloads.

Tenant arrival seeds derive from the scenario seed, so a replay is as
deterministic as the scenario itself.
"""

from __future__ import annotations

from repro.core.haxconn import HaXCoNN
from repro.experiments.common import get_db
from repro.fuzz.universe import ScenarioSpec
from repro.serve.fleet import Fleet, ShardedFleetReport
from repro.serve.policy import CachedAnytimePolicy, ServingPolicy
from repro.serve.requests import Tenant, make_arrivals
from repro.serve.server import Server
from repro.serve.slo import FleetReport
from repro.soc.platform import get_platform


def tenants_for(spec: ScenarioSpec) -> tuple[Tenant, ...]:
    """The scenario's streams as serving tenants."""
    tenants = []
    for k, t in enumerate(spec.tenants):
        tenants.append(
            Tenant.of(
                f"t{k}-{t.model}",
                *((t.model,) * t.repeats),
                arrivals=make_arrivals(
                    t.arrivals, t.rate_hz, seed=spec.seed + k
                ),
                slo_s=None if t.slo_ms is None else t.slo_ms / 1e3,
            )
        )
    return tuple(tenants)


def scenario_policy(spec: ScenarioSpec) -> ServingPolicy:
    """A deterministic anytime policy for the scenario's platform.

    The policy plans its swaps in node-count phase time, a pure
    function of explored nodes, which is what makes fleet replays
    byte-identical across the serial and fork backends.
    """
    platform = get_platform(spec.platform)
    scheduler = HaXCoNN(
        platform,
        db=get_db(spec.platform),
        max_groups=spec.max_groups,
        max_transitions=1,
        solver="portfolio",
        solver_clock="nodes",
        node_budget=50_000,
    )
    return CachedAnytimePolicy(scheduler)


def serve_scenario(
    spec: ScenarioSpec,
    *,
    horizon_s: float = 0.25,
    max_requests: int = 256,
) -> FleetReport:
    """Serve the scenario on a single simulated SoC."""
    server = Server(
        get_platform(spec.platform),
        tenants_for(spec),
        scenario_policy(spec),
        objective=spec.objective,
    )
    return server.run(horizon_s=horizon_s, max_requests=max_requests)


def fleet_scenario(
    spec: ScenarioSpec,
    *,
    shards: int = 2,
    backend: str = "serial",
    horizon_s: float = 0.25,
    max_requests: int = 256,
    max_lag: int = 0,
) -> ShardedFleetReport:
    """Serve the scenario on a sharded fleet (any backend).

    ``max_lag`` selects the bounded-lag window of the fleet's
    pipelined round protocol (0 = lockstep barrier); the report must
    not depend on it, which is exactly what the tenth oracle check
    asserts.
    """
    fleet = Fleet(
        get_platform(spec.platform),
        tenants_for(spec),
        lambda shard: scenario_policy(spec),
        shards=shards,
        backend=backend,
        objective=spec.objective,
        max_lag=max_lag,
    )
    return fleet.run(horizon_s=horizon_s, max_requests=max_requests)
