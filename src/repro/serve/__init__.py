"""Online multi-tenant inference serving on the simulated SoC.

``repro.serve`` is the deployment layer the paper's D-HaX-CoNN
motivates (Section 3.5): instead of scripted workload phases, a
:class:`~repro.serve.fleet.Fleet` accepts a *stream of requests from
many tenants*; each shard detects its currently-active tenant mix and
decides online which schedule to dispatch -- consulting the static
schedule cache for known mixes and falling back to anytime solving
(naive schedule immediately, better incumbents at update points) for
novel ones.

Fidelity contract (same as the rest of the repo): serving *decisions*
use only decoupled profiles and scheduler predictions; every *reported*
latency comes from executing rounds on the discrete-event simulator.

- :mod:`repro.serve.requests` -- tenants, requests, arrival processes
  (periodic, Poisson, bursty/MMPP, trace replay),
- :mod:`repro.serve.policy` -- schedule-swap policies (static
  baselines, MoCA-style throttling, cache-plus-anytime),
- :mod:`repro.serve.server` -- :class:`ServingSession`, the
  event-driven serving loop on simulator virtual time (each shard's
  engine),
- :mod:`repro.serve.slo` -- per-tenant and fleet SLO metrics and the
  priority-tiered admission controller (the only load-shedding path),
- :mod:`repro.serve.fleet` -- the serving fleet, the one way to serve
  (deterministic tenant routing, epoch gossip, persistent solve
  store); a single replica is a one-shard fleet.
"""

from repro.serve.fleet import (
    Fleet,
    ShardedFleetReport,
    ShardOutcome,
    ShardRouter,
    stable_shard,
)
from repro.serve.policy import (
    CachedAnytimePolicy,
    ServingPolicy,
    StaticPolicy,
    gpu_only_policy,
    naive_policy,
)
from repro.serve.requests import (
    ArrivalProcess,
    BurstyArrivals,
    PeriodicArrivals,
    PoissonArrivals,
    Request,
    Tenant,
    TraceArrivals,
    generate_requests,
)
from repro.serve.server import RoundRecord, ServingSession
from repro.serve.slo import FleetReport, ServedRequest, TenantStats

__all__ = [
    "ArrivalProcess",
    "BurstyArrivals",
    "CachedAnytimePolicy",
    "Fleet",
    "FleetReport",
    "PeriodicArrivals",
    "PoissonArrivals",
    "Request",
    "RoundRecord",
    "ServedRequest",
    "ServingPolicy",
    "ServingSession",
    "ShardOutcome",
    "ShardRouter",
    "ShardedFleetReport",
    "StaticPolicy",
    "Tenant",
    "TenantStats",
    "TraceArrivals",
    "generate_requests",
    "gpu_only_policy",
    "naive_policy",
    "stable_shard",
]
