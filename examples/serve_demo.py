#!/usr/bin/env python3
"""Multi-tenant serving demo: cache toggles plus anytime solving.

Three tenants share one simulated Xavier: a camera-classification
tenant runs throughout while a detection tenant hands over to a
segmentation tenant halfway -- so the active mix *changes* mid-run.
The cache-plus-anytime policy starts each novel mix on the best naive
schedule, swaps in better solver incumbents at the paper's update
points, and serves every repeat of a converged mix straight from the
schedule cache.  A GPU-only policy serves the identical request stream
for comparison.  All latencies are measured on the discrete-event
simulator.

Run:  python examples/serve_demo.py [platform]
"""

import sys

from repro.core import HaXCoNN
from repro.serve import (
    CachedAnytimePolicy,
    Fleet,
    PoissonArrivals,
    Tenant,
    TraceArrivals,
    gpu_only_policy,
)
from repro.serve.requests import PeriodicArrivals
from repro.soc import get_platform

HORIZON_S = 0.5


def tenants() -> list[Tenant]:
    half = HORIZON_S / 2
    window = lambda rate, lo, hi, seed: TraceArrivals(
        PeriodicArrivals(rate, seed=seed).times_within(hi - lo, start=lo)
    )
    return [
        Tenant.of(
            "cam",
            "googlenet",
            arrivals=PoissonArrivals(120.0, seed=7),
            slo_s=0.030,
        ),
        Tenant.of(
            "det",
            "vgg19",
            arrivals=window(70.0, 0.0, half, 8),
            slo_s=0.040,
        ),
        Tenant.of(
            "seg",
            "resnet152",
            arrivals=window(70.0, half, HORIZON_S, 9),
            slo_s=0.040,
        ),
    ]


def serve(platform, policy_factory):
    """One replica: a one-shard fleet.  Returns its per-tenant report."""
    fleet = Fleet(
        platform, tenants(), policy_factory, shards=1, max_batch=2
    )
    return fleet.run(horizon_s=HORIZON_S).outcomes[0].report


def main() -> None:
    platform = get_platform(sys.argv[1] if len(sys.argv) > 1 else "xavier")
    scheduler = HaXCoNN(
        platform, max_groups=8, max_transitions=1
    )

    print(f"serving on {platform.name}: cam throughout, det -> seg "
          f"handover at {HORIZON_S / 2 * 1e3:.0f} ms\n")
    report = serve(platform, lambda shard: CachedAnytimePolicy(scheduler))
    print("cache + anytime serving:")
    print(report.describe())

    swaps = [
        (r.index, r.scheduler)
        for k, r in enumerate(report.rounds)
        if k == 0 or report.rounds[k - 1].scheduler != r.scheduler
    ]
    print("\nschedule activations (round, scheduler):")
    for index, name in swaps:
        print(f"  round {index:3d}: {name}")

    gpu_report = serve(
        platform,
        lambda shard: gpu_only_policy(
            platform, db=scheduler.db, max_groups=8
        ),
    )
    print(f"\nGPU-only serving of the same requests: "
          f"p99 {gpu_report.p99_ms:.2f} ms vs "
          f"{report.p99_ms:.2f} ms cache+anytime")


if __name__ == "__main__":
    main()
