"""Seeded inputs of the three workloads.

Every input is a pure function of the workload seed.  The program under
test receives only what these functions return.

``solve-cold``
    The pinned catalogue in ``expected.json`` (two seeded draws per
    platform x objective x stream-count class, optimum enumerated
    offline for every stream order).  The seed shuffles the solve order
    and the stream order inside each mix.
``serve-shift`` / ``serve-warm``
    A two-shard tenant population on xavier: two always-on camera
    tenants (periodic arrivals, seeded jitter) and four tenants that
    join and leave in seeded windows (Poisson arrivals inside each
    window, capped by a token bucket that sheds).  Window lengths are
    spread so the balanced router's placement is the same for every
    seed; the seed moves arrival instants and window edges.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from perfbench import common

#: virtual serving horizon (seconds) of one fleet run
HORIZON_S = 3.2
#: the windowed tier's token bucket: sustained admitted rate and burst
WINDOW_RATE_HZ = 40.0
WINDOW_BURST = 4
#: how far (share of the horizon) the seed moves each window edge
WINDOW_JITTER = 0.02


@dataclass(frozen=True)
class ColdScenario:
    platform: str
    models: tuple[str, ...]
    objective: str
    max_groups: int
    max_transitions: int
    #: optimum of this stream order, enumerated by ``solver.exhaustive``
    optimum: float
    space: int

    @property
    def name(self) -> str:
        return f"{self.platform}/{self.objective}/{'+'.join(self.models)}"

    def workload(self):
        from repro.core.workload import Workload

        return Workload.concurrent(*self.models, objective=self.objective)


def catalogue() -> list[dict]:
    return json.loads(common.EXPECTED.read_text())["scenarios"]


def cold_inputs(seed: int) -> list[ColdScenario]:
    """The catalogue in seeded order, each mix's streams shuffled."""
    rng = random.Random(f"solve-cold/{seed}")
    scenarios = []
    for row in catalogue():
        models = list(row["models"])
        rng.shuffle(models)
        scenarios.append(
            ColdScenario(
                platform=row["platform"],
                models=tuple(models),
                objective=row["objective"],
                max_groups=int(row["max_groups"]),
                max_transitions=int(row["max_transitions"]),
                optimum=float(row["optima"]["+".join(models)]),
                space=int(row["space"]),
            )
        )
    rng.shuffle(scenarios)
    return scenarios


#: always-on tenants: (name, model, periodic rate Hz, SLO s)
CAMERAS = (
    ("cam0", "googlenet", 150.0, 0.025),
    ("cam1", "resnet18", 103.0, 0.025),
)
#: windowed tenants: (name, model, Poisson rate Hz, SLO s, windows as
#: shares of the horizon).  Admitted weights (bucket-capped) are spread
#: so the balanced router puts cam0+cls+pose on one shard and
#: cam1+det+seg on the other for every seed.
WINDOWED = (
    ("det", "vgg19", 100.0, 0.080, ((0.00, 0.90),)),
    ("seg", "resnet152", 100.0, 0.080, ((0.25, 1.00),)),
    ("cls", "resnet50", 100.0, 0.060, ((0.10, 0.46),)),
    ("pose", "resnet101", 100.0, 0.060, ((0.60, 0.80),)),
)


@dataclass(frozen=True)
class Population:
    tenants: tuple
    admission: object
    horizon_s: float

    def models(self) -> tuple[str, ...]:
        return tuple(sorted({m for t in self.tenants for m in t.models}))


def serve_population(seed: int) -> Population:
    from repro.serve.requests import (
        PeriodicArrivals,
        PoissonArrivals,
        Tenant,
        TraceArrivals,
    )
    from repro.serve.slo import AdmissionConfig, TierConfig

    rng = random.Random(f"serve/{seed}")
    tenants = []
    for name, model, rate, slo in CAMERAS:
        arrivals = PeriodicArrivals(
            rate, jitter_frac=0.3, seed=rng.randrange(2**31)
        )
        tenants.append(
            Tenant.of(name, model, arrivals=arrivals, slo_s=slo, priority=1)
        )
    for name, model, rate, slo, windows in WINDOWED:
        times: list[float] = []
        for lo, hi in windows:
            lo = min(max(lo + rng.uniform(-WINDOW_JITTER, WINDOW_JITTER), 0.0), 1.0)
            hi = min(max(hi + rng.uniform(-WINDOW_JITTER, WINDOW_JITTER), lo), 1.0)
            process = PoissonArrivals(rate, seed=rng.randrange(2**31))
            times.extend(
                process.times_within(
                    (hi - lo) * HORIZON_S, start=lo * HORIZON_S
                )
            )
        tenants.append(
            Tenant.of(
                name,
                model,
                arrivals=TraceArrivals(tuple(times)),
                slo_s=slo,
                priority=2,
            )
        )
    admission = AdmissionConfig(
        tiers=(
            TierConfig(priority=1, depth_cap=4),
            TierConfig(
                priority=2,
                rate_hz=WINDOW_RATE_HZ,
                burst=WINDOW_BURST,
                depth_cap=3,
            ),
        )
    )
    return Population(tuple(tenants), admission, HORIZON_S)
