"""Seeded scenario universe for the differential fuzzer.

A :class:`ScenarioSpec` is one point in the widened evaluation space:
``(platform, workload mix, tenant SLOs, arrival process)``.  Every
field is derived from ``random.Random(seed)`` in a fixed draw order,
so the same seed is the same scenario on every machine and every run
-- the property the byte-identity acceptance check rides on.

The universe deliberately spans what the CNN-era scenario zoo never
touched: the transformer entry (``vit_tiny``, MatMul/softmax-heavy
groups the fixed-function DSAs cannot execute), the >2-DSA platforms
(``trident``, ``matcha`` with its NPU core grid), pipelines,
throughput/energy objectives, and per-tenant SLOs + arrival processes
so every surviving scenario doubles as a serving workload.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.workload import Workload, WorkloadDNN
from repro.soc.platform import get_platform

#: modeled SoCs the generator draws from; >2-DSA platforms are listed
#: twice as often so the widened space is actually exercised
PLATFORM_POOL: tuple[str, ...] = (
    "orin",
    "xavier",
    "sd865",
    "trident",
    "matcha",
    "trident",
    "matcha",
)

#: zoo entries cheap enough to profile-and-solve by the hundreds; the
#: transformer appears twice so attention-bearing mixes are common
MODEL_POOL: tuple[str, ...] = (
    "alexnet",
    "resnet18",
    "googlenet",
    "mobilenet_v1",
    "vit_tiny",
    "vit_tiny",
)

#: ordering used by the shrinker: earlier = simpler
MODEL_SIMPLICITY: tuple[str, ...] = (
    "alexnet",
    "mobilenet_v1",
    "resnet18",
    "vit_tiny",
    "googlenet",
)

OBJECTIVES: tuple[str, ...] = ("latency", "throughput", "energy")
ARRIVAL_KINDS: tuple[str, ...] = ("poisson", "periodic", "bursty")


@dataclass(frozen=True)
class TenantSpec:
    """One stream of the scenario: model, demand, and service terms."""

    model: str
    repeats: int = 1
    rate_hz: float = 30.0
    slo_ms: float | None = None
    arrivals: str = "poisson"

    def to_dict(self) -> dict[str, object]:
        return {
            "model": self.model,
            "repeats": self.repeats,
            "rate_hz": self.rate_hz,
            "slo_ms": self.slo_ms,
            "arrivals": self.arrivals,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "TenantSpec":
        slo = payload.get("slo_ms")
        return cls(
            model=str(payload["model"]),
            repeats=int(payload.get("repeats", 1)),  # type: ignore[arg-type]
            rate_hz=float(payload.get("rate_hz", 30.0)),  # type: ignore[arg-type]
            slo_ms=None if slo is None else float(slo),  # type: ignore[arg-type]
            arrivals=str(payload.get("arrivals", "poisson")),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully determined fuzz scenario, JSON round-trippable."""

    seed: int
    platform: str
    objective: str
    max_groups: int
    tenants: tuple[TenantSpec, ...]
    #: (upstream, downstream) stream-index pairs (Scenario-3 style)
    pipeline: tuple[tuple[int, int], ...] = ()

    @property
    def models(self) -> tuple[str, ...]:
        return tuple(t.model for t in self.tenants)

    @property
    def name(self) -> str:
        mix = "+".join(self.models)
        return f"seed{self.seed}:{self.platform}:{self.objective}:{mix}"

    def workload(self) -> Workload:
        """Materialize the scheduling workload for this scenario."""
        seen: dict[str, int] = {}
        dnns = []
        for t in self.tenants:
            count = seen.get(t.model, 0)
            seen[t.model] = count + 1
            dnns.append(
                WorkloadDNN(
                    models=(t.model,), repeats=t.repeats, instance=count
                )
            )
        return Workload(
            dnns=tuple(dnns),
            objective=self.objective,
            pipeline=self.pipeline,
        )

    # -- persistence ---------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return {
            "seed": self.seed,
            "platform": self.platform,
            "objective": self.objective,
            "max_groups": self.max_groups,
            "tenants": [t.to_dict() for t in self.tenants],
            "pipeline": [list(edge) for edge in self.pipeline],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "ScenarioSpec":
        tenants = payload.get("tenants", [])
        assert isinstance(tenants, list)
        pipeline = payload.get("pipeline", [])
        assert isinstance(pipeline, list)
        return cls(
            seed=int(payload["seed"]),  # type: ignore[arg-type]
            platform=str(payload["platform"]),
            objective=str(payload["objective"]),
            max_groups=int(payload["max_groups"]),  # type: ignore[arg-type]
            tenants=tuple(TenantSpec.from_dict(t) for t in tenants),
            pipeline=tuple(
                (int(edge[0]), int(edge[1])) for edge in pipeline
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioSpec":
        return cls.from_json(Path(path).read_text())

    def with_tenants(
        self, tenants: tuple[TenantSpec, ...]
    ) -> "ScenarioSpec":
        return replace(self, tenants=tenants)


def platform_width(name: str) -> int:
    """Number of DSAs on ``name`` (cheap: uncalibrated construction)."""
    return len(get_platform(name, calibrated=False).accelerators)


def generate_scenario(seed: int) -> ScenarioSpec:
    """The scenario for ``seed``: same seed, same scenario, always.

    Draw order is fixed and every draw comes from one
    ``random.Random(seed)``; never reorder or remove draws (that would
    silently remap every existing corpus seed).
    """
    rng = random.Random(seed)
    platform = rng.choice(PLATFORM_POOL)
    width = platform_width(platform)
    n_streams = 2 if width <= 2 else rng.choice((2, 2, 3))
    objective = rng.choice(OBJECTIVES)
    max_groups = rng.choice((3, 4))

    tenants = []
    for _ in range(n_streams):
        model = rng.choice(MODEL_POOL)
        repeats = rng.choice((1, 1, 1, 2))
        rate_hz = float(rng.randrange(10, 61, 5))
        slo_ms = (
            None
            if rng.random() < 0.5
            else float(rng.randrange(20, 201, 10))
        )
        arrivals = rng.choice(ARRIVAL_KINDS)
        tenants.append(
            TenantSpec(
                model=model,
                repeats=repeats,
                rate_hz=rate_hz,
                slo_ms=slo_ms,
                arrivals=arrivals,
            )
        )

    pipeline: tuple[tuple[int, int], ...] = ()
    if n_streams == 2 and rng.random() < 0.2:
        # Scenario-3 style producer/consumer chain; equal repeats keep
        # the steady state well-defined
        pipeline = ((0, 1),)
        frames = tenants[0].repeats
        tenants = [replace(t, repeats=frames) for t in tenants]

    return ScenarioSpec(
        seed=seed,
        platform=platform,
        objective=objective,
        max_groups=max_groups,
        tenants=tuple(tenants),
        pipeline=pipeline,
    )
