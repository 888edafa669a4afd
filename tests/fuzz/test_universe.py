"""Scenario generation: determinism, round-trips, coverage."""

from __future__ import annotations

import json

import pytest

from repro.fuzz.universe import (
    ARRIVAL_KINDS,
    MODEL_POOL,
    OBJECTIVES,
    PLATFORM_POOL,
    ScenarioSpec,
    TenantSpec,
    generate_scenario,
    platform_width,
)

SEEDS = range(40)


@pytest.mark.parametrize("seed", [0, 3, 11, 29])
def test_same_seed_same_scenario(seed):
    assert generate_scenario(seed) == generate_scenario(seed)


def test_json_round_trip():
    for seed in SEEDS:
        spec = generate_scenario(seed)
        assert ScenarioSpec.from_json(json.dumps(spec.to_dict())) == spec


def test_fields_stay_in_the_declared_universe():
    for seed in SEEDS:
        spec = generate_scenario(seed)
        assert spec.platform in PLATFORM_POOL
        assert spec.objective in OBJECTIVES
        assert 2 <= len(spec.tenants) <= 3
        for t in spec.tenants:
            assert t.model in MODEL_POOL
            assert t.arrivals in ARRIVAL_KINDS
            assert t.repeats >= 1
            assert t.rate_hz > 0
            assert t.slo_ms is None or t.slo_ms > 0
        for up, down in spec.pipeline:
            assert 0 <= up < len(spec.tenants)
            assert 0 <= down < len(spec.tenants)


def test_universe_is_actually_widened():
    """The new axes (transformers, >2-DSA, 3 streams) must appear."""
    transformer = wide = triple = pipelined = 0
    for seed in range(80):
        spec = generate_scenario(seed)
        if "vit_tiny" in spec.models:
            transformer += 1
        if platform_width(spec.platform) > 2:
            wide += 1
        if len(spec.tenants) == 3:
            triple += 1
        if spec.pipeline:
            pipelined += 1
    assert transformer >= 20
    assert wide >= 20
    assert triple >= 5
    assert pipelined >= 3


def test_wide_stream_counts_need_wide_platforms():
    """3-stream mixes only appear on >2-DSA platforms."""
    for seed in range(80):
        spec = generate_scenario(seed)
        if len(spec.tenants) == 3:
            assert platform_width(spec.platform) > 2


def test_workload_materialization():
    for seed in range(20):
        spec = generate_scenario(seed)
        workload = spec.workload()
        assert len(workload.dnns) == len(spec.tenants)
        assert workload.objective == spec.objective
        # duplicate models must get distinct instances
        seen = set()
        for dnn in workload.dnns:
            key = (dnn.models, dnn.instance)
            assert key not in seen
            seen.add(key)


def test_tenant_spec_round_trip():
    t = TenantSpec(
        model="vit_tiny",
        repeats=2,
        rate_hz=45.0,
        slo_ms=90.0,
        arrivals="bursty",
    )
    assert TenantSpec.from_dict(t.to_dict()) == t
