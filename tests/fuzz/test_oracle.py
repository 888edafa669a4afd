"""The differential oracle stack on live scenarios."""

from __future__ import annotations

import pytest

from repro.fuzz.oracle import run_oracles
from repro.fuzz.universe import ScenarioSpec, TenantSpec, generate_scenario


@pytest.mark.parametrize("seed", [0, 2, 5, 7])
def test_generated_scenarios_pass(seed):
    outcome = run_oracles(generate_scenario(seed))
    assert outcome.ok, [d.describe() for d in outcome.discrepancies]
    assert "solver-certificate" in outcome.checks
    assert "portfolio-agreement" in outcome.checks
    assert "schedule-certificate" in outcome.checks
    assert "evaluate-byte-identity" in outcome.checks
    assert "baseline-dominance" in outcome.checks


def test_frontier_check_reaches_lockstep(monkeypatch):
    """The frontier-byte-identity check runs the lockstep engine on
    every non-pipeline scenario, however narrow its search space: with
    the dispatcher's lockstep path shut off, every ``_lockstep`` call
    comes from the check itself."""
    from repro.core import frontier

    monkeypatch.setattr(frontier, "MIN_LOCKSTEP", 10**9)
    lockstep = frontier._lockstep
    calls = []

    def recording(engine, keys, *args):
        calls.append(len(keys))
        return lockstep(engine, keys, *args)

    monkeypatch.setattr(frontier, "_lockstep", recording)
    checked = 0
    for seed in range(20):
        spec = generate_scenario(seed)
        before = len(calls)
        outcome = run_oracles(spec)
        assert outcome.ok, [d.describe() for d in outcome.discrepancies]
        if spec.workload().pipeline:
            continue
        checked += 1
        assert "frontier-byte-identity" in outcome.checks
        assert len(calls) == before + 1, seed
    assert checked >= 15


def test_small_instances_get_the_exhaustive_oracle():
    spec = generate_scenario(2)
    outcome = run_oracles(spec)
    assert outcome.search_space > 1
    assert "exhaustive-agreement" in outcome.checks
    capped = run_oracles(spec, exhaustive_cap=0)
    assert "exhaustive-agreement" not in capped.checks
    assert capped.ok


def test_transformer_on_npu_platform():
    """Attention groups land on programmable engines on matcha."""
    spec = ScenarioSpec(
        seed=424242,
        platform="matcha",
        objective="latency",
        max_groups=4,
        tenants=(
            TenantSpec(model="vit_tiny"),
            TenantSpec(model="resnet18"),
        ),
    )
    outcome = run_oracles(spec)
    assert outcome.ok, [d.describe() for d in outcome.discrepancies]
    # fixed-function engines cannot execute matmul: the vit stream's
    # assignment may only use gpu/npu
    vit_assignment = outcome.assignments[0]
    assert set(vit_assignment) <= {"gpu", "npu"}


def test_outcome_payload_is_canonical():
    spec = generate_scenario(3)
    a = run_oracles(spec).to_dict()
    b = run_oracles(spec).to_dict()
    assert a == b
    assert a["spec"] == spec.to_dict()

