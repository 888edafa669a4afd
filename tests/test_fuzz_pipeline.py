"""End-to-end fuzz pipeline through the :mod:`repro.fuzz` subsystem.

The original version of this module fuzzed synthetic DNN graphs
through fusion/grouping/profiling in isolation (those properties now
live in ``tests/dnn/test_synth.py``).  Since the scenario-universe
fuzzer exists, the pipeline-level test is the real thing: seeded
scenario -> differential oracle stack -> serving replay, with the
campaign digest certifying that the whole chain is deterministic.
"""

from __future__ import annotations

import pytest

from repro.fuzz import generate_scenario, run_campaign, run_oracles
from repro.fuzz.replay import fleet_scenario, tenants_for


def serve_one_replica(spec, *, horizon_s):
    """The scenario served by one replica: a one-shard fleet."""
    [outcome] = fleet_scenario(spec, shards=1, horizon_s=horizon_s).outcomes
    return outcome.report


class TestScenarioPipeline:
    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_oracle_stack_end_to_end(self, seed):
        """Generate -> profile -> solve -> verify -> cross-check."""
        spec = generate_scenario(seed)
        outcome = run_oracles(spec)
        assert outcome.ok, [d.describe() for d in outcome.discrepancies]
        # the adopted schedule is real: one assignment per stream,
        # every engine drawn from the scenario's platform
        assert len(outcome.assignments) == len(spec.tenants)

    def test_campaign_is_byte_identical(self):
        a = run_campaign(range(6))
        b = run_campaign(range(6))
        assert a.ok
        assert a.digest == b.digest

    def test_surviving_scenario_serves(self):
        """A vetted scenario replays through the serving loop."""
        spec = generate_scenario(2)
        assert run_oracles(spec).ok
        tenants = tenants_for(spec)
        assert len(tenants) == len(spec.tenants)
        report = serve_one_replica(spec, horizon_s=0.2)
        assert len(report.requests) > 0
        served_tenants = {r.tenant for r in report.requests}
        assert served_tenants <= {t.name for t in tenants}

    def test_serving_replay_is_deterministic(self):
        spec = generate_scenario(2)
        a = serve_one_replica(spec, horizon_s=0.15)
        b = serve_one_replica(spec, horizon_s=0.15)
        assert [
            (r.tenant, r.arrival_s, r.start_s, r.finish_s)
            for r in a.requests
        ] == [
            (r.tenant, r.arrival_s, r.start_s, r.finish_s)
            for r in b.requests
        ]
