"""Fuzzed scenarios replayed through the sharded serving fleet.

The fuzzer's last promise: a scenario that survives the oracle stack
is a *replayable* serving workload.
"""

import pytest

from repro.fuzz import generate_scenario, run_oracles
from repro.fuzz.replay import fleet_scenario


@pytest.fixture(scope="module")
def vetted():
    spec = generate_scenario(2)
    assert run_oracles(spec).ok
    return spec


class TestFleetReplay:
    def test_fleet_serves_fuzzed_scenario(self, vetted):
        report = fleet_scenario(vetted, shards=2, horizon_s=0.2)
        assert report.shards == 2
        assert report.served > 0

    def test_fleet_matches_single_server_tenants(self, vetted):
        [single] = fleet_scenario(vetted, shards=1, horizon_s=0.2).outcomes
        fleet = fleet_scenario(vetted, shards=2, horizon_s=0.2)
        single_tenants = {r.tenant for r in single.report.requests}
        fleet_tenants = {
            r.tenant
            for o in fleet.outcomes
            for r in o.report.requests
        }
        assert fleet_tenants <= single_tenants
