"""Fuzzed scenarios replayed through the sharded serving fleet.

The fuzzer's last promise: a scenario that survives the oracle stack
is a *replayable* serving workload.  Cross-backend byte-identity is
the strong form -- the same scenario driven through ``serve.fleet``
on the serial and fork backends must produce identical per-request
timelines, because everything downstream (solver clock, arrivals,
virtual time) is deterministic.
"""

import multiprocessing

import pytest

from repro.fuzz import generate_scenario, run_oracles
from repro.fuzz.replay import fleet_scenario, serve_scenario


@pytest.fixture(scope="module")
def vetted():
    spec = generate_scenario(2)
    assert run_oracles(spec).ok
    return spec


def _request_tuples(report):
    return [
        (r.tenant, r.arrival_s, r.start_s, r.finish_s)
        for o in report.outcomes
        for r in o.report.requests
    ]


class TestFleetReplay:
    def test_fleet_serves_fuzzed_scenario(self, vetted):
        report = fleet_scenario(vetted, shards=2, horizon_s=0.2)
        assert report.shards == 2
        assert report.served > 0

    def test_cross_backend_byte_identity(self, vetted):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        serial = fleet_scenario(
            vetted, shards=2, backend="serial", horizon_s=0.2
        )
        forked = fleet_scenario(
            vetted, shards=2, backend="fork", horizon_s=0.2
        )
        assert _request_tuples(serial) == _request_tuples(forked)
        assert serial.served == forked.served

    def test_fleet_matches_single_server_tenants(self, vetted):
        single = serve_scenario(vetted, horizon_s=0.2)
        fleet = fleet_scenario(vetted, shards=2, horizon_s=0.2)
        single_tenants = {r.tenant for r in single.requests}
        fleet_tenants = {
            r.tenant
            for o in fleet.outcomes
            for r in o.report.requests
        }
        assert fleet_tenants <= single_tenants
