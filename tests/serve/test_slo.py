"""SLO accounting: tenant stats, fleet report, trace export."""

import json

import pytest

from repro.runtime.trace import export_chrome_trace
from repro.serve import Tenant, gpu_only_policy
from repro.serve.requests import PeriodicArrivals
from repro.serve.slo import FleetReport, ServedRequest, TenantStats
from tests.serve.helpers import drain


def req(tenant, seq, arrival, finish, *, slo=None):
    return ServedRequest(
        tenant=tenant,
        seq=seq,
        arrival_s=arrival,
        slo_s=slo,
        start_s=arrival,
        finish_s=finish,
        round_index=0,
    )


class TestServedRequest:
    def test_latency(self):
        r = req("a", 0, 1.0, 1.25)
        assert r.latency_s == pytest.approx(0.25)

    def test_slo(self):
        assert req("a", 0, 0.0, 0.02, slo=0.03).met_slo
        assert not req("a", 0, 0.0, 0.05, slo=0.03).met_slo
        assert req("a", 0, 0.0, 0.05).met_slo  # best effort

    def test_rejected_never_meets_slo(self):
        r = ServedRequest(tenant="a", seq=0, arrival_s=0.0, rejected=True)
        assert not r.met_slo
        with pytest.raises(ValueError):
            r.latency_s

    def test_served_needs_instants(self):
        with pytest.raises(ValueError):
            ServedRequest(tenant="a", seq=0, arrival_s=0.0)


class TestTenantStats:
    def sample(self):
        requests = [
            req("a", k, 0.0, finish, slo=0.025)
            for k, finish in enumerate(
                (0.010, 0.020, 0.030, 0.040)
            )
        ] + [
            ServedRequest(tenant="a", seq=4, arrival_s=0.0, rejected=True)
        ]
        return TenantStats.from_requests(
            "a", requests, slo_s=0.025, span_s=0.1
        )

    def test_counts(self):
        st = self.sample()
        assert st.served == 4
        assert st.rejected == 1

    def test_hand_checked_aggregates(self):
        st = self.sample()
        assert st.p50_ms == pytest.approx(25.0)
        assert st.mean_ms == pytest.approx(25.0)
        assert st.miss_rate == pytest.approx(0.5)  # 30 ms and 40 ms miss
        # 2 good completions over a 0.1 s span
        assert st.goodput_rps == pytest.approx(20.0)

    def test_p99_tail(self):
        st = self.sample()
        assert st.p99_ms == pytest.approx(39.7, rel=0.01)


@pytest.fixture(scope="module")
def report(xavier, xavier_db):
    tenants = [
        Tenant.of(
            "cam",
            "googlenet",
            arrivals=PeriodicArrivals(25.0),
            slo_s=0.1,
        ),
        Tenant.of(
            "det",
            "resnet18",
            arrivals=PeriodicArrivals(25.0),
            slo_s=0.1,
        ),
    ]
    policy = gpu_only_policy(xavier, db=xavier_db, max_groups=6)
    return drain(xavier, tenants, policy, max_batch=2, horizon_s=0.2)


class TestFleetReport:
    def test_tenant_stats_partition_requests(self, report):
        stats = report.tenant_stats()
        assert set(stats) == {"cam", "det"}
        assert sum(s.served for s in stats.values()) == len(report.served)

    def test_fleet_percentiles_bound_tenant_percentiles(self, report):
        stats = report.tenant_stats()
        assert (
            min(s.p50_ms for s in stats.values())
            <= report.p50_ms
            <= max(s.p50_ms for s in stats.values())
        )
        assert report.p99_ms >= report.p50_ms

    def test_utilization_bounds(self, report):
        util = report.utilization()
        assert util  # at least the GPU shows up
        assert all(0.0 <= u <= 1.0 for u in util.values())
        # GPU-only serving leaves the DLA idle
        gpu = [u for a, u in util.items() if "gpu" in a.lower()]
        assert gpu and gpu[0] > 0.0

    def test_span_covers_rounds(self, report):
        assert report.span_s == pytest.approx(
            max(r.end_s for r in report.rounds)
        )
        for r in report.served:
            assert r.finish_s <= report.span_s + 1e-12

    def test_merged_timeline_offsets_rounds(self, report):
        merged = report.merged_timeline()
        assert len(merged.records) == sum(
            len(r.timeline.records) for r in report.rounds
        )
        # every record is stamped with its round and sits inside it
        for rec in merged.records:
            rnd = report.rounds[int(rec.task_id.split(":")[0][1:])]
            assert rec.task_id.startswith("r")
            assert rec.start >= rnd.start_s - 1e-12
            assert rec.end <= rnd.end_s + 1e-9

    def test_chrome_trace_export(self, report, tmp_path):
        path = export_chrome_trace(
            report.merged_timeline(), tmp_path / "serve.json"
        )
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert events
        assert {e["ph"] for e in events} <= {"X", "C", "M"}

    def test_describe_mentions_everyone(self, report):
        text = report.describe()
        assert "cam" in text and "det" in text
        assert "fleet:" in text and "policy:" in text

    def test_empty_report(self):
        empty = FleetReport(
            [], [], tenant_slos={"a": None}, policy_stats={}
        )
        assert empty.span_s == 0.0
        assert empty.miss_rate == 0.0
        assert empty.goodput_rps == 0.0
        assert empty.utilization() == {}
