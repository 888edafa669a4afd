"""The event-driven serving loop: admission, dispatch, back-pressure."""

import pytest

from repro.serve import Server, Tenant, gpu_only_policy, naive_policy
from repro.serve.requests import PeriodicArrivals, TraceArrivals
from repro.serve.slo import SHED_DEPTH, AdmissionConfig, TierConfig
from tests.serve.helpers import drain


def slow_pair():
    """Two tenants at a rate one GPU comfortably sustains."""
    return [
        Tenant.of(
            "cam",
            "googlenet",
            arrivals=PeriodicArrivals(20.0),
            slo_s=0.1,
        ),
        Tenant.of(
            "det",
            "resnet18",
            arrivals=PeriodicArrivals(20.0),
            slo_s=0.1,
        ),
    ]


@pytest.fixture(scope="module")
def light_report(xavier, xavier_db):
    policy = gpu_only_policy(xavier, db=xavier_db, max_groups=6)
    return drain(
        Server(xavier, slow_pair(), policy, max_batch=2),
        horizon_s=0.2,
    )


class TestRun:
    def test_every_request_accounted(self, light_report):
        # 20 Hz x 0.2 s x 2 tenants, nothing shed under no back-pressure
        assert len(light_report.requests) == 8
        assert len(light_report.served) == 8
        assert not light_report.rejected

    def test_rounds_cover_served_requests(self, light_report):
        assert sum(
            sum(r.batch) for r in light_report.rounds
        ) == len(light_report.served)
        for rnd in light_report.rounds:
            assert rnd.end_s > rnd.start_s
            assert len(rnd.batch) == len(rnd.tenants)

    def test_virtual_time_is_monotone(self, light_report):
        starts = [r.start_s for r in light_report.rounds]
        assert starts == sorted(starts)
        for a, b in zip(light_report.rounds, light_report.rounds[1:]):
            assert b.start_s >= a.end_s - 1e-12

    def test_served_after_arrival(self, light_report):
        for r in light_report.served:
            assert r.start_s >= r.arrival_s - 1e-12
            assert r.finish_s > r.start_s

    def test_deterministic(self, xavier, xavier_db):
        runs = [
            drain(
                Server(
                    xavier,
                    slow_pair(),
                    gpu_only_policy(xavier, db=xavier_db, max_groups=6),
                    max_batch=2,
                ),
                horizon_s=0.2,
            )
            for _ in range(2)
        ]
        assert [
            (r.tenant, r.seq, r.finish_s) for r in runs[0].served
        ] == [(r.tenant, r.seq, r.finish_s) for r in runs[1].served]


class TestBackPressure:
    def test_overload_queues(self, xavier, xavier_db):
        """Arrivals far above capacity: later requests wait, latency
        climbs monotonically within the trace."""
        tenants = [
            Tenant.of(
                "burst",
                "vgg19",
                arrivals=TraceArrivals(tuple(k * 1e-3 for k in range(10))),
            )
        ]
        report = drain(
            Server(
                xavier,
                tenants,
                gpu_only_policy(xavier, db=xavier_db, max_groups=6),
            ),
            horizon_s=0.02,
        )
        lats = [r.latency_s for r in report.served]
        assert len(lats) == 10
        assert lats[-1] > lats[0] * 2

    def test_max_queue_depth_sheds(self, xavier, xavier_db):
        tenants = [
            Tenant.of(
                "burst",
                "vgg19",
                arrivals=TraceArrivals(tuple(k * 1e-4 for k in range(12))),
            )
        ]
        policy = gpu_only_policy(xavier, db=xavier_db, max_groups=6)
        admission = AdmissionConfig(
            tiers=(TierConfig(priority=1, depth_cap=2),)
        )
        report = drain(
            Server(xavier, tenants, policy, admission=admission),
            horizon_s=0.02,
        )
        assert len(report.rejected) > 0
        assert (
            len(report.served) + len(report.rejected) == 12
        )
        assert {r.shed_reason for r in report.rejected} == {SHED_DEPTH}
        assert report.admission_stats["shed_depth"] == len(report.rejected)
        assert "rejected" not in report.policy_stats

    def test_batching_caps_per_round(self, xavier, xavier_db):
        tenants = [
            Tenant.of(
                "burst",
                "googlenet",
                arrivals=TraceArrivals(tuple(k * 1e-4 for k in range(9))),
            )
        ]
        report = drain(
            Server(
                xavier,
                tenants,
                gpu_only_policy(xavier, db=xavier_db, max_groups=6),
                max_batch=4,
            ),
            horizon_s=0.01,
        )
        assert all(max(r.batch) <= 4 for r in report.rounds)
        assert any(max(r.batch) > 1 for r in report.rounds)


class TestMixes:
    def test_active_mix_changes_over_run(self, xavier, xavier_db):
        """det only arrives in the first half: later rounds serve cam
        alone, so the round mixes change."""
        half = (0.0, 0.01, 0.02, 0.03)
        tenants = [
            Tenant.of(
                "cam",
                "googlenet",
                arrivals=PeriodicArrivals(50.0),
            ),
            Tenant.of("det", "resnet18", arrivals=TraceArrivals(half)),
        ]
        report = drain(
            Server(
                xavier,
                tenants,
                naive_policy(xavier, db=xavier_db, max_groups=6),
            ),
            horizon_s=0.2,
        )
        mixes = {r.tenants for r in report.rounds}
        assert ("cam",) in mixes
        assert any(len(m) == 2 for m in mixes)

    def test_duplicate_models_get_instances(self, xavier, xavier_db):
        """Two tenants serving the same model co-run as distinct
        workload instances."""
        tenants = [
            Tenant.of(
                "a",
                "googlenet",
                arrivals=TraceArrivals((0.0, 0.001)),
            ),
            Tenant.of(
                "b",
                "googlenet",
                arrivals=TraceArrivals((0.0, 0.001)),
            ),
        ]
        report = drain(
            Server(
                xavier,
                tenants,
                gpu_only_policy(xavier, db=xavier_db, max_groups=6),
                max_batch=2,
            ),
            horizon_s=0.01,
        )
        assert len(report.served) == 4
        assert {r.tenant for r in report.served} == {"a", "b"}


class TestValidation:
    def test_needs_tenants(self, xavier):
        with pytest.raises(ValueError):
            Server(xavier, [], gpu_only_policy(xavier))

    def test_duplicate_tenant_names(self, xavier):
        with pytest.raises(ValueError):
            Server(
                xavier,
                [Tenant.of("a", "googlenet"), Tenant.of("a", "resnet18")],
                gpu_only_policy(xavier),
            )

    def test_max_batch_positive(self, xavier):
        with pytest.raises(ValueError):
            Server(
                xavier,
                [Tenant.of("a", "googlenet")],
                gpu_only_policy(xavier),
                max_batch=0,
            )

    def test_run_rounds_limit_stops_early(self, xavier, xavier_db):
        server = Server(
            xavier,
            slow_pair(),
            gpu_only_policy(xavier, db=xavier_db, max_groups=6),
        )
        session = server.session(horizon_s=0.2)
        assert session.run_rounds(2) == 2
        assert not session.finished
        assert len(session.report().rounds) == 2
