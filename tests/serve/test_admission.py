"""SLO-aware admission: priority tiers, deterministic shed accounting.

Every admission decision consumes virtual-time inputs only (arrival
instants, queue depths, simulator-measured latency estimates), so a
trace replayed through the same config must admit and shed the exact
same request set -- any number of times.
"""

import pytest

from repro.serve import Tenant, gpu_only_policy
from repro.serve.requests import PeriodicArrivals, TraceArrivals
from repro.serve.slo import (
    SHED_DEPTH,
    SHED_RATE,
    SHED_SLACK,
    AdmissionConfig,
    AdmissionController,
    TierConfig,
    admitted_request_count,
)
from tests.serve.helpers import drain


class TestTierValidation:
    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError, match="rate_hz"):
            TierConfig(priority=1, rate_hz=0.0)

    def test_burst_at_least_one(self):
        with pytest.raises(ValueError, match="burst"):
            TierConfig(priority=1, burst=0)

    def test_depth_cap_at_least_one(self):
        with pytest.raises(ValueError, match="depth_cap"):
            TierConfig(priority=1, depth_cap=0)

    def test_slack_must_be_positive(self):
        with pytest.raises(ValueError, match="slack_factor"):
            TierConfig(priority=1, slack_factor=-1.0)

    def test_duplicate_priorities(self):
        with pytest.raises(ValueError, match="duplicate tier"):
            AdmissionConfig(
                tiers=(TierConfig(priority=1), TierConfig(priority=1))
            )

    def test_tier_for_maps_priority(self):
        low, high = TierConfig(priority=1), TierConfig(priority=2)
        cfg = AdmissionConfig(tiers=(low, high))
        assert cfg.tier_for(1) is low
        assert cfg.tier_for(2) is high
        assert cfg.tier_for(3) is None


def _decide_all(controller, times, **overrides):
    kwargs = dict(
        tenant="cam",
        priority=1,
        queue_depth=0,
        slo_s=None,
        est_latency_s=None,
    )
    kwargs.update(overrides)
    return [
        controller.decide(arrival_s=t, **kwargs) for t in times
    ]


class TestController:
    #: 1 Hz bucket, burst 2: two instant admits, refill pays for the
    #: 1.5 s and 3.0 s arrivals, the 0.2 s one finds 0.2 tokens
    TRACE = (0.0, 0.1, 0.2, 1.5, 3.0)

    def _rate_config(self):
        return AdmissionConfig(
            tiers=(TierConfig(priority=1, rate_hz=1.0, burst=2),)
        )

    def test_token_bucket_pattern_is_pinned(self):
        controller = AdmissionController(self._rate_config())
        assert _decide_all(controller, self.TRACE) == [
            None,
            None,
            SHED_RATE,
            None,
            None,
        ]

    def test_replay_is_byte_identical(self):
        runs = [
            _decide_all(
                AdmissionController(self._rate_config()), self.TRACE
            )
            for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_unmapped_priority_admits_everything(self):
        controller = AdmissionController(self._rate_config())
        decisions = _decide_all(controller, self.TRACE, priority=2)
        assert decisions == [None] * len(self.TRACE)
        assert controller.admitted == len(self.TRACE)

    def test_depth_cap_reason(self):
        cfg = AdmissionConfig(
            tiers=(TierConfig(priority=1, depth_cap=2),)
        )
        controller = AdmissionController(cfg)
        assert _decide_all(controller, (0.0,), queue_depth=1) == [None]
        assert _decide_all(controller, (0.1,), queue_depth=2) == [
            SHED_DEPTH
        ]

    def test_slack_reason_is_slo_budget(self):
        cfg = AdmissionConfig(
            tiers=(TierConfig(priority=1, slack_factor=2.0),)
        )
        controller = AdmissionController(cfg)
        # estimate within 2x the SLO budget: admitted
        assert _decide_all(
            controller, (0.0,), slo_s=0.1, est_latency_s=0.15
        ) == [None]
        # estimate blows the budget: shed with the slack reason
        assert _decide_all(
            controller, (0.1,), slo_s=0.1, est_latency_s=0.25
        ) == [SHED_SLACK]
        # no measured estimate yet: nothing to judge, admit
        assert _decide_all(
            controller, (0.2,), slo_s=0.1, est_latency_s=None
        ) == [None]

    def test_rate_outranks_depth(self):
        cfg = AdmissionConfig(
            tiers=(
                TierConfig(
                    priority=1, rate_hz=1.0, burst=1, depth_cap=1
                ),
            )
        )
        controller = AdmissionController(cfg)
        # bucket drained AND depth exceeded: reason is the first check
        _decide_all(controller, (0.0,))
        assert _decide_all(controller, (0.01,), queue_depth=5) == [
            SHED_RATE
        ]

    def test_stats_accounting(self):
        controller = AdmissionController(self._rate_config())
        _decide_all(controller, self.TRACE)
        assert controller.stats() == {
            "admitted": 4,
            "shed": 1,
            "shed_rate": 1,
        }

    def test_router_prepass_matches_controller(self):
        cfg = self._rate_config()
        live = AdmissionController(cfg)
        admitted = sum(
            1 for d in _decide_all(live, self.TRACE) if d is None
        )
        assert admitted_request_count(cfg, 1, self.TRACE) == admitted
        # no config admits everything
        assert admitted_request_count(None, 1, self.TRACE) == len(
            self.TRACE
        )


def tiered_tenants():
    """A capped background tenant and an uncapped priority tenant."""
    return [
        Tenant.of(
            "bulk",
            "googlenet",
            arrivals=PeriodicArrivals(40.0),
            slo_s=0.1,
            priority=1,
        ),
        Tenant.of(
            "vip",
            "resnet18",
            arrivals=PeriodicArrivals(40.0),
            slo_s=0.1,
            priority=2,
        ),
    ]


def tiered_config():
    return AdmissionConfig(
        tiers=(TierConfig(priority=1, rate_hz=15.0, burst=1),)
    )


class TestServerIntegration:
    def _serve(self, xavier, xavier_db, *, admission):
        return drain(
            xavier,
            tiered_tenants(),
            gpu_only_policy(xavier, db=xavier_db, max_groups=6),
            admission=admission,
            horizon_s=0.2,
        )

    def test_tiers_shed_only_the_capped_priority(
        self, xavier, xavier_db
    ):
        report = self._serve(
            xavier, xavier_db, admission=tiered_config()
        )
        shed = [r for r in report.requests if r.rejected]
        assert shed, "rate tier never intervened"
        assert {r.tenant for r in shed} == {"bulk"}
        assert {r.shed_reason for r in shed} == {SHED_RATE}
        # the uncapped priority tenant is served in full
        stats = report.tenant_stats()
        assert stats["vip"].rejected == 0
        assert stats["vip"].served == 8

    def test_report_carries_admission_stats(self, xavier, xavier_db):
        report = self._serve(
            xavier, xavier_db, admission=tiered_config()
        )
        assert report.admission_stats is not None
        assert report.admission_stats["admitted"] == len(report.served)
        assert report.admission_stats["shed"] == len(report.rejected)
        assert "admission:" in report.describe()

    def test_no_config_keeps_legacy_report(self, xavier, xavier_db):
        report = self._serve(xavier, xavier_db, admission=None)
        assert report.admission_stats is None
        assert "admission:" not in report.describe()

    def test_admit_deny_sequence_replays(self, xavier, xavier_db):
        runs = [
            self._serve(xavier, xavier_db, admission=tiered_config())
            for _ in range(2)
        ]
        key = lambda rep: [  # noqa: E731
            (r.tenant, r.seq, r.rejected, r.shed_reason, r.finish_s)
            for r in rep.requests
        ]
        assert key(runs[0]) == key(runs[1])

    def test_virtual_time_only(self, xavier, xavier_db):
        """Identical arrival *instants* on a different trace object
        shed identically: no wall-clock input reaches admission."""
        times = tuple(k / 40.0 for k in range(8))
        tenants = [
            Tenant.of(
                "bulk",
                "googlenet",
                arrivals=TraceArrivals(times),
                slo_s=0.1,
                priority=1,
            )
        ]
        cfg = tiered_config()
        reports = [
            drain(
                xavier,
                tenants,
                gpu_only_policy(xavier, db=xavier_db, max_groups=6),
                admission=cfg,
                horizon_s=0.2,
            )
            for _ in range(2)
        ]
        shed = [
            tuple(r.seq for r in rep.requests if r.rejected)
            for rep in reports
        ]
        assert shed[0] == shed[1]
        assert shed[0], "trace never shed"


class TestFleetAdmission:
    def test_fleet_aggregates_shard_stats(self, xavier, xavier_db):
        from repro.serve import CachedAnytimePolicy
        from repro.core.haxconn import HaXCoNN
        from repro.serve.fleet import Fleet

        def factory(shard_id):
            return CachedAnytimePolicy(
                HaXCoNN(
                    xavier,
                    db=xavier_db,
                    max_groups=4,
                    max_transitions=1,
                    solver="portfolio",
                    solver_clock="nodes",
                    node_budget=300,
                ),
                update_points=(0.002, 0.01, 0.05),
            )

        fleet = Fleet(
            xavier,
            tiered_tenants(),
            factory,
            shards=2,
            sync_rounds=4,
            admission=tiered_config(),
        )
        report = fleet.run(horizon_s=0.2)
        totals = report.admission_totals()
        assert totals["shed"] > 0
        assert totals["admitted"] == report.served
        assert report.shed == totals["shed"]
