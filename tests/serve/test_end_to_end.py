"""End-to-end serving acceptance: the three behaviors the serving
layer exists to deliver, all measured by simulator execution.

(a) a repeated tenant mix is served from the schedule cache with zero
    re-solves;
(b) a novel mix starts on a naive schedule and swaps to a better
    incumbent mid-run, visibly shortening the measured round time;
(c) on a GoogleNet-involving changing mix, cache-plus-anytime serving
    is at least as good as GPU-only serving at the measured p99.
"""

import pytest

from repro.core.haxconn import HaXCoNN
from repro.experiments import serving
from repro.serve import CachedAnytimePolicy, Server, Tenant
from repro.serve.requests import PeriodicArrivals
from tests.serve.helpers import drain


@pytest.fixture(scope="module")
def steady_report(xavier, xavier_db):
    """One fixed two-tenant mix under sustained load: the mix repeats
    round after round, so cache behavior and the anytime swap are both
    observable in a single run."""
    scheduler = HaXCoNN(
        xavier, db=xavier_db, max_groups=8, max_transitions=1
    )
    tenants = [
        Tenant.of(
            "det",
            "vgg19",
            arrivals=PeriodicArrivals(70.0),
            slo_s=0.05,
        ),
        Tenant.of(
            "seg",
            "resnet152",
            arrivals=PeriodicArrivals(70.0),
            slo_s=0.05,
        ),
    ]
    policy = CachedAnytimePolicy(scheduler)
    report = drain(Server(xavier, tenants, policy, max_batch=2), horizon_s=0.4)
    return report, policy


class TestRepeatedMixFromCache:
    def test_one_solve_many_rounds(self, steady_report):
        report, policy = steady_report
        assert len(report.rounds) > 5
        # (a): the single recurring mix cost exactly one solver run;
        # every round after convergence toggled out of the cache
        assert policy.solves == 1
        assert policy.cache.hits > 0
        assert policy.stats()["cache_hits"] == policy.cache.hits


class TestAnytimeSwap:
    def test_naive_start_then_incumbent(self, steady_report):
        report, policy = steady_report
        names = [r.scheduler for r in report.rounds]
        # (b): the first round dispatches immediately on a naive start
        assert names[0] in ("gpu-only-start", "naive-start")
        # ... and the run swaps to a solver incumbent mid-stream
        assert "haxconn-incumbent" in names
        assert policy.swaps >= 1
        first_incumbent = names.index("haxconn-incumbent")
        assert first_incumbent > 0

    def test_swap_shortens_measured_rounds(self, steady_report):
        """The incumbent's advantage is real, not predicted: rounds of
        the same shape measure shorter after the swap."""
        report, _ = steady_report
        shape = report.rounds[0].batch

        def full_rounds(scheduler_name):
            return [
                r.duration_s
                for r in report.rounds
                if r.scheduler == scheduler_name and r.batch == shape
            ]

        naive = full_rounds("gpu-only-start") + full_rounds("naive-start")
        incumbent = full_rounds("haxconn-incumbent")
        assert naive and incumbent
        assert min(incumbent) < min(naive)


class TestServingExperiment:
    def test_haxconn_beats_gpu_only_at_the_tail(self):
        """(c) on the changing GoogleNet-involving mix of the serving
        experiment, measured p99 and goodput are no worse than
        GPU-only serving, and misses are no more frequent."""
        rows = {
            str(r["policy"]): r
            for r in serving.run(horizon_s=0.5, max_groups=6)
        }
        hax, gpu = rows["haxconn"], rows["gpu_only"]
        assert float(hax["p99_ms"]) <= float(gpu["p99_ms"])
        assert float(hax["goodput_rps"]) >= float(gpu["goodput_rps"])
        assert float(hax["miss_%"]) <= float(gpu["miss_%"])
        # same request trace, nothing dropped differently
        assert (hax["served"], hax["shed"]) == (
            gpu["served"],
            gpu["shed"],
        )
