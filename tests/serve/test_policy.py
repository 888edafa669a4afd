"""Serving policies: memoization, cache + anytime solving."""

import pytest

from repro.core.haxconn import FALLBACK_MARGIN, HaXCoNN
from repro.core.workload import Workload
from repro.runtime.executor import run_schedule
from repro.serve.policy import (
    CachedAnytimePolicy,
    gpu_only_policy,
    naive_policy,
)


@pytest.fixture(scope="module")
def scheduler(xavier, xavier_db):
    return HaXCoNN(xavier, db=xavier_db, max_groups=6, max_transitions=1)


@pytest.fixture(scope="module")
def workload():
    return Workload.concurrent("googlenet", "resnet18", objective="latency")


class TestAdmission:
    def test_unbounded_by_default(self):
        """Policies take no part in admission: shedding is the
        admission controller's alone, so a policy has no admit hook
        and no shed counter."""
        policy = gpu_only_policy("xavier")
        assert not hasattr(policy, "admit")
        assert policy.stats() == {"policy": "gpu-only", "solves": 0}


class TestStaticPolicy:
    def test_solves_once_per_mix(self, xavier, xavier_db, workload):
        policy = naive_policy(xavier, db=xavier_db, max_groups=6)
        first = policy.result_for(workload, 0.0)
        again = policy.result_for(workload, 1.0)
        assert first is again
        assert policy.solves == 1
        other = Workload.concurrent("googlenet", "resnet50")
        policy.result_for(other, 0.0)
        assert policy.solves == 2

    def test_gpu_only_is_serialized(self, xavier, xavier_db, workload):
        policy = gpu_only_policy(xavier, db=xavier_db, max_groups=6)
        result = policy.result_for(workload, 0.0)
        assert result.schedule.serialized
        assert run_schedule(result, xavier).latency_ms > 0

    def test_naive_is_concurrent(self, xavier, xavier_db, workload):
        policy = naive_policy(xavier, db=xavier_db, max_groups=6)
        result = policy.result_for(workload, 0.0)
        assert not result.schedule.serialized


class TestCachedAnytime:
    def test_novel_mix_starts_naive_then_converges(
        self, scheduler, workload
    ):
        policy = CachedAnytimePolicy(scheduler)
        first = policy.result_for(workload, 0.0)
        assert first.schedule.meta["scheduler"] in (
            "gpu-only-start",
            "naive-start",
        )
        assert policy.solves == 1
        # well past every update point: the phase has converged and the
        # final schedule is at least as good as the naive start
        final = policy.result_for(workload, 1e6)
        assert policy.solves == 1  # the one solve covered the phase
        assert (
            final.predicted.objective
            <= first.predicted.objective + 1e-12
        )

    def test_converged_mix_is_served_from_cache(self, scheduler, workload):
        policy = CachedAnytimePolicy(scheduler)
        policy.result_for(workload, 0.0)
        final = policy.result_for(workload, 1e6)
        assert workload in policy.cache
        hits_before = policy.cache.hits
        again = policy.result_for(workload, 0.0)
        assert policy.cache.hits == hits_before + 1
        assert policy.solves == 1
        assert [s.assignment for s in again.schedule] == [
            s.assignment for s in final.schedule
        ]

    def test_preseeded_cache_means_zero_solves(self, scheduler, workload):
        policy = CachedAnytimePolicy(scheduler)
        policy.cache.precompute([workload])
        policy.result_for(workload, 0.0)
        assert policy.solves == 0
        assert policy.cache.hits == 1

    def test_cache_hit_computes_one_signature(
        self, scheduler, workload, monkeypatch
    ):
        import repro.core.schedule_cache as schedule_cache
        import repro.serve.policy as policy_module

        policy = CachedAnytimePolicy(scheduler)
        policy.cache.precompute([workload])
        calls = []
        real = schedule_cache.workload_signature

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(schedule_cache, "workload_signature", counting)
        monkeypatch.setattr(policy_module, "workload_signature", counting)
        first = policy.result_for(workload, 0.0)
        assert policy.result_for(workload, 0.0) is first
        assert len(calls) == 2  # one per round
        assert policy.cache.hits == 2

    def test_swap_plan_is_monotone(self, scheduler, workload):
        """Candidates activate in time order with strictly improving
        predicted objectives -- a swap is only ever an upgrade."""
        policy = CachedAnytimePolicy(scheduler)
        phase = policy._solve_anytime(workload)
        times = [t for t, _ in phase.candidates]
        objectives = [
            r.predicted.objective for _, r in phase.candidates
        ]
        assert times == sorted(times)
        assert times[0] == 0.0
        assert all(b < a for a, b in zip(objectives, objectives[1:]))
        assert phase.final_available_s >= times[-1]

    def test_swaps_counted(self, scheduler, workload):
        policy = CachedAnytimePolicy(scheduler)
        policy.result_for(workload, 0.0)
        policy.result_for(workload, 1e6)
        phase = policy._solve_anytime(workload)
        assert policy.swaps == len(phase.candidates) - 1
        assert policy.stats()["swaps"] == policy.swaps

    def test_validation(self, scheduler):
        with pytest.raises(ValueError):
            CachedAnytimePolicy(scheduler, update_points=(0.0, 1.0))

    def test_naive_start_respects_fallback_margin(
        self, scheduler, workload, xavier, xavier_db
    ):
        """The start schedule is concurrent only when predicted (under
        the contention-aware formulation) to beat the serialized
        baseline by more than the model's error band."""
        from repro.core.baselines import gpu_only

        formulation, _ = scheduler.build_formulation(workload)
        start = CachedAnytimePolicy(scheduler)._planner._best_naive(
            workload, formulation
        )
        assert start.schedule.meta["scheduler"] in (
            "gpu-only-start",
            "naive-start",
        )
        serial_base = gpu_only(
            workload, xavier, db=xavier_db, max_groups=scheduler.max_groups
        )
        serial = scheduler.result_from_assignments(
            workload,
            formulation,
            [s.assignment for s in serial_base.schedule],
            scheduler_name="gpu-only-start",
            serialized=True,
        )
        margin = FALLBACK_MARGIN * abs(
            serial.predicted.objective
        )
        if start.schedule.serialized:
            assert start.predicted.objective == pytest.approx(
                serial.predicted.objective
            )
        else:
            assert (
                start.predicted.objective
                <= serial.predicted.objective - margin
            )
