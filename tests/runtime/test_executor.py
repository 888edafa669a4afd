"""Schedule lowering and ground-truth execution."""

import copy
import dataclasses

import pytest

from repro.core.baselines import gpu_only, naive_concurrent
from repro.core.haxconn import HaXCoNN
from repro.core.workload import Workload
from repro.runtime.executor import (
    _queues_from_prediction,
    build_tasks,
    run_schedule,
)
from repro.soc.engine import Engine


@pytest.fixture(scope="module")
def scheduler(xavier, xavier_db):
    return HaXCoNN(xavier, db=xavier_db, max_groups=6, max_transitions=1)


@pytest.fixture(scope="module")
def workload():
    return Workload.concurrent("googlenet", "resnet101", objective="latency")


@pytest.fixture(scope="module")
def hax_result(scheduler, workload):
    return scheduler.schedule(workload)


class TestBuildTasks:
    def test_one_task_per_group_plus_transitions(
        self, hax_result, xavier
    ):
        tasks = build_tasks(
            hax_result.schedule,
            hax_result.formulation.profiles,
            (1, 1),
            xavier,
        )
        groups = [t for t in tasks if t.meta["role"] == "group"]
        trans = [t for t in tasks if t.meta["role"] in ("flush", "load")]
        expected_groups = sum(
            len(p) for p in hax_result.formulation.profiles
        )
        assert len(groups) == expected_groups
        assert len(trans) == 2 * hax_result.schedule.total_transitions

    def test_stream_chain_dependencies(self, hax_result, xavier):
        tasks = build_tasks(
            hax_result.schedule,
            hax_result.formulation.profiles,
            (1, 1),
            xavier,
        )
        by_id = {t.task_id: t for t in tasks}
        for t in tasks:
            if t.meta["role"] != "group" or t.meta["group"] == 0:
                continue
            assert t.deps, f"{t.task_id} has no predecessor"
            for d in t.deps:
                assert by_id[d].meta["dnn"] == t.meta["dnn"]

    def test_repeats_multiply_tasks(self, hax_result, xavier):
        single = build_tasks(
            hax_result.schedule,
            hax_result.formulation.profiles,
            (1, 1),
            xavier,
        )
        double = build_tasks(
            hax_result.schedule,
            hax_result.formulation.profiles,
            (2, 2),
            xavier,
        )
        groups = lambda ts: sum(1 for t in ts if t.meta["role"] == "group")
        assert groups(double) == 2 * groups(single)

    def test_pipeline_dependency_added(self, scheduler, xavier):
        workload = Workload.concurrent(
            "googlenet", "resnet18", objective="throughput"
        )
        result = scheduler.schedule(workload)
        tasks = build_tasks(
            result.schedule,
            result.formulation.profiles,
            (1, 1),
            xavier,
            pipeline=((0, 1),),
        )
        head = next(
            t
            for t in tasks
            if t.meta["role"] == "group"
            and t.meta["dnn"] == 1
            and t.meta["group"] == 0
        )
        upstream_last = [
            t.task_id
            for t in tasks
            if t.meta["dnn"] == 0 and t.meta["role"] == "group"
        ][-1]
        assert upstream_last in head.deps

    def test_serialized_chains_streams(self, scheduler, workload, xavier):
        result = gpu_only(workload, xavier, db=scheduler.db, max_groups=6)
        tasks = build_tasks(
            result.schedule,
            result.formulation.profiles,
            (1, 1),
            xavier,
        )
        head2 = next(
            t
            for t in tasks
            if t.meta["dnn"] == 1 and t.meta["group"] == 0
        )
        assert any("d0" in d for d in head2.deps)

    def test_mismatched_schedule_rejected(self, hax_result, xavier):
        with pytest.raises(ValueError):
            build_tasks(
                hax_result.schedule,
                hax_result.formulation.profiles[:1],
                (1,),
                xavier,
            )


class TestRunSchedule:
    def test_single_stream_matches_standalone(self, scheduler, xavier):
        workload = Workload.concurrent("resnet18", objective="latency")
        result = gpu_only(workload, xavier, db=scheduler.db, max_groups=6)
        execution = run_schedule(result, xavier)
        standalone = result.formulation.profiles[0].total_time("gpu")
        assert execution.makespan_s == pytest.approx(standalone, rel=0.01)

    def test_prediction_tracks_measurement(self, hax_result, xavier):
        """HaX-CoNN's cost model predicts the simulator to a few %."""
        execution = run_schedule(hax_result, xavier)
        predicted = hax_result.predicted.makespan
        assert execution.makespan_s == pytest.approx(predicted, rel=0.10)

    def test_contention_slows_corun(self, scheduler, workload, xavier):
        result = naive_concurrent(
            workload, xavier, db=scheduler.db, max_groups=6
        )
        with_contention = run_schedule(result, xavier)
        without = run_schedule(result, xavier, contention=False)
        assert with_contention.makespan_s > without.makespan_s

    def test_stream_slowdown_at_least_one(self, scheduler, workload, xavier):
        result = naive_concurrent(
            workload, xavier, db=scheduler.db, max_groups=6
        )
        execution = run_schedule(result, xavier)
        assert execution.stream_slowdown(0) >= 1.0 - 1e-9

    def test_fps_inverse_of_latency(self, hax_result, xavier):
        execution = run_schedule(hax_result, xavier)
        assert execution.fps(1) == pytest.approx(
            1e3 / execution.latency_ms
        )

    def test_background_bw_increases_latency(
        self, scheduler, workload, xavier
    ):
        result = naive_concurrent(
            workload, xavier, db=scheduler.db, max_groups=6
        )
        base = run_schedule(result, xavier)
        loaded = run_schedule(
            result, xavier, background_bw=0.3 * xavier.dram_bandwidth
        )
        assert loaded.latency_ms > base.latency_ms

    def test_stream_times_within_makespan(self, hax_result, xavier):
        execution = run_schedule(hax_result, xavier)
        for n in range(2):
            assert execution.stream_time(n) <= execution.makespan_s + 1e-12


class TestRoundMemo:
    """``run_schedule`` simulates each distinct round once per result."""

    @pytest.fixture
    def fresh(self, hax_result):
        # a replace()d copy starts with an empty memo
        return dataclasses.replace(hax_result)

    def test_replace_and_copy_start_empty(self, hax_result, xavier):
        run_schedule(hax_result, xavier)
        assert hax_result._executions
        assert dataclasses.replace(hax_result)._executions == {}
        assert copy.copy(hax_result)._executions == {}

    def test_hit_returns_identical_object(self, fresh, xavier):
        first = run_schedule(fresh, xavier)
        assert run_schedule(fresh, xavier) is first
        # equal inputs in another spelling normalize to the same key
        assert (
            run_schedule(
                fresh,
                xavier,
                repeats=list(fresh.formulation.repeats),
                pipeline=[],
            )
            is first
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"repeats": (2, 1)},
            {"contention": False},
            {"background_bw": 1e9},
            {"pipeline": ((0, 1),)},
        ],
        ids=["repeats", "contention", "background_bw", "pipeline"],
    )
    def test_different_round_misses(self, fresh, xavier, kwargs):
        base = run_schedule(fresh, xavier)
        other = run_schedule(fresh, xavier, **kwargs)
        assert other is not base
        assert run_schedule(fresh, xavier, **kwargs) is other

    def test_platform_variant_misses(self, fresh, xavier):
        base = run_schedule(fresh, xavier)
        variant = dataclasses.replace(xavier)
        assert run_schedule(fresh, variant) is not base

    def test_replaced_result_misses(self, fresh, xavier):
        base = run_schedule(fresh, xavier)
        assert run_schedule(dataclasses.replace(fresh), xavier) is not base

    @pytest.mark.parametrize(
        "repeats, pipeline, contention, bg_frac",
        [
            (None, None, True, 0.0),
            ((2, 3), None, True, 0.0),
            ((2, 2), ((0, 1),), True, 0.0),
            ((1, 2), None, False, 0.0),
            (None, None, True, 0.3),
        ],
    )
    def test_memoized_matches_fresh_engine_run(
        self, fresh, xavier, repeats, pipeline, contention, bg_frac
    ):
        background_bw = bg_frac * xavier.dram_bandwidth
        kwargs = dict(
            repeats=repeats,
            pipeline=pipeline,
            contention=contention,
            background_bw=background_bw,
        )
        run_schedule(fresh, xavier, **kwargs)
        memoized = run_schedule(fresh, xavier, **kwargs).timeline
        tasks = build_tasks(
            fresh.schedule,
            fresh.formulation.profiles,
            repeats or fresh.formulation.repeats,
            xavier,
            pipeline=pipeline or (),
        )
        timeline = Engine(
            xavier, contention=contention, background_bw=background_bw
        ).run(tasks, _queues_from_prediction(tasks, fresh))
        assert memoized.records == timeline.records
        assert memoized.intervals == timeline.intervals
