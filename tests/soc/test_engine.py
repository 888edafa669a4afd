"""Discrete-event engine: progress, contention, dependencies."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.soc.engine import DeadlockError, Engine, SimTask, max_min_allocate


def task(tid, accel="gpu", compute_ms=1.0, bw_frac=0.0, platform=None, **kw):
    bw = platform.dram_bandwidth if platform else 136.5e9
    compute = compute_ms * 1e-3
    demand = bw_frac * bw
    return SimTask(
        task_id=tid,
        accel=accel,
        compute_s=compute,
        dram_bytes=demand * compute,
        max_bw=demand if demand > 0 else 1.0,
        **kw,
    )


class TestMaxMinAllocate:
    def test_all_satisfied_when_capacity_suffices(self):
        alloc = max_min_allocate({"a": 10.0, "b": 20.0}, 100.0)
        assert alloc == {"a": 10.0, "b": 20.0}

    def test_fair_split_under_pressure(self):
        alloc = max_min_allocate({"a": 80.0, "b": 80.0}, 100.0)
        assert alloc["a"] == pytest.approx(50.0)
        assert alloc["b"] == pytest.approx(50.0)

    def test_small_demand_protected(self):
        alloc = max_min_allocate({"small": 10.0, "big": 200.0}, 100.0)
        assert alloc["small"] == pytest.approx(10.0)
        assert alloc["big"] == pytest.approx(90.0)

    def test_zero_demand_gets_nothing(self):
        alloc = max_min_allocate({"a": 0.0, "b": 50.0}, 100.0)
        assert alloc["a"] == 0.0

    @given(
        demands=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=5),
        capacity=st.floats(1.0, 200.0),
    )
    def test_never_exceeds_capacity_or_demand(self, demands, capacity):
        named = {f"t{i}": d for i, d in enumerate(demands)}
        alloc = max_min_allocate(named, capacity)
        assert sum(alloc.values()) <= capacity + 1e-6
        for k, d in named.items():
            assert alloc[k] <= d + 1e-9


class TestSingleTask:
    def test_compute_bound_duration(self, xavier):
        t = task("solo", compute_ms=2.0, bw_frac=0.1, platform=xavier)
        timeline = Engine(xavier).run([t])
        assert timeline["solo"].duration == pytest.approx(2e-3, rel=1e-6)
        assert timeline["solo"].slowdown == pytest.approx(1.0, rel=1e-6)

    def test_zero_work_task_finishes_instantly(self, xavier):
        t = SimTask(task_id="z", accel="gpu", compute_s=0.0, dram_bytes=0.0, max_bw=1.0)
        timeline = Engine(xavier).run([t])
        assert timeline["z"].duration == pytest.approx(0.0, abs=1e-9)

    def test_release_time_delays_start(self, xavier):
        t = task("late", compute_ms=1.0, platform=xavier, release_time=5e-3)
        timeline = Engine(xavier).run([t])
        assert timeline["late"].start == pytest.approx(5e-3)


class TestContention:
    def test_two_heavy_streams_slow_down(self, xavier):
        a = task("a", "gpu", 4.0, 0.6, xavier)
        b = task("b", "dla", 4.0, 0.6, xavier)
        timeline = Engine(xavier).run([a, b])
        assert timeline["a"].slowdown > 1.1
        assert timeline["b"].slowdown > 1.1

    def test_contention_disabled(self, xavier):
        a = task("a", "gpu", 4.0, 0.6, xavier)
        b = task("b", "dla", 4.0, 0.6, xavier)
        timeline = Engine(xavier, contention=False).run([a, b])
        assert timeline["a"].slowdown == pytest.approx(1.0, rel=1e-6)
        assert timeline["b"].slowdown == pytest.approx(1.0, rel=1e-6)

    def test_light_streams_mostly_unaffected(self, xavier):
        a = task("a", "gpu", 4.0, 0.05, xavier)
        b = task("b", "dla", 4.0, 0.05, xavier)
        timeline = Engine(xavier).run([a, b])
        assert timeline["a"].slowdown < 1.05

    def test_memory_bound_suffers_more_than_compute_bound(self, xavier):
        # memory-hungry task vs pure-compute co-runner
        mem = task("mem", "gpu", 4.0, 0.7, xavier)
        cpu = task("cpu", "dla", 4.0, 0.7, xavier)
        pure = task("pure", "gpu", 4.0, 0.0, xavier)
        t1 = Engine(xavier).run([mem, cpu])
        t2 = Engine(xavier).run([pure, task("cpu", "dla", 4.0, 0.7, xavier)])
        assert t1["mem"].slowdown > t2["pure"].slowdown

    def test_background_bw_slows_memory_tasks(self, xavier):
        t = task("t", "gpu", 4.0, 0.9, xavier)
        base = Engine(xavier).run([t])["t"].duration
        loaded = Engine(xavier, background_bw=0.3 * xavier.dram_bandwidth)
        slowed = loaded.run([task("t", "gpu", 4.0, 0.9, xavier)])["t"].duration
        assert slowed > base

    def test_contention_intervals_recorded(self, xavier):
        a = task("a", "gpu", 2.0, 0.5, xavier)
        b = task("b", "dla", 4.0, 0.5, xavier)
        timeline = Engine(xavier).run([a, b])
        assert timeline.intervals
        # at some point both tasks were active
        assert any(len(i.allocations) == 2 for i in timeline.intervals)


class TestDependencies:
    def test_chain_runs_serially(self, xavier):
        a = task("a", "gpu", 1.0, platform=xavier)
        b = task("b", "gpu", 1.0, platform=xavier, deps=("a",))
        timeline = Engine(xavier).run([a, b])
        assert timeline["b"].start >= timeline["a"].end - 1e-12

    def test_cross_accel_dependency(self, xavier):
        a = task("a", "gpu", 1.0, platform=xavier)
        b = task("b", "dla", 1.0, platform=xavier, deps=("a",))
        timeline = Engine(xavier).run([a, b])
        assert timeline["b"].start >= timeline["a"].end - 1e-12

    def test_same_accel_serializes_without_deps(self, xavier):
        a = task("a", "gpu", 1.0, platform=xavier)
        b = task("b", "gpu", 1.0, platform=xavier)
        timeline = Engine(xavier).run([a, b])
        spans = sorted((timeline[t].start, timeline[t].end) for t in ("a", "b"))
        assert spans[1][0] >= spans[0][1] - 1e-12

    def test_queue_order_respected_when_ready(self, xavier):
        a = task("a", "gpu", 1.0, platform=xavier)
        b = task("b", "gpu", 1.0, platform=xavier)
        timeline = Engine(xavier).run(
            [a, b], queues={"gpu": ["b", "a"]}
        )
        assert timeline["b"].start < timeline["a"].start

    def test_blocked_head_is_skipped(self, xavier):
        """First-ready scheduling: a blocked queue head does not starve
        the accelerator."""
        slow = task("slow", "dla", 5.0, platform=xavier)
        blocked = task("blocked", "gpu", 1.0, platform=xavier, deps=("slow",))
        ready = task("ready", "gpu", 1.0, platform=xavier)
        timeline = Engine(xavier).run(
            [slow, blocked, ready], queues={"dla": ["slow"], "gpu": ["blocked", "ready"]}
        )
        assert timeline["ready"].start == pytest.approx(0.0, abs=1e-9)

    def test_unknown_dep_rejected(self, xavier):
        t = task("a", "gpu", 1.0, platform=xavier, deps=("ghost",))
        with pytest.raises(ValueError):
            Engine(xavier).run([t])

    def test_duplicate_ids_rejected(self, xavier):
        with pytest.raises(ValueError):
            Engine(xavier).run(
                [task("a", platform=xavier), task("a", platform=xavier)]
            )

    def test_unknown_accelerator_rejected(self, xavier):
        with pytest.raises(ValueError):
            Engine(xavier).run(
                [task("a", accel="tpu", platform=xavier)]
            )

    def test_cpu_host_allowed(self, xavier):
        timeline = Engine(xavier).run([task("a", accel="cpu", platform=xavier)])
        assert timeline["a"].end > 0

    def test_deadlock_detected(self, xavier):
        a = task("a", "gpu", 1.0, platform=xavier, deps=("b",))
        b = task("b", "gpu", 1.0, platform=xavier, deps=("a",))
        with pytest.raises(DeadlockError):
            Engine(xavier).run([a, b])

    def test_queue_must_cover_all_tasks(self, xavier):
        a = task("a", "gpu", 1.0, platform=xavier)
        with pytest.raises(ValueError):
            Engine(xavier).run([a], queues={"gpu": []})


class TestValidation:
    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            SimTask(task_id="x", accel="gpu", compute_s=-1.0, dram_bytes=0.0, max_bw=1.0)

    def test_traffic_without_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            SimTask(task_id="x", accel="gpu", compute_s=1.0, dram_bytes=10.0, max_bw=0.0)

    def test_negative_background_rejected(self, xavier):
        with pytest.raises(ValueError):
            Engine(xavier, background_bw=-1.0)

    def test_standalone_duration(self, xavier):
        t = task("t", compute_ms=1.0, bw_frac=0.5, platform=xavier)
        assert t.standalone_s == pytest.approx(1e-3)
