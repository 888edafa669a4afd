"""Engine corner cases beyond the core behaviour tests."""

import pytest

from repro.soc.engine import BandwidthExhaustedError, Engine, SimTask


def task(tid, accel, compute_ms, demand_frac, platform, **kw):
    bw = platform.dram_bandwidth
    compute = compute_ms * 1e-3
    demand = demand_frac * bw
    return SimTask(
        task_id=tid,
        accel=accel,
        compute_s=compute,
        dram_bytes=demand * compute,
        max_bw=demand if demand > 0 else 1.0,
        **kw,
    )


class TestThreeClients:
    def test_third_client_worsens_both(self, xavier):
        pair = [
            task("a", "gpu", 4.0, 0.5, xavier),
            task("b", "dla", 4.0, 0.4, xavier),
        ]
        two = Engine(xavier).run(pair)
        trio = Engine(xavier).run(
            pair + [task("c", "cpu", 4.0, 0.3, xavier)]
        )
        assert trio["a"].slowdown > two["a"].slowdown
        assert trio["b"].slowdown > two["b"].slowdown


class TestPureMemoryTask:
    def test_zero_compute_memory_stream(self, xavier):
        bw = 0.5 * xavier.dram_bandwidth
        t = SimTask(
            task_id="m",
            accel="gpu",
            compute_s=0.0,
            dram_bytes=bw * 2e-3,
            max_bw=bw,
        )
        timeline = Engine(xavier).run([t])
        assert timeline["m"].duration == pytest.approx(2e-3, rel=1e-6)

    def test_memory_stream_slows_under_corun(self, xavier):
        bw = 0.6 * xavier.dram_bandwidth
        mem = SimTask(
            task_id="m",
            accel="gpu",
            compute_s=0.0,
            dram_bytes=bw * 2e-3,
            max_bw=bw,
        )
        other = task("o", "dla", 4.0, 0.6, xavier)
        timeline = Engine(xavier).run([mem, other])
        assert timeline["m"].slowdown > 1.1


class TestIntervalAccounting:
    def test_intervals_partition_busy_time(self, xavier):
        tasks = [
            task("a", "gpu", 2.0, 0.5, xavier),
            task("b", "dla", 3.0, 0.4, xavier),
        ]
        timeline = Engine(xavier).run(tasks)
        # intervals tile [0, makespan] without gaps or overlaps
        assert timeline.intervals[0].start == pytest.approx(0.0)
        for a, b in zip(timeline.intervals, timeline.intervals[1:]):
            assert b.start == pytest.approx(a.end, abs=1e-12)
        assert timeline.intervals[-1].end == pytest.approx(
            timeline.makespan
        )

    def test_interval_bandwidth_within_capacity(self, xavier):
        tasks = [
            task("a", "gpu", 2.0, 0.9, xavier),
            task("b", "dla", 2.0, 0.9, xavier),
        ]
        timeline = Engine(xavier).run(tasks)
        for interval in timeline.intervals:
            n = len(interval.allocations)
            assert interval.total_bandwidth <= xavier.emc_capacity(n) + 1.0


class TestReleaseAndDeps:
    def test_release_after_dep_completion(self, xavier):
        a = task("a", "gpu", 1.0, 0.0, xavier)
        b = task(
            "b", "gpu", 1.0, 0.0, xavier,
            deps=("a",), release_time=5e-3,
        )
        timeline = Engine(xavier).run([a, b])
        # both conditions must hold: dep done AND released
        assert timeline["b"].start == pytest.approx(5e-3)

    def test_dep_after_release(self, xavier):
        a = task("a", "gpu", 3.0, 0.0, xavier)
        b = task(
            "b", "dla", 1.0, 0.0, xavier,
            deps=("a",), release_time=1e-3,
        )
        timeline = Engine(xavier).run([a, b])
        assert timeline["b"].start >= timeline["a"].end - 1e-12


class TestHeavyBackground:
    """Background traffic so heavy that the interference model leaves
    a memory-bound task no bandwidth used to yield tasks that ended
    before they started (negative makespan); now it raises."""

    def pair(self, xavier, demand_frac=0.5):
        return [
            task("a", "gpu", 4.0, demand_frac, xavier),
            task("b", "dla", 4.0, 0.8 * demand_frac, xavier),
        ]

    @pytest.mark.parametrize("load", [0.9, 0.97, 0.99])
    def test_exhausted_bandwidth_raises(self, xavier, load):
        engine = Engine(xavier, background_bw=load * xavier.dram_bandwidth)
        with pytest.raises(BandwidthExhaustedError):
            engine.run(self.pair(xavier))
        assert issubclass(BandwidthExhaustedError, ValueError)

    @pytest.mark.parametrize("load", [0.0, 0.3, 0.5])
    def test_tasks_never_end_before_they_start(self, xavier, load):
        timeline = Engine(
            xavier, background_bw=load * xavier.dram_bandwidth
        ).run(self.pair(xavier))
        assert timeline.makespan > 0
        for r in timeline.records:
            assert r.end >= r.start

    def test_compute_only_tasks_ignore_background(self, xavier):
        timeline = Engine(
            xavier, background_bw=0.99 * xavier.dram_bandwidth
        ).run(self.pair(xavier, demand_frac=0.0))
        assert timeline["a"].duration == pytest.approx(4e-3)
