"""Timeline queries over engine traces."""

import pytest

from repro.soc.timeline import ContentionInterval, TaskRecord, Timeline


def record(tid, accel, start, end, standalone=None, **meta):
    return TaskRecord(
        task_id=tid,
        accel=accel,
        start=start,
        end=end,
        standalone_s=standalone if standalone is not None else end - start,
        meta=meta,
    )


@pytest.fixture
def timeline():
    return Timeline(
        records=[
            record("a0", "gpu", 0.0, 1.0, standalone=0.8, dnn=0, role="group"),
            record("a1", "gpu", 1.0, 2.0, standalone=1.0, dnn=0, role="group"),
            record("b0", "dla", 0.0, 2.5, standalone=2.0, dnn=1, role="group"),
        ],
        intervals=[
            ContentionInterval(0.0, 1.0, {"a0": 50e9, "b0": 30e9}),
            ContentionInterval(1.0, 2.0, {"a1": 40e9, "b0": 30e9}),
            ContentionInterval(2.0, 2.5, {"b0": 55e9}),
        ],
    )


class TestTaskRecord:
    def test_duration(self):
        assert record("x", "gpu", 1.0, 3.0).duration == 2.0

    def test_slowdown(self):
        r = record("x", "gpu", 0.0, 2.0, standalone=1.0)
        assert r.slowdown == pytest.approx(2.0)

    def test_slowdown_degenerate(self):
        r = record("x", "gpu", 0.0, 2.0, standalone=0.0)
        assert r.slowdown == 1.0


class TestTimelineQueries:
    def test_lookup(self, timeline):
        assert timeline["a0"].accel == "gpu"
        assert "b0" in timeline
        assert "nope" not in timeline
        assert len(timeline) == 3

    def test_makespan(self, timeline):
        assert timeline.makespan == pytest.approx(2.5)

    def test_select_by_meta(self, timeline):
        assert {r.task_id for r in timeline.select(dnn=0)} == {"a0", "a1"}
        assert timeline.select(dnn=2) == []

    def test_span(self, timeline):
        assert timeline.span(dnn=0) == pytest.approx(2.0)
        assert timeline.span(dnn=9) == 0.0

    def test_completion(self, timeline):
        assert timeline.completion(dnn=0) == pytest.approx(2.0)
        assert timeline.completion(dnn=1) == pytest.approx(2.5)

    def test_completion_index_equals_select(self, timeline):
        queries = [
            {},
            {"dnn": 0},
            {"dnn": 1},
            {"dnn": 9},
            {"role": "group", "dnn": 0},
            {"dnn": 0, "role": "load"},
            {"missing": None},
        ]
        for meta in queries * 2:  # second pass reads the built index
            selected = timeline.select(**meta)
            expected = max((r.end for r in selected), default=0.0)
            assert timeline.completion(**meta) == expected

    def test_completion_index_not_pickled(self, timeline):
        import pickle

        timeline.completion(dnn=0)
        clone = pickle.loads(pickle.dumps(timeline))
        assert clone._completions == {}
        assert clone.completion(dnn=1) == timeline.completion(dnn=1)

    def test_busy_time_and_utilization(self, timeline):
        assert timeline.busy_time("gpu") == pytest.approx(2.0)
        assert timeline.utilization("gpu") == pytest.approx(2.0 / 2.5)
        assert timeline.utilization("dla") == pytest.approx(1.0)

    def test_mean_slowdown_weighted(self, timeline):
        # dnn 0: durations (1.0, 1.0) vs standalone (0.8, 1.0)
        assert timeline.mean_slowdown(dnn=0) == pytest.approx(2.0 / 1.8)

    def test_records_sorted_by_start(self, timeline):
        starts = [r.start for r in timeline.records]
        assert starts == sorted(starts)


class TestContentionInterval:
    def test_duration_and_total(self, timeline):
        interval = timeline.intervals[0]
        assert interval.duration == pytest.approx(1.0)
        assert interval.total_bandwidth == pytest.approx(80e9)

    def test_empty_timeline(self):
        t = Timeline([], [])
        assert t.makespan == 0.0
        assert t.mean_slowdown() == 1.0
