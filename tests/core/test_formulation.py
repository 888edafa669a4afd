"""The Section 3.4 cost model: timelines, contention, objectives."""

import pytest

from repro.contention.analytic import AnalyticShareModel
from repro.contention.base import NoContentionModel
from repro.core.formulation import Formulation, ScheduleInfeasible


@pytest.fixture(scope="module")
def profiles(xavier_db):
    return (
        xavier_db.profile("googlenet", max_groups=8),
        xavier_db.profile("resnet101", max_groups=8),
    )


def make_formulation(profiles, xavier, objective="latency", **kw):
    model = kw.pop("contention_model", AnalyticShareModel(xavier))
    return Formulation(profiles, kw.pop("repeats", (1, 1)), objective, model, **kw)


def all_on(profile, accel):
    return tuple(accel for _ in range(len(profile)))


def gpu_with_fallback(profile, target):
    return tuple(
        target if target in g.time_s else "gpu" for g in profile.groups
    )


class TestSingleStream:
    def test_standalone_equals_group_sum(self, profiles, xavier):
        form = Formulation(
            profiles[:1], (1,), "latency", NoContentionModel()
        )
        assignment = all_on(profiles[0], "gpu")
        result = form.evaluate([assignment])
        assert result.makespan == pytest.approx(
            profiles[0].total_time("gpu"), rel=1e-9
        )

    def test_transition_adds_cost(self, profiles, xavier):
        form = Formulation(profiles[:1], (1,), "latency", NoContentionModel())
        plain = form.evaluate([all_on(profiles[0], "gpu")]).makespan
        split = gpu_with_fallback(profiles[0], "dla")
        # force one transition boundary by mixing accelerators
        if len(set(split)) > 1:
            with_split = form.evaluate([split]).makespan
            gpu_t = profiles[0].total_time("gpu")
            assert with_split != pytest.approx(plain) or gpu_t == plain

    def test_transitions_excluded_when_disabled(self, profiles):
        with_t = Formulation(
            profiles[:1], (1,), "latency", NoContentionModel(),
            include_transitions=True,
        )
        without_t = Formulation(
            profiles[:1], (1,), "latency", NoContentionModel(),
            include_transitions=False,
        )
        split = gpu_with_fallback(profiles[0], "dla")
        assert without_t.evaluate([split]).makespan < with_t.evaluate(
            [split]
        ).makespan

    def test_repeats_scale_time(self, profiles):
        single = Formulation(
            profiles[:1], (1,), "latency", NoContentionModel()
        )
        triple = Formulation(
            profiles[:1], (3,), "latency", NoContentionModel()
        )
        a = all_on(profiles[0], "gpu")
        assert triple.evaluate([a]).makespan == pytest.approx(
            3 * single.evaluate([a]).makespan, rel=1e-9
        )


class TestConcurrent:
    def test_contention_stretches_execution(self, profiles, xavier):
        assignments = [
            all_on(profiles[0], "gpu"),
            gpu_with_fallback(profiles[1], "dla"),
        ]
        aware = make_formulation(profiles, xavier)
        blind = make_formulation(
            profiles, xavier, contention_model=NoContentionModel()
        )
        assert (
            aware.evaluate(assignments).makespan
            > blind.evaluate(assignments).makespan
        )

    def test_items_cover_all_groups(self, profiles, xavier):
        form = make_formulation(profiles, xavier)
        assignments = [
            all_on(profiles[0], "gpu"),
            gpu_with_fallback(profiles[1], "dla"),
        ]
        result = form.evaluate(assignments)
        assert len(result.items) == len(profiles[0]) + len(profiles[1])

    def test_slowdowns_at_least_one(self, profiles, xavier):
        form = make_formulation(profiles, xavier)
        result = form.evaluate(
            [all_on(profiles[0], "gpu"), gpu_with_fallback(profiles[1], "dla")]
        )
        for item in result.items:
            assert item.slowdown >= 1.0 - 1e-9

    def test_mean_slowdown(self, profiles, xavier):
        form = make_formulation(profiles, xavier)
        result = form.evaluate(
            [all_on(profiles[0], "gpu"), gpu_with_fallback(profiles[1], "dla")]
        )
        assert result.mean_slowdown(0) >= 1.0

    def test_queueing_serializes_shared_accelerator(self, profiles, xavier):
        """Resource-constrained timeline: both streams all-GPU must
        take at least the sum of their standalone times."""
        form = make_formulation(profiles, xavier)
        result = form.evaluate(
            [all_on(profiles[0], "gpu"), all_on(profiles[1], "gpu")],
        )
        floor = profiles[0].total_time("gpu") + profiles[1].total_time("gpu")
        assert result.makespan >= floor * 0.999

    def test_chain_timeline_overlaps_and_eq9_rejects(self, profiles, xavier):
        """Without resource constraints the naive chain timeline
        double-books the GPU; Eq. 9 must reject it."""
        form = make_formulation(
            profiles, xavier, resource_constrained=False
        )
        with pytest.raises(ScheduleInfeasible):
            form.evaluate(
                [all_on(profiles[0], "gpu"), all_on(profiles[1], "gpu")]
            )

    def test_chain_timeline_disjoint_accels_ok(self, profiles, xavier):
        form = make_formulation(
            profiles, xavier, resource_constrained=False
        )
        result = form.evaluate(
            [all_on(profiles[0], "gpu"), gpu_with_fallback(profiles[1], "dla")],
        )
        assert result.makespan > 0

    def test_unsupported_assignment_rejected(self, profiles, xavier):
        form = make_formulation(profiles, xavier)
        with pytest.raises(ScheduleInfeasible):
            form.evaluate(
                [all_on(profiles[0], "dla"), all_on(profiles[1], "gpu")]
            )

    def test_wrong_assignment_length_rejected(self, profiles, xavier):
        form = make_formulation(profiles, xavier)
        with pytest.raises(ValueError):
            form.evaluate([("gpu",), all_on(profiles[1], "gpu")])


class TestSerialized:
    def test_streams_chain_back_to_back(self, profiles, xavier):
        form = make_formulation(profiles, xavier)
        result = form.evaluate(
            [all_on(profiles[0], "gpu"), all_on(profiles[1], "gpu")],
            serialized=True,
        )
        assert result.makespan == pytest.approx(
            profiles[0].total_time("gpu") + profiles[1].total_time("gpu"),
            rel=1e-9,
        )
        # no contention when serialized
        assert all(i.slowdown == 1.0 for i in result.items)

    def test_per_dnn_times_ordered(self, profiles, xavier):
        form = make_formulation(profiles, xavier)
        result = form.evaluate(
            [all_on(profiles[0], "gpu"), all_on(profiles[1], "gpu")],
            serialized=True,
        )
        assert result.per_dnn_time[0] < result.per_dnn_time[1]


class TestObjectives:
    def test_latency_is_max_stream_time(self, profiles, xavier):
        form = make_formulation(profiles, xavier, objective="latency")
        result = form.evaluate(
            [all_on(profiles[0], "gpu"), gpu_with_fallback(profiles[1], "dla")]
        )
        assert result.objective == pytest.approx(max(result.per_dnn_time))

    def test_throughput_is_negative_rate(self, profiles, xavier):
        form = make_formulation(profiles, xavier, objective="throughput")
        result = form.evaluate(
            [all_on(profiles[0], "gpu"), gpu_with_fallback(profiles[1], "dla")]
        )
        assert result.objective == pytest.approx(-2 / result.makespan)

    def test_invalid_objective_rejected(self, profiles, xavier):
        with pytest.raises(ValueError):
            Formulation(profiles, (1, 1), "energy", NoContentionModel())


class TestBounds:
    def test_chain_time_admissible(self, profiles, xavier):
        """The contention-free chain never exceeds the evaluated time."""
        form = make_formulation(profiles, xavier)
        assignments = [
            all_on(profiles[0], "gpu"),
            gpu_with_fallback(profiles[1], "dla"),
        ]
        result = form.evaluate(assignments)
        for n, a in enumerate(assignments):
            assert form.chain_time(n, a) <= result.per_dnn_time[n] + 1e-9

    def test_chain_time_inf_for_unsupported(self, profiles, xavier):
        form = make_formulation(profiles, xavier)
        assert form.chain_time(0, all_on(profiles[0], "dla")) == float("inf")

    def test_busy_times_sum_to_chain_without_transitions(
        self, profiles, xavier
    ):
        form = make_formulation(profiles, xavier)
        a = all_on(profiles[0], "gpu")
        busy = form.busy_times(0, a)
        assert set(busy) == {"gpu"}
        assert busy["gpu"] == pytest.approx(profiles[0].total_time("gpu"))

    def test_busy_times_scale_with_repeats(self, profiles, xavier):
        form = make_formulation(profiles, xavier, repeats=(2, 1))
        a = all_on(profiles[0], "gpu")
        assert form.busy_times(0, a)["gpu"] == pytest.approx(
            2 * profiles[0].total_time("gpu")
        )


class TestValidation:
    def test_profile_repeat_mismatch(self, profiles):
        with pytest.raises(ValueError):
            Formulation(profiles, (1,), "latency", NoContentionModel())
