"""The HaX-CoNN scheduler: search space, optimality, fallback."""

import pytest

from repro.core.haxconn import HaXCoNN, enumerate_assignments
from repro.core.workload import Workload
from repro.solver.exhaustive import solve_exhaustive


@pytest.fixture(scope="module")
def scheduler(xavier, xavier_db):
    return HaXCoNN(
        xavier, db=xavier_db, max_groups=6, max_transitions=1
    )


@pytest.fixture(scope="module")
def pair_workload():
    return Workload.concurrent("googlenet", "resnet101", objective="latency")


class TestEnumerateAssignments:
    def test_counts_without_restrictions(self, xavier_db, xavier):
        profile = xavier_db.profile("resnet101", max_groups=6)
        # resnet101 has no DLA-unsupported kinds except the softmax tail
        domain0 = enumerate_assignments(
            profile, ("gpu", "dla"), max_transitions=0
        )
        domain1 = enumerate_assignments(
            profile, ("gpu", "dla"), max_transitions=1
        )
        assert len(domain0) >= 1
        assert len(domain1) > len(domain0)

    def test_respects_transition_budget(self, xavier_db):
        profile = xavier_db.profile("resnet101", max_groups=6)
        for budget in (0, 1, 2):
            for assignment in enumerate_assignments(
                profile, ("gpu", "dla"), max_transitions=budget
            ):
                changes = sum(
                    assignment[i] != assignment[i + 1]
                    for i in range(len(assignment) - 1)
                )
                assert changes <= budget

    def test_respects_capabilities(self, xavier_db):
        profile = xavier_db.profile("googlenet", max_groups=6)
        for assignment in enumerate_assignments(
            profile, ("gpu", "dla"), max_transitions=2
        ):
            for g, accel in enumerate(assignment):
                assert accel in profile.groups[g].time_s

    def test_no_duplicates(self, xavier_db):
        profile = xavier_db.profile("resnet18", max_groups=6)
        domain = enumerate_assignments(
            profile, ("gpu", "dla"), max_transitions=2
        )
        assert len(domain) == len(set(domain))


class TestScheduleOptimality:
    def test_certified_optimal(self, scheduler, pair_workload):
        result = scheduler.schedule(pair_workload)
        assert result.solver is not None
        assert result.solver.optimal

    def test_matches_exhaustive(self, scheduler, pair_workload):
        formulation, _ = scheduler.build_formulation(pair_workload)
        problem = scheduler.build_problem(pair_workload, formulation)
        brute = solve_exhaustive(problem)
        result = scheduler.schedule(pair_workload)
        if not result.schedule.serialized:
            assert result.predicted.objective == pytest.approx(
                brute.best.objective, rel=1e-6
            )
        else:
            assert result.predicted.objective <= brute.best.objective

    def test_never_worse_than_serial_fallback(self, scheduler, pair_workload):
        result = scheduler.schedule(pair_workload)
        _, serial = scheduler.serialized_gpu_schedule(
            pair_workload, result.formulation
        )
        assert result.predicted.objective <= serial.objective + 1e-9

    def test_seeded_solve_not_worse(self, scheduler, pair_workload):
        plain = scheduler.schedule(pair_workload)
        formulation, profiles = scheduler.build_formulation(pair_workload)
        gpu_seed = [
            tuple("gpu" for _ in range(len(p))) for p in profiles
        ]
        seeded = scheduler.schedule(pair_workload, initial=gpu_seed)
        assert seeded.predicted.objective <= plain.predicted.objective + 1e-9

    def test_incumbents_recorded(self, scheduler, pair_workload):
        result = scheduler.schedule(pair_workload)
        assert result.solver.incumbents
        assert result.solver.incumbents[-1] == result.solver.best

    def test_schedule_metadata(self, scheduler, pair_workload):
        result = scheduler.schedule(pair_workload)
        assert result.schedule.meta.get("scheduler") in (
            "haxconn",
            "haxconn-serial-fallback",
        )


class TestCapabilities:
    def test_lrn_groups_always_on_gpu(self, scheduler):
        workload = Workload.concurrent(
            "alexnet", "resnet18", objective="latency"
        )
        result = scheduler.schedule(workload)
        profile = scheduler.db.profile("alexnet", max_groups=6)
        for g, accel in enumerate(result.schedule[0].assignment):
            if "lrn" in profile.groups[g].group.layer_kinds:
                assert accel == "gpu"

    def test_transitions_bounded(self, scheduler, pair_workload):
        result = scheduler.schedule(pair_workload)
        for dnn_schedule in result.schedule:
            assert dnn_schedule.num_transitions <= scheduler.max_transitions


class TestFallback:
    def test_serialized_gpu_schedule(self, scheduler, pair_workload):
        formulation, _ = scheduler.build_formulation(pair_workload)
        schedule, predicted = scheduler.serialized_gpu_schedule(
            pair_workload, formulation
        )
        assert schedule.serialized
        assert all(
            accel == "gpu" for s in schedule for accel in s.assignment
        )
        assert predicted.makespan > 0

    def test_result_from_assignments(self, scheduler, pair_workload):
        formulation, profiles = scheduler.build_formulation(pair_workload)
        assignments = [
            tuple("gpu" for _ in range(len(p))) for p in profiles
        ]
        result = scheduler.result_from_assignments(
            pair_workload, formulation, assignments, scheduler_name="test"
        )
        assert result.schedule.meta["scheduler"] == "test"
        assert result.predicted.makespan > 0


class TestContentionModelDefault:
    def test_pccs_fetched_from_db(self, xavier, xavier_db):
        scheduler = HaXCoNN(xavier, db=xavier_db, max_groups=6)
        assert scheduler.contention_model is xavier_db.pccs


class TestRemovedSolverKnobs:
    """The strategy race is gone: its knobs are typed errors."""

    @pytest.mark.parametrize("backend", ["threads", "fork", "auto"])
    def test_parallel_backend_is_rejected(self, xavier, xavier_db, backend):
        with pytest.raises(ValueError, match="race is removed"):
            HaXCoNN(
                xavier, db=xavier_db, solver="portfolio", solver_backend=backend
            )

    def test_zero_workers_is_rejected(self, xavier, xavier_db):
        with pytest.raises(ValueError, match="race is removed"):
            HaXCoNN(xavier, db=xavier_db, solver_workers=0)

    def test_serial_knobs_are_accepted(self, xavier, xavier_db):
        HaXCoNN(
            xavier,
            db=xavier_db,
            solver="portfolio",
            solver_workers=2,
            solver_backend="serial",
        )
