"""D-HaX-CoNN: anytime refinement and convergence."""

import pytest

from repro.core.dynamic import DHaXCoNN
from repro.core.haxconn import HaXCoNN
from repro.core.workload import Workload


@pytest.fixture(scope="module")
def dynamic(xavier, xavier_db):
    scheduler = HaXCoNN(
        xavier, db=xavier_db, max_groups=6, max_transitions=1
    )
    return DHaXCoNN(scheduler)


@pytest.fixture(scope="module")
def phase(dynamic):
    workload = Workload.concurrent(
        "googlenet", "resnet101", objective="latency"
    )
    return dynamic.run_phase(workload, duration_s=2.0)


class TestPhase:
    def test_updates_monotonically_improve(self, phase):
        """Swaps are planned on the model alone: each one strictly
        improves the *predicted* objective, in time order.  Measured
        latency may rise across a swap when the model misjudges it."""
        predicted = [u.predicted_ms for u in phase.updates]
        assert all(b < a for a, b in zip(predicted, predicted[1:]))
        times = [u.time_s for u in phase.updates]
        assert times == sorted(times)

    def test_starts_with_naive(self, phase):
        first = phase.updates[0]
        assert first.time_s == 0.0
        assert first.schedule.meta["scheduler"] in (
            "gpu-only-start",
            "naive-start",
        )

    def test_final_at_most_initial(self, phase):
        assert phase.final_latency_ms <= phase.initial_latency_ms

    def test_converges_to_oracle(self, phase):
        """The solver finishes well within the phase, so the last
        active schedule matches the certified optimum."""
        assert phase.converged
        assert phase.convergence_time_s is not None

    def test_frames_cover_duration(self, phase):
        assert phase.frames
        assert phase.frames[-1][0] < phase.duration_s
        total = phase.frames[-1][0] + phase.frames[-1][1] / 1e3
        assert total >= phase.duration_s - 1e-9

    def test_frame_latencies_track_updates(self, phase):
        final = phase.frames[-1][1]
        assert final == pytest.approx(phase.final_latency_ms)


class TestMultiPhase:
    def test_run_chains_phases(self, dynamic):
        workloads = [
            Workload.concurrent("googlenet", "resnet18", objective="latency"),
            Workload.concurrent("resnet18", "resnet50", objective="latency"),
        ]
        trace = dynamic.run(workloads, phase_duration_s=1.0)
        assert len(trace.phases) == 2
        assert sum(p.duration_s for p in trace.phases) == pytest.approx(2.0)


class TestValidation:
    def test_rejects_bad_update_points(self, xavier, xavier_db):
        scheduler = HaXCoNN(xavier, db=xavier_db, max_groups=6)
        with pytest.raises(ValueError):
            DHaXCoNN(scheduler, update_points=(0.0, 1.0))


class TestHostSpeed:
    """Swaps are planned in node-count phase time, so a host whose
    branch-and-bound clock reads 8x the elapsed time makes exactly the
    decisions an unscaled one does."""

    @staticmethod
    def _slow_host(monkeypatch):
        import repro.solver.bnb as bnb

        real = bnb.monotonic_s
        monkeypatch.setattr(bnb, "monotonic_s", lambda: 8.0 * real())

    def test_phase_trace_ignores_solver_clock(self, dynamic, monkeypatch):
        workload = Workload.concurrent(
            "resnet152", "inception", objective="latency"
        )
        unscaled = dynamic.run_phase(workload, duration_s=1.0)
        self._slow_host(monkeypatch)
        slow = dynamic.run_phase(workload, duration_s=1.0)
        # update times, schedules, predicted and measured ms, frames
        assert slow == unscaled

    def test_serving_report_ignores_solver_clock(self, monkeypatch):
        from repro.experiments import serving

        # the haxconn row of benchmarks/bench_serving.py
        config = {"horizon_s": 0.5, "max_groups": 6, "policies": ("haxconn",)}
        unscaled = serving.run(**config)
        self._slow_host(monkeypatch)
        assert serving.run(**config) == unscaled
