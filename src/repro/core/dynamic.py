"""D-HaX-CoNN: runtime adaptation of optimal scheduling (Section 3.5).

When the autonomous CFG changes (new DNN pairs appear), D-HaX-CoNN

1. starts executing immediately with the best *naive* schedule,
2. runs the solver on a CPU core concurrently with inference,
3. at periodic update points swaps in the best incumbent found so
   far, converging to the optimum while the loop keeps running
   (paper Fig. 7; solver co-run overhead is Table 7's <= 2%).

The solver here is the anytime branch-and-bound; its incumbents carry
wall-clock timestamps, so the phase trace reconstructs exactly which
schedule was active when.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.haxconn import HaXCoNN, ScheduleResult
from repro.core.schedule import Schedule
from repro.core.workload import Workload
from repro.soc.platform import Platform

#: paper Fig. 7 schedule-update instants (seconds after phase start);
#: the tail points let long solves land (the paper observes convergence
#: between 1.3 s and 5.8 s depending on the pair's group count)
DEFAULT_UPDATE_POINTS = (0.025, 0.100, 0.250, 0.500, 1.500, 3.0, 6.0, 10.0)


@dataclass(frozen=True)
class ScheduleUpdate:
    """One activation of a (better) schedule during a phase."""

    time_s: float
    latency_ms: float
    schedule: Schedule
    predicted_ms: float


@dataclass(frozen=True)
class PhaseTrace:
    """Execution trace of one workload phase (one Fig. 7 segment)."""

    workload: Workload
    updates: tuple[ScheduleUpdate, ...]
    #: measured latency of the certified-optimal schedule (yellow line)
    oracle_latency_ms: float
    #: per-frame samples: (time since phase start, latency of that frame)
    frames: tuple[tuple[float, float], ...]
    duration_s: float

    @property
    def initial_latency_ms(self) -> float:
        return self.updates[0].latency_ms

    @property
    def final_latency_ms(self) -> float:
        return self.updates[-1].latency_ms

    @property
    def converged(self) -> bool:
        """Did the phase reach the oracle latency (within 1%)?"""
        return self.final_latency_ms <= self.oracle_latency_ms * 1.01

    @property
    def convergence_time_s(self) -> float | None:
        """Phase time at which the active schedule first hit the oracle."""
        for u in self.updates:
            if u.latency_ms <= self.oracle_latency_ms * 1.01:
                return u.time_s
        return None


@dataclass
class DynamicTrace:
    """A full dynamic run: several workload phases back to back."""

    phases: list[PhaseTrace] = field(default_factory=list)

    @property
    def total_duration_s(self) -> float:
        return sum(p.duration_s for p in self.phases)


class DHaXCoNN:
    """Dynamic scheduler driver around an anytime :class:`HaXCoNN`.

    The anytime solver is the wrapped scheduler's: configure it there
    (``HaXCoNN(solver=..., solver_clock=...)``).
    """

    def __init__(
        self,
        scheduler: HaXCoNN,
        *,
        update_points: Sequence[float] = DEFAULT_UPDATE_POINTS,
        solver_bw: float = 0.0,
    ) -> None:
        if any(t <= 0 for t in update_points):
            raise ValueError("update points must be positive")
        self.scheduler = scheduler
        self.update_points = tuple(sorted(update_points))
        #: DRAM traffic of the co-running solver (Table 7 overhead)
        self.solver_bw = solver_bw

    @property
    def platform(self) -> Platform:
        return self.scheduler.platform

    # ------------------------------------------------------------------
    def _measure(self, result: ScheduleResult) -> float:
        """Ground-truth per-round latency in ms (solver co-running)."""
        # imported here: repro.runtime depends on repro.core, so a
        # module-level import would be circular
        from repro.runtime.executor import run_schedule

        execution = run_schedule(
            result, self.platform, background_bw=self.solver_bw
        )
        return execution.latency_ms

    def _initial_naive(
        self, workload: Workload
    ) -> ScheduleResult:
        """Best naive schedule by predicted cost (paper footnote 1:
        Herald/H2H are no seeds -- they also take seconds)."""
        from repro.core.baselines import gpu_only, naive_concurrent

        candidates = [
            gpu_only(
                workload,
                self.platform,
                db=self.scheduler.db,
                max_groups=self.scheduler.max_groups,
            ),
            naive_concurrent(
                workload,
                self.platform,
                db=self.scheduler.db,
                max_groups=self.scheduler.max_groups,
            ),
        ]
        return min(candidates, key=lambda r: r.predicted.objective)

    def run_phase(
        self, workload: Workload, *, duration_s: float = 10.0
    ) -> PhaseTrace:
        """Execute one phase: naive start, anytime refinement, frames."""
        initial = self._initial_naive(workload)
        solve = self.scheduler.schedule(workload)
        formulation = solve.formulation

        # reconstruct which incumbent was active at each update point
        updates: list[ScheduleUpdate] = [
            ScheduleUpdate(
                time_s=0.0,
                latency_ms=self._measure(initial),
                schedule=initial.schedule,
                predicted_ms=initial.predicted.makespan * 1e3,
            )
        ]
        incumbents = solve.solver.incumbents if solve.solver else []
        best_so_far = None
        for point in self.update_points:
            candidates = [i for i in incumbents if i.wall_time_s <= point]
            if not candidates:
                continue
            best = min(candidates, key=lambda i: i.objective)
            if best_so_far is not None and best is best_so_far:
                continue
            best_so_far = best
            result = self.scheduler.result_from_assignments(
                workload,
                formulation,
                [
                    best.assignment[f"dnn{n}"]
                    for n in range(len(workload))
                ],
                scheduler_name="d-haxconn",
            )
            latency = self._measure(result)
            if latency < updates[-1].latency_ms:
                updates.append(
                    ScheduleUpdate(
                        time_s=point,
                        latency_ms=latency,
                        schedule=result.schedule,
                        predicted_ms=result.predicted.makespan * 1e3,
                    )
                )

        oracle_latency = self._measure(solve)

        # once the solver finishes, its final choice (which may be the
        # serialized fallback -- never part of the incumbent stream)
        # becomes available at the next update instant
        solver_done_s = (
            solve.solver.wall_time_s if solve.solver else 0.0
        )
        adopt_at = next(
            (p for p in self.update_points if p >= solver_done_s),
            solver_done_s,  # solver outran every update point
        )
        if oracle_latency < updates[-1].latency_ms:
            updates.append(
                ScheduleUpdate(
                    time_s=max(adopt_at, updates[-1].time_s),
                    latency_ms=oracle_latency,
                    schedule=solve.schedule,
                    predicted_ms=solve.predicted.makespan * 1e3,
                )
            )

        # frame-by-frame latency trace under the active schedule
        frames: list[tuple[float, float]] = []
        t = 0.0
        idx = 0
        while t < duration_s:
            while (
                idx + 1 < len(updates) and updates[idx + 1].time_s <= t
            ):
                idx += 1
            latency_ms = updates[idx].latency_ms
            frames.append((t, latency_ms))
            t += latency_ms / 1e3

        return PhaseTrace(
            workload=workload,
            updates=tuple(updates),
            oracle_latency_ms=oracle_latency,
            frames=tuple(frames),
            duration_s=duration_s,
        )

    def run(
        self,
        workloads: Sequence[Workload],
        *,
        phase_duration_s: float = 10.0,
    ) -> DynamicTrace:
        """Run several phases back-to-back (Fig. 7's changing CFG)."""
        trace = DynamicTrace()
        for workload in workloads:
            trace.phases.append(
                self.run_phase(workload, duration_s=phase_duration_s)
            )
        return trace
