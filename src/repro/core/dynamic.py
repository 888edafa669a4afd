"""D-HaX-CoNN: runtime adaptation of optimal scheduling (Section 3.5).

When the autonomous CFG changes (new DNN pairs appear), D-HaX-CoNN

1. starts executing immediately with the best *naive* schedule,
2. runs the solver on a CPU core concurrently with inference,
3. at periodic update points swaps in the best incumbent found so
   far, converging to the optimum while the loop keeps running
   (paper Fig. 7; solver co-run overhead is Table 7's <= 2%).

:meth:`DHaXCoNN.plan` is the one planner, shared by the offline
Fig. 7 driver (:meth:`DHaXCoNN.run_phase`) and the serving policy
(:class:`repro.serve.policy.CachedAnytimePolicy`).  It decides every
swap from the cost model alone -- predicted objective, and phase time
counted in explored solver nodes (``nodes_explored / NODE_RATE``) --
so a plan is a pure function of the workload and the seeds, whatever
the host's speed.  The simulator only measures the plan afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.baselines import gpu_only, naive_concurrent
from repro.core.formulation import Formulation
from repro.core.haxconn import FALLBACK_MARGIN, HaXCoNN, ScheduleResult
from repro.core.schedule import Schedule
from repro.core.workload import Workload
from repro.soc.platform import Platform
from repro.solver.bnb import Incumbent
from repro.solver.portfolio import NODE_RATE

#: paper Fig. 7 schedule-update instants (seconds after phase start);
#: the tail points let long solves land (the paper observes convergence
#: between 1.3 s and 5.8 s depending on the pair's group count)
DEFAULT_UPDATE_POINTS = (0.025, 0.100, 0.250, 0.500, 1.500, 3.0, 6.0, 10.0)


@dataclass
class _AnytimePhase:
    """Swap plan for one phase: (available-at, result) candidates.

    Candidate availability is in *phase time* (seconds the mix has been
    actively served), mirroring D-HaX-CoNN's solver-co-runs-with-
    inference model: the solver makes progress only while the mix is
    on the SoC.  Candidates strictly improve the predicted objective.
    """

    candidates: list[tuple[float, ScheduleResult]]
    #: phase time at which the certified-final schedule is active
    final_available_s: float
    #: the solver's certified answer (the measured oracle of Fig. 7)
    solve: ScheduleResult
    active_idx: int = 0

    def active(self, elapsed_s: float) -> tuple[ScheduleResult, bool, int]:
        """(result, converged, swaps-performed-now) at ``elapsed_s``."""
        idx = self.active_idx
        while (
            idx + 1 < len(self.candidates)
            and self.candidates[idx + 1][0] <= elapsed_s
        ):
            idx += 1
        swaps = idx - self.active_idx
        self.active_idx = idx
        converged = (
            idx == len(self.candidates) - 1
            and elapsed_s >= self.final_available_s
        )
        return self.candidates[idx][1], converged, swaps


@dataclass(frozen=True)
class ScheduleUpdate:
    """One activation of a planned schedule during a phase."""

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


class DHaXCoNN:
    """Dynamic scheduler driver around an anytime :class:`HaXCoNN`.

    The anytime solver is the wrapped scheduler's: configure it there
    (``HaXCoNN(solver=...)``).  Its ``solver_clock`` does not move the
    plan, which counts phase time in explored nodes.
    """

    def __init__(
        self,
        scheduler: HaXCoNN,
        *,
        update_points: Sequence[float] = DEFAULT_UPDATE_POINTS,
    ) -> None:
        if any(t <= 0 for t in update_points):
            raise ValueError("update points must be positive")
        self.scheduler = scheduler
        self.update_points = tuple(sorted(update_points))

    @property
    def platform(self) -> Platform:
        return self.scheduler.platform

    # ------------------------------------------------------------------
    def _measure(self, result: ScheduleResult) -> float:
        """Ground-truth per-round latency in ms."""
        # imported here: repro.runtime depends on repro.core, so a
        # module-level import would be circular
        from repro.runtime.executor import run_schedule

        return run_schedule(result, self.platform).latency_ms

    def _best_naive(
        self, workload: Workload, formulation: Formulation
    ) -> ScheduleResult:
        """Best naive start, compared under the *contention-aware*
        formulation so its objective is commensurable with solver
        incumbents (the baselines' own predictions are contention-free
        and would not be).  :data:`FALLBACK_MARGIN` guards the
        choice: concurrency must be predicted to win by more than
        the model's error band, or the phase starts serialized --
        the same never-worse-than-naive guarantee the offline
        scheduler gives.  Herald/H2H are no starts (paper footnote 1:
        they also take seconds)."""
        scheduler = self.scheduler
        serial, concurrent = (
            scheduler.result_from_assignments(
                workload,
                formulation,
                [s.assignment for s in base.schedule],
                scheduler_name=label,
                serialized=base.schedule.serialized,
            )
            for base, label in (
                (
                    gpu_only(
                        workload,
                        scheduler.platform,
                        db=scheduler.db,
                        max_groups=scheduler.max_groups,
                    ),
                    "gpu-only-start",
                ),
                (
                    naive_concurrent(
                        workload,
                        scheduler.platform,
                        db=scheduler.db,
                        max_groups=scheduler.max_groups,
                    ),
                    "naive-start",
                ),
            )
        )
        threshold = serial.predicted.objective - (
            FALLBACK_MARGIN * abs(serial.predicted.objective)
        )
        if concurrent.predicted.objective <= threshold:
            return concurrent
        return serial

    def plan(
        self,
        workload: Workload,
        *,
        warm_starts: Sequence[tuple[str, Sequence[Sequence[str]]]] = (),
    ) -> _AnytimePhase:
        """Plan one phase's swaps from a single solver run.

        The naive start is active at phase time 0.  An incumbent
        becomes available once the solver has explored its nodes
        (``nodes_explored / NODE_RATE`` seconds, whichever solver or
        clock the scheduler uses); at each update point the best
        available incumbent is adopted if it strictly improves the
        predicted objective.  The certified answer follows at the
        first update point after the solver finishes, again only if
        it is predicted better.  ``warm_starts`` seed the solver (the
        serving cache supplies schedules of similar mixes).
        """
        scheduler = self.scheduler
        formulation, _ = scheduler.build_formulation(workload)
        naive = self._best_naive(workload, formulation)
        solve = scheduler.schedule(workload, warm_starts=warm_starts)

        candidates: list[tuple[float, ScheduleResult]] = [(0.0, naive)]
        best_objective = naive.predicted.objective
        incumbents = solve.solver.incumbents if solve.solver else []
        adopted: list[tuple[float, Incumbent]] = []
        for point in self.update_points:
            available = [
                i for i in incumbents if i.nodes_explored / NODE_RATE <= point
            ]
            if not available:
                continue
            best = min(available, key=lambda i: i.objective)
            # strict improvement only: re-selecting the incumbent
            # already adopted at an earlier point compares equal and
            # is skipped, so no per-object dedup is needed
            if best.objective >= best_objective:
                continue
            adopted.append((point, best))
            best_objective = best.objective
        if adopted:
            # one frontier batch materializes every adopted incumbent
            # (bit-identical to per-incumbent scalar evaluation)
            results = scheduler.results_from_assignments(
                workload,
                formulation,
                [
                    [inc.assignment[f"dnn{n}"] for n in range(len(workload))]
                    for _, inc in adopted
                ],
                scheduler_name="haxconn-incumbent",
            )
            candidates.extend(
                (point, result)
                for (point, _), result in zip(adopted, results)
            )

        # the solver's certified answer (possibly the serialized GPU
        # fallback, which never appears in the incumbent stream)
        solver_done_s = (
            solve.solver.nodes_explored / NODE_RATE if solve.solver else 0.0
        )
        adopt_at = next(
            (p for p in self.update_points if p >= solver_done_s),
            solver_done_s,  # solver outran every update point
        )
        adopt_at = max(adopt_at, candidates[-1][0])
        if solve.predicted.objective < best_objective:
            candidates.append((adopt_at, solve))
        return _AnytimePhase(
            candidates=candidates, final_available_s=adopt_at, solve=solve
        )

    def run_phase(
        self, workload: Workload, *, duration_s: float = 10.0
    ) -> PhaseTrace:
        """Execute one phase: the planned swaps, measured, then frames.

        Every planned swap is taken, including one that measures worse
        than the schedule it replaces: the plan sees only the model.
        """
        phase = self.plan(workload)
        updates = [
            ScheduleUpdate(
                time_s=time_s,
                latency_ms=self._measure(result),
                schedule=result.schedule,
                predicted_ms=result.predicted.makespan * 1e3,
            )
            for time_s, result in phase.candidates
        ]

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
            oracle_latency_ms=self._measure(phase.solve),
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
