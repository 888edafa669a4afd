"""The HaX-CoNN scheduler: optimal contention-aware co-scheduling.

Pipeline (paper Fig. 2): layer grouping and per-group profiling come
from :mod:`repro.profiling`; this module builds the constraint problem
of Section 3.4 over per-stream *segmentation* variables (start DSA +
transition boundaries), solves it to optimality with the anytime
branch-and-bound solver, and falls back to the serialized GPU-only
schedule whenever concurrency cannot win -- the paper's guarantee that
HaX-CoNN never loses to the naive baselines (Section 5.2, Scenario 3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.contention.base import ContentionModel
from repro.core.evalcache import EvalCounters
from repro.core.formulation import (
    EvaluationResult,
    Formulation,
)
from repro.core.schedule import DNNSchedule, Schedule
from repro.core.workload import Workload
from repro.profiling.database import ProfileDB
from repro.profiling.profiler import DNNProfile, concat_profiles
from repro.solver.bnb import BranchAndBound, SolveResult
from repro.solver.portfolio import PortfolioSolver
from repro.solver.problem import Assignment, Infeasible, Problem, Variable
from repro.soc.platform import Platform, get_platform

if TYPE_CHECKING:
    from repro.runtime.executor import ExecutionResult

#: a concurrent schedule is adopted only when predicted to beat the
#: serialized GPU-only fallback by this fraction of its objective: the
#: cost model carries a few percent of error against the runtime, and
#: the paper's guarantee is "never worse than the naive baselines"
FALLBACK_MARGIN = 0.02


def stream_profiles(
    workload: Workload, db: ProfileDB, *, max_groups: int | None
) -> tuple[DNNProfile, ...]:
    """Resolve each workload stream to a (possibly chained) profile."""
    out = []
    for dnn in workload:
        parts = [db.profile(m, max_groups=max_groups) for m in dnn.models]
        out.append(concat_profiles(parts))
    return tuple(out)


def enumerate_assignments(
    profile: DNNProfile,
    accel_names: Sequence[str],
    *,
    max_transitions: int,
) -> tuple[tuple[str, ...], ...]:
    """All capability-respecting assignments with bounded transitions.

    An assignment is a segmentation: pick up to ``max_transitions``
    boundaries and an accelerator per segment with adjacent segments
    on different DSAs.  Groups with capability restrictions (e.g. LRN
    on the DLA) prune incompatible candidates.
    """
    n = len(profile)
    supported = [frozenset(g.time_s) for g in profile.groups]
    results: list[tuple[str, ...]] = []
    for k in range(max_transitions + 1):
        for boundaries in itertools.combinations(range(1, n), k):
            cuts = (0, *boundaries, n)
            for accel_seq in itertools.product(accel_names, repeat=k + 1):
                if any(
                    accel_seq[s] == accel_seq[s + 1] for s in range(k)
                ):
                    continue
                assignment: list[str] = []
                for s in range(k + 1):
                    assignment.extend(
                        [accel_seq[s]] * (cuts[s + 1] - cuts[s])
                    )
                if all(
                    assignment[g] in supported[g] for g in range(n)
                ):
                    results.append(tuple(assignment))
    return tuple(results)


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of one scheduling run."""

    schedule: Schedule
    predicted: EvaluationResult
    solver: SolveResult | None
    formulation: Formulation
    #: simulated-round memo owned by
    #: :func:`repro.runtime.executor.run_schedule`: (repeats, pipeline,
    #: contention, background_bw) -> (platform, execution).  Outside
    #: init, repr and comparison so ``replace`` copies start empty, and
    #: left out of pickled/copied state so it never crosses a process.
    _executions: dict[
        tuple[Any, ...], tuple[Platform, ExecutionResult]
    ] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict[str, Any]:
        return {**self.__dict__, "_executions": {}}

    def describe(self) -> str:
        return self.schedule.describe()


class HaXCoNN:
    """Contention-aware optimal scheduler for concurrent DNNs.

    Parameters
    ----------
    platform:
        Target SoC (name or :class:`Platform`).
    db:
        Profile database; a fresh one is created when omitted.
    contention_model:
        Defaults to the platform's fitted PCCS model.
    max_transitions:
        Per-stream transition budget; the paper's optimal schedules
        use a single transition per DNN (Table 6's TR column).
    max_groups:
        Grouping coarseness (Table 2 uses ~10 for GoogleNet).
    node_budget:
        Explored-node budget per search (deterministic truncation).
    solver:
        ``"bnb"`` (plain branch and bound, the default) or
        ``"portfolio"`` (the anytime solver of
        :mod:`repro.solver.portfolio`: one branch and bound seeded
        with the best contention-oblivious baseline or caller warm
        start, greedily improved).
    solver_clock:
        Timestamp mode of the anytime solver (``"wall"`` or
        ``"nodes"``), ignored for ``"bnb"``; see
        :class:`~repro.solver.portfolio.PortfolioSolver`.
    solver_workers / solver_backend:
        Accepted for old callers and ignored: the anytime solver runs
        one search in-process.  ``solver_backend`` accepts only
        ``"serial"`` and ``solver_workers`` only ``None`` or a count
        ``>= 1``; anything else raises :class:`ValueError`, because
        the parallel strategy race they once configured is gone.
    """

    def __init__(
        self,
        platform: Platform | str,
        *,
        db: ProfileDB | None = None,
        contention_model: ContentionModel | None = None,
        max_transitions: int = 2,
        max_groups: int | None = 12,
        include_transitions: bool = True,
        resource_constrained: bool = True,
        node_budget: int | None = None,
        solver: str = "bnb",
        solver_workers: int | None = None,
        solver_backend: str = "serial",
        solver_clock: str = "wall",
        verify: bool = False,
    ) -> None:
        self.platform = (
            get_platform(platform) if isinstance(platform, str) else platform
        )
        self.db = db if db is not None else ProfileDB(self.platform)
        self._contention_model = contention_model
        self.max_transitions = max_transitions
        self.max_groups = max_groups
        self.include_transitions = include_transitions
        self.resource_constrained = resource_constrained
        self.node_budget = node_budget
        if solver not in ("bnb", "portfolio"):
            raise ValueError(
                f"solver must be 'bnb' or 'portfolio', got {solver!r}"
            )
        if solver_backend != "serial" or (
            solver_workers is not None and solver_workers < 1
        ):
            raise ValueError(
                f"solver_backend={solver_backend!r}, "
                f"solver_workers={solver_workers!r}: the parallel "
                "portfolio race is removed; the anytime solver runs one "
                "search in-process (solver_backend='serial')"
            )
        self.solver = solver
        self.verify = verify
        self.solver_clock = solver_clock
        #: evaluation-engine counters, accumulated across every
        #: formulation this scheduler builds (D-HaX-CoNN re-solves
        #: mixes online, so per-formulation counters would reset on
        #: each mix change); surfaced by ``stats()`` consumers
        self.eval_counters = EvalCounters()

    @property
    def contention_model(self) -> ContentionModel:
        if self._contention_model is None:
            self._contention_model = self.db.pccs
        return self._contention_model

    # ------------------------------------------------------------------
    def build_formulation(
        self, workload: Workload
    ) -> tuple[Formulation, tuple[DNNProfile, ...]]:
        profiles = stream_profiles(
            workload, self.db, max_groups=self.max_groups
        )
        formulation = Formulation(
            profiles,
            [d.repeats for d in workload],
            workload.objective,
            self.contention_model,
            include_transitions=self.include_transitions,
            resource_constrained=self.resource_constrained,
            pipeline=workload.pipeline,
            accel_power_w={
                a.name: a.active_power_w
                for a in self.platform.accelerators
            },
            eval_counters=self.eval_counters,
        )
        return formulation, profiles

    def symmetry_classes(self, workload: Workload) -> list[list[str]]:
        """Groups of interchangeable stream variables.

        Streams with the same model chain and repeat count are
        symmetric under permutation (Scenario 1's two instances of the
        same DNN): swapping their assignments never changes the
        objective.  Streams with pipeline dependencies are excluded --
        their index identifies them.
        """
        pipelined = {n for edge in workload.pipeline for n in edge}
        groups: dict[tuple, list[str]] = {}
        for n, dnn in enumerate(workload):
            if n in pipelined:
                continue
            groups.setdefault((dnn.models, dnn.repeats), []).append(
                f"dnn{n}"
            )
        return [names for names in groups.values() if len(names) > 1]

    def canonicalize_assignment(
        self, workload: Workload, assignment: Assignment
    ) -> dict[str, tuple[str, ...]]:
        """Sort identical streams' assignments into canonical order.

        The symmetry-breaking constraints of :meth:`build_problem`
        only admit the sorted representative of each permutation
        class; warm-start seeds built from baselines must be
        canonicalized the same way or they would be rejected as
        infeasible.
        """
        out = dict(assignment)
        for names in self.symmetry_classes(workload):
            if all(name in out for name in names):
                values = sorted(out[name] for name in names)
                for name, value in zip(names, values):
                    out[name] = value
        return out

    def build_problem(
        self, workload: Workload, formulation: Formulation
    ) -> Problem:
        """Compile the workload into a solver problem (Section 3.4).

        Identical streams get a lexicographic ordering constraint
        (symmetry breaking): every permutation class of assignments
        keeps exactly its sorted representative, which preserves the
        optimal objective while shrinking the search tree.
        """
        accel_names = self.platform.accelerator_names
        domains = [
            enumerate_assignments(
                p, accel_names, max_transitions=self.max_transitions
            )
            for p in formulation.profiles
        ]
        for n, domain in enumerate(domains):
            if not domain:
                raise Infeasible(
                    f"stream {workload.names[n]} has no feasible assignment"
                )
        variables = [
            Variable(name=f"dnn{n}", domain=domain)
            for n, domain in enumerate(domains)
        ]
        chain_cache: dict[tuple[int, tuple[str, ...]], float] = {}
        busy_cache: dict[tuple[int, tuple[str, ...]], dict[str, float]] = {}

        def chain(n: int, a: tuple[str, ...]) -> float:
            key = (n, a)
            if key not in chain_cache:
                chain_cache[key] = formulation.chain_time(n, a)
            return chain_cache[key]

        def busy(n: int, a: tuple[str, ...]) -> dict[str, float]:
            key = (n, a)
            if key not in busy_cache:
                busy_cache[key] = formulation.busy_times(n, a)
            return busy_cache[key]

        min_chain = [
            min(chain(n, a) for a in domain)
            for n, domain in enumerate(domains)
        ]

        def objective(assignment: Assignment) -> float:
            result = formulation.evaluate(
                [assignment[f"dnn{n}"] for n in range(len(domains))]
            )
            return result.objective

        def frontier_evaluate(assignments: Sequence[Assignment]) -> None:
            # memo-prewarm only: evaluate_frontier stores every
            # member's result (or ScheduleInfeasible) in the engine
            # memo under the same key objective() reads, bit-identical
            # to the scalar path -- so the solver's later objective()
            # calls are memo hits and the search tree is unchanged
            formulation.evaluate_frontier(
                [
                    [a[f"dnn{n}"] for n in range(len(domains))]
                    for a in assignments
                ]
            )

        min_energy = None
        if formulation.objective == "energy":
            min_energy = [
                min(formulation.chain_energy(n, a) for a in domain)
                for n, domain in enumerate(domains)
            ]

        frames = sum(formulation.repeats)

        def chain_bound(n: int, partial: Assignment) -> float:
            name = f"dnn{n}"
            return chain(n, partial[name]) if name in partial else min_chain[n]

        # The bounds add the evaluator's terms in another order, so a
        # completion can round a few ulps below its tight bound.  One
        # relative margin, applied identically at the end of both
        # lower_bound and child_bounds, makes them exactly admissible
        # and keeps them bit-equal: the margin is a power of two, so
        # abs(x) * margin is exact and each path rounds once, the same
        # way.
        margin = 8 * 2.0**-52

        def lower_bound(partial: Assignment) -> float:
            x = tight_bound(partial)
            return x - abs(x) * margin

        def tight_bound(partial: Assignment) -> float:
            if formulation.objective == "energy":
                assert min_energy is not None
                return sum(
                    formulation.chain_energy(n, partial[f"dnn{n}"])
                    if f"dnn{n}" in partial
                    else min_energy[n]
                    for n in range(len(domains))
                )
            # one round-time bound for both makespan objectives: each
            # DSA is serial and contention only stretches per_dnn, so
            # neither the longest isolated chain nor any DSA's summed
            # busy time exceeds max(per_dnn) on a completion
            rt = max(chain_bound(n, partial) for n in range(len(domains)))
            totals: dict[str, float] = {}
            for n in range(len(domains)):
                if f"dnn{n}" not in partial:
                    continue
                for a, t in busy(n, partial[f"dnn{n}"]).items():
                    totals[a] = totals.get(a, 0.0) + t
            rt = max(rt, max(totals.values(), default=0.0))
            if formulation.objective == "latency":
                return rt
            # throughput is priced like _objective: -frames / round time
            return -frames / rt if rt > 0 else float("-inf")

        constraints = []
        for names in self.symmetry_classes(workload):
            for left, right in zip(names, names[1:]):

                def ordered(
                    partial: Assignment,
                    left: str = left,
                    right: str = right,
                ) -> bool:
                    a, b = partial.get(left), partial.get(right)
                    return a is None or b is None or a <= b

                constraints.append(ordered)

        # Vectorized sibling bounds: per stream, one aligned table of
        # every domain value's isolated chain time / per-DSA busy time
        # / chain energy, so the solver prices a node's whole child
        # set with numpy gathers instead of one lower_bound call per
        # child.  Bit-identity with the scalar bound is load-bearing
        # (identical floats -> identical prune decisions -> identical
        # trees): terms are added in stream-index order with the
        # branched stream contributing a vector, zero-adds are exact
        # for the non-negative times involved, and max/negate
        # reductions are exact for IEEE doubles in any order.
        n_streams = len(domains)
        val_index = [
            {a: i for i, a in enumerate(domain)} for domain in domains
        ]
        chain_tab = [
            np.array([chain(n, a) for a in domain])
            for n, domain in enumerate(domains)
        ]
        busy_tab = [
            np.array(
                [
                    [busy(n, a).get(acc, 0.0) for a in domain]
                    for acc in accel_names
                ]
            )
            for n, domain in enumerate(domains)
        ]
        energy_tab = (
            [
                np.array([formulation.chain_energy(n, a) for a in domain])
                for n, domain in enumerate(domains)
            ]
            if formulation.objective == "energy"
            else None
        )

        def child_bounds(
            partial: Assignment, variable: Variable
        ) -> np.ndarray:
            x = tight_child_bounds(partial, variable)
            return x - np.abs(x) * margin

        def tight_child_bounds(
            partial: Assignment, variable: Variable
        ) -> np.ndarray:
            b = int(variable.name[3:])
            index = val_index[b]
            idx = np.fromiter(
                (index[v] for v in variable.domain),
                dtype=int,
                count=len(variable.domain),
            )
            if formulation.objective == "energy":
                assert energy_tab is not None
                acc = np.zeros(idx.size)
                for n in range(n_streams):
                    if n == b:
                        acc = acc + energy_tab[n][idx]
                    elif f"dnn{n}" in partial:
                        acc = acc + formulation.chain_energy(
                            n, partial[f"dnn{n}"]
                        )
                    else:
                        acc = acc + min_energy[n]
                return acc
            # max over per_dnn folds the branched stream in last;
            # max is order-insensitive in value for floats
            other = max(
                (chain_bound(n, partial) for n in range(n_streams) if n != b),
                default=float("-inf"),
            )
            per_vec = np.maximum(chain_tab[b][idx], other)
            tot = np.zeros((len(accel_names), idx.size))
            for n in range(n_streams):
                if n == b:
                    tot = tot + busy_tab[n][:, idx]
                elif f"dnn{n}" in partial:
                    col = busy_tab[n][:, val_index[n][partial[f"dnn{n}"]]]
                    tot = tot + col[:, None]
            rt_vec = np.maximum(per_vec, tot.max(axis=0))
            if formulation.objective == "latency":
                return rt_vec
            out = np.full(idx.size, float("-inf"))
            pos = rt_vec > 0
            out[pos] = -frames / rt_vec[pos]
            return out

        return Problem(
            variables=variables,
            objective=objective,
            constraints=constraints,
            lower_bound=lower_bound,
            child_bounds=child_bounds,
            frontier_evaluate=frontier_evaluate,
        )

    def contention_oblivious_seeds(
        self,
        workload: Workload,
        formulation: Formulation,
        problem: Problem,
    ) -> list[tuple[str, dict[str, tuple[str, ...]]]]:
        """Warm starts from the contention-oblivious baselines.

        ``gpu-only`` (everything concurrent on the GPU),
        ``best-isolated`` (each stream on its fastest single DSA by
        isolated chain time), and ``spread`` (streams rotated across
        accelerators, the naive-concurrent shape).  Only
        domain-feasible uniform assignments are used, so the anytime
        root incumbent is never worse than the best of these.
        """
        gpu = self.platform.gpu.name
        accel_names = self.platform.accelerator_names
        uniform: list[dict[str, tuple[str, ...]]] = [
            {a[0]: a for a in var.domain if len(set(a)) == 1}
            for var in problem.variables
        ]
        candidates: list[tuple[str, dict[str, tuple[str, ...]]]] = []

        if all(gpu in u for u in uniform):
            candidates.append(
                (
                    "gpu-only",
                    {
                        var.name: uniform[n][gpu]
                        for n, var in enumerate(problem.variables)
                    },
                )
            )
        if all(uniform):
            candidates.append(
                (
                    "best-isolated",
                    {
                        var.name: min(
                            uniform[n].values(),
                            key=lambda a: formulation.chain_time(n, a),
                        )
                        for n, var in enumerate(problem.variables)
                    },
                )
            )
            spread = {}
            for n, var in enumerate(problem.variables):
                preferred = accel_names[n % len(accel_names)]
                spread[var.name] = uniform[n].get(
                    preferred, uniform[n].get(gpu, next(iter(uniform[n].values())))
                )
            candidates.append(("spread", spread))

        return [
            (label, self.canonicalize_assignment(workload, assignment))
            for label, assignment in candidates
        ]

    # ------------------------------------------------------------------
    def result_from_assignments(
        self,
        workload: Workload,
        formulation: Formulation,
        assignments: Sequence[Sequence[str]],
        *,
        scheduler_name: str = "manual",
        serialized: bool = False,
    ) -> ScheduleResult:
        """Wrap explicit assignments into a :class:`ScheduleResult`.

        Used by D-HaX-CoNN to materialize solver incumbents and by
        tests that probe specific mappings.
        """
        predicted = formulation.evaluate(
            assignments, serialized=serialized, check_exclusive=False
        )
        schedule = Schedule(
            per_dnn=tuple(
                DNNSchedule(dnn_name=workload.names[n], assignment=tuple(a))
                for n, a in enumerate(assignments)
            ),
            serialized=serialized,
            meta={"scheduler": scheduler_name},
        )
        return ScheduleResult(
            schedule=schedule,
            predicted=predicted,
            solver=None,
            formulation=formulation,
        )

    def results_from_assignments(
        self,
        workload: Workload,
        formulation: Formulation,
        batch: Sequence[Sequence[Sequence[str]]],
        *,
        scheduler_name: str = "manual",
        serialized: bool = False,
    ) -> list[ScheduleResult]:
        """Batched :meth:`result_from_assignments`.

        The whole batch is predicted in one
        :meth:`Formulation.evaluate_frontier` call -- certified
        bit-identical to the scalar path by the frontier engine's
        differential tests -- so callers materializing many candidate
        mappings at once (the serving policy's anytime swap plan) pay
        one vectorized evaluation instead of a Python loop.
        """
        predictions = formulation.evaluate_frontier(
            batch, serialized=serialized, check_exclusive=False
        )
        results: list[ScheduleResult] = []
        for assignments, predicted in zip(batch, predictions):
            if isinstance(predicted, Exception):
                raise predicted
            schedule = Schedule(
                per_dnn=tuple(
                    DNNSchedule(
                        dnn_name=workload.names[n], assignment=tuple(a)
                    )
                    for n, a in enumerate(assignments)
                ),
                serialized=serialized,
                meta={"scheduler": scheduler_name},
            )
            results.append(
                ScheduleResult(
                    schedule=schedule,
                    predicted=predicted,
                    solver=None,
                    formulation=formulation,
                )
            )
        return results

    def serialized_gpu_schedule(
        self, workload: Workload, formulation: Formulation
    ) -> tuple[Schedule, EvaluationResult]:
        """The paper's fallback: everything on the GPU, back-to-back."""
        gpu = self.platform.gpu.name
        assignments = [
            tuple(gpu for _ in range(len(p))) for p in formulation.profiles
        ]
        predicted = formulation.evaluate(assignments, serialized=True)
        schedule = Schedule(
            per_dnn=tuple(
                DNNSchedule(dnn_name=workload.names[n], assignment=a)
                for n, a in enumerate(assignments)
            ),
            serialized=True,
            meta={"scheduler": "haxconn-serial-fallback"},
        )
        return schedule, predicted

    def schedule(
        self,
        workload: Workload,
        *,
        initial: Sequence[Sequence[str]] | None = None,
        warm_starts: Sequence[
            tuple[str, Sequence[Sequence[str]]]
        ] = (),
        serial_fallback: bool = True,
        scheduler_name: str = "haxconn",
    ) -> ScheduleResult:
        """Find the optimal schedule for ``workload``.

        ``initial`` optionally seeds the solver (D-HaX-CoNN starts
        from the best naive schedule).  ``warm_starts`` are labeled
        per-stream assignment seeds -- the schedule cache supplies
        fragments from similar mixes -- consumed by the anytime
        solver (silently unused by plain ``bnb``).  With
        ``serial_fallback`` (the default) the serialized GPU-only
        schedule is also evaluated, so the returned schedule is never
        worse than that baseline *under the cost model* -- the
        Herald/H2H reimplementations disable this, as those
        schedulers always co-locate.

        With the constructor's ``verify`` flag the returned schedule
        goes through the independent certificate checker
        (:mod:`repro.analysis.verify`), which raises
        :class:`repro.analysis.CertificateError` if any Eq. 1-11
        constraint or the claimed objective fails to re-derive.
        """
        formulation, _profiles = self.build_formulation(workload)
        problem = self.build_problem(workload, formulation)
        seed = None
        if initial is not None:
            seed = self.canonicalize_assignment(
                workload,
                {f"dnn{n}": tuple(a) for n, a in enumerate(initial)},
            )
        if self.solver == "portfolio":
            portfolio = PortfolioSolver(
                node_budget=self.node_budget, clock=self.solver_clock
            )
            seeds = self.contention_oblivious_seeds(
                workload, formulation, problem
            )
            for label, per_stream in warm_starts:
                seeds.append(
                    (
                        label,
                        self.canonicalize_assignment(
                            workload,
                            {
                                f"dnn{n}": tuple(a)
                                for n, a in enumerate(per_stream)
                            },
                        ),
                    )
                )
            result = portfolio.solve(problem, initial=seed, seeds=seeds)
        else:
            solver = BranchAndBound(node_budget=self.node_budget)
            result = solver.solve(problem, initial=seed)

        serial_schedule = serial_predicted = None
        if serial_fallback:
            serial_schedule, serial_predicted = self.serialized_gpu_schedule(
                workload, formulation
            )

        if result.best is not None:
            assignments = [
                result.best.assignment[f"dnn{n}"]
                for n in range(len(workload))
            ]
            predicted = formulation.evaluate(assignments)
            threshold = (
                None
                if serial_predicted is None
                else serial_predicted.objective
                - FALLBACK_MARGIN * abs(serial_predicted.objective)
            )
            if threshold is None or predicted.objective <= threshold:
                schedule = Schedule(
                    per_dnn=tuple(
                        DNNSchedule(
                            dnn_name=workload.names[n], assignment=tuple(a)
                        )
                        for n, a in enumerate(assignments)
                    ),
                    serialized=False,
                    meta={
                        "scheduler": scheduler_name,
                        "optimal": result.optimal,
                        "nodes": result.nodes_explored,
                    },
                )
                return self._maybe_verify(
                    ScheduleResult(
                        schedule=schedule,
                        predicted=predicted,
                        solver=result,
                        formulation=formulation,
                    )
                )

        if serial_schedule is None or serial_predicted is None:
            raise Infeasible(
                f"no feasible concurrent schedule for {workload.names} "
                "and serial fallback disabled"
            )
        return self._maybe_verify(
            ScheduleResult(
                schedule=serial_schedule,
                predicted=serial_predicted,
                solver=result,
                formulation=formulation,
            )
        )

    def _maybe_verify(self, result: ScheduleResult) -> ScheduleResult:
        if self.verify:
            # deferred import: repro.analysis depends on this module's
            # package at runtime (schedule_cache signatures)
            from repro.analysis.diagnostics import require
            from repro.analysis.verify import verify_result

            require(
                verify_result(
                    result, max_transitions=self.max_transitions
                ),
                "HaXCoNN.schedule",
            )
        return result
