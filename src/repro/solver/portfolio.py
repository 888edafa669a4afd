"""The anytime solver: a warm-started root, then one seeded B&B.

The paper hands Eq. 1-11 to one Z3 instance and D-HaX-CoNN swaps
schedules in from that one incumbent stream.  This module is the
reproduction's equivalent: :class:`PortfolioSolver` runs a single
:class:`~repro.solver.bnb.BranchAndBound` search, but only after a
root phase that makes its *first* incumbent good:

1. **Warm starts first.**  Caller-provided seeds (naive baselines,
   schedule-cache fragments for similar mixes, learned predictions)
   are validated and evaluated at the root; invalid or infeasible ones
   are logged and skipped.  A bounded greedy best-response pass then
   improves the best of them, so the root incumbent is never worse
   than the best contention-oblivious baseline.  The search is seeded
   with that incumbent and prunes against it from its first node.
2. **Deterministic timestamps.**  Under ``clock="nodes"`` every
   reported timestamp is the explored-node count (root evaluations
   included) divided by :data:`NODE_RATE`, so the incumbent trace --
   which the serving layer turns into schedule-swap points -- is a
   pure function of the problem and the seeds.  ``clock="wall"``
   reports real elapsed seconds instead, for benchmarking.
3. **Reordering only.**  An optional learned guide orders each node's
   children by store-trained branch scores; it can change how fast
   the optimum is reached, never which optimum is certified.

The ``portfolio`` name predates the single search; callers and the
benchmark harness still import the solver under it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.solver.bnb import BranchAndBound, Incumbent, SolveResult
from repro.solver.clock import monotonic_s
from repro.solver.problem import Assignment, Infeasible, Problem, Variable

#: explored nodes per virtual second under ``clock="nodes"``
NODE_RATE = 2000.0
#: best-response sweeps applied to the best warm start before the search
GREEDY_SWEEPS = 1

#: branch-ordering guide shape: ``guide[variable.name][value]`` is the
#: learned score of branching ``variable = value`` (higher explores
#: first)
BranchGuide = Mapping[str, Mapping[Any, float]]

ChildOrder = Callable[[Variable, Sequence[tuple[float, Any]]], list[Any]]


def learned_order(guide: BranchGuide) -> ChildOrder:
    """Value-ordering callable for :class:`BranchAndBound`.

    Children go in descending learned score, ascending bound breaking
    ties; a variable the guide does not cover keeps the default
    ascending-bound dive.  A reordering of the feasible children only,
    so it can change how fast the optimum is reached, never which
    optimum is certified.
    """

    def learned(variable: Variable, children: Sequence[Any]) -> list[Any]:
        table = guide.get(variable.name)
        if not table:
            return sorted(children, key=lambda c: c[0])
        return sorted(children, key=lambda c: (-table.get(c[1], 0.0), c[0]))

    return learned


@dataclass
class PortfolioResult(SolveResult):
    """A :class:`SolveResult` plus warm-start provenance."""

    #: (label, root objective or None-if-invalid/infeasible) per warm start
    warm_starts: tuple[tuple[str, float | None], ...] = ()


class PortfolioSolver:
    """Anytime solver: warm-started, greedy-improved root, one B&B.

    Drop-in for :class:`BranchAndBound` wherever only ``solve`` is
    used; the result type extends :class:`SolveResult`.

    Parameters
    ----------
    node_budget:
        Explored-node budget of the search (deterministic truncation;
        root evaluations do not count against it).
    on_incumbent:
        Called with each improved :class:`Incumbent`, root ones
        included, as soon as it is found.
    clock:
        Timestamp mode for reported incumbents *and* the result's
        total ``wall_time_s``: ``wall`` uses real elapsed seconds
        (for benchmarking); ``nodes`` derives virtual timestamps from
        the deterministic explored-node count divided by
        :data:`NODE_RATE`, which keeps downstream consumers (the
        serving layer's update points and phase-completion times)
        fully reproducible.
    guide:
        Optional branch-score tables (``guide[variable][value]``,
        higher explores first) -- see :mod:`repro.learn.guide` and
        :func:`learned_order`.  ``None`` keeps the ascending-bound
        order.
    """

    def __init__(
        self,
        *,
        node_budget: int | None = None,
        on_incumbent: Callable[[Incumbent], None] | None = None,
        clock: str = "wall",
        guide: BranchGuide | None = None,
    ) -> None:
        if node_budget is not None and node_budget <= 0:
            raise ValueError("node_budget must be positive")
        if clock not in ("wall", "nodes"):
            raise ValueError(f"unknown clock {clock!r}")
        self.node_budget = node_budget
        self.on_incumbent = on_incumbent
        self.clock = clock
        self.guide = guide

    # ------------------------------------------------------------------
    @staticmethod
    def _valid_seed(problem: Problem, assignment: Assignment) -> bool:
        """A usable warm start covers every variable from its domain."""
        for v in problem.variables:
            if v.name not in assignment or assignment[v.name] not in v.domain:
                return False
        return True

    # ------------------------------------------------------------------
    def solve(
        self,
        problem: Problem,
        *,
        initial: Assignment | None = None,
        seeds: Sequence[Assignment | tuple[str, Assignment]] = (),
        verify: bool = False,
    ) -> PortfolioResult:
        """Minimize ``problem`` from the best warm start.

        ``seeds`` are warm-start assignments, optionally labeled for
        provenance (``(label, assignment)``); invalid or infeasible
        seeds are skipped.  ``verify=True`` audits the result -- every
        incumbent, strict improvement, monotone progress counters --
        through the independent certificate checker and raises
        :class:`repro.analysis.CertificateError` on any violation.
        """
        start = monotonic_s()
        incumbents: list[Incumbent] = []
        #: root evaluations, then the search's explored-node count
        root_nodes = 0
        search_nodes = 0
        last_ts = 0.0

        def timestamp() -> float:
            if self.clock == "nodes":
                return (root_nodes + search_nodes) / NODE_RATE
            return monotonic_s() - start

        def record(assignment: Mapping[str, Any], objective: float) -> None:
            nonlocal last_ts
            if incumbents and objective >= incumbents[-1].objective:
                return
            last_ts = max(last_ts, timestamp())
            inc = Incumbent(
                assignment=dict(assignment),
                objective=objective,
                wall_time_s=last_ts,
                nodes_explored=root_nodes + search_nodes,
            )
            incumbents.append(inc)
            if self.on_incumbent is not None:
                self.on_incumbent(inc)

        # -- root: warm starts and greedy improvement ------------------
        labeled: list[tuple[str, Assignment]] = []
        if initial is not None:
            labeled.append(("initial", initial))
        for k, entry in enumerate(seeds):
            if (
                isinstance(entry, tuple)
                and len(entry) == 2
                and isinstance(entry[0], str)
            ):
                labeled.append(entry)
            else:
                labeled.append((f"seed{k}", entry))  # type: ignore[arg-type]
        warm_log: list[tuple[str, float | None]] = []
        for label, assignment in labeled:
            objective = None
            if self._valid_seed(problem, assignment):
                root_nodes += 1
                try:
                    objective = problem.evaluate(assignment)
                except Infeasible:
                    objective = None
            warm_log.append((label, objective))
            if objective is not None:
                record(assignment, objective)

        if incumbents:
            root = incumbents[-1]
            for assignment, objective, evals in _greedy_improvements(
                problem, root.assignment, root.objective
            ):
                root_nodes += evals
                record(assignment, objective)

        # -- search: one B&B seeded with the best root incumbent -------
        def on_incumbent(inc: Incumbent) -> None:
            nonlocal search_nodes
            search_nodes = inc.nodes_explored
            record(inc.assignment, inc.objective)

        solver = BranchAndBound(
            node_budget=self.node_budget,
            on_incumbent=on_incumbent,
            child_order=(
                learned_order(self.guide) if self.guide is not None else None
            ),
        )
        result = solver.solve(
            problem,
            initial=dict(incumbents[-1].assignment) if incumbents else None,
        )
        search_nodes = result.nodes_explored
        merged = PortfolioResult(
            best=incumbents[-1] if incumbents else None,
            optimal=result.optimal,
            nodes_explored=root_nodes + search_nodes,
            wall_time_s=timestamp(),
            incumbents=incumbents,
            warm_starts=tuple(warm_log),
        )
        if verify:
            # deferred: repro.analysis imports the solver package
            from repro.analysis.diagnostics import require
            from repro.analysis.verify import verify_solve

            require(verify_solve(problem, merged), "PortfolioSolver.solve")
        return merged


def _greedy_improvements(
    problem: Problem,
    assignment: Mapping[str, Any],
    objective: float,
) -> Iterator[tuple[dict[str, Any], float, int]]:
    """Best-response sweeps from a warm start, yielding improvements.

    Deterministic: variables in declaration order, values in domain
    order, one reassignment per variable per sweep.  Yields
    ``(assignment, objective, evaluations)`` triples so the caller can
    account the work in its deterministic progress clock.
    """
    current = dict(assignment)
    current_objective = objective
    for _ in range(GREEDY_SWEEPS):
        improved = False
        for variable in problem.variables:
            held = current[variable.name]
            best_value, best_objective, evals = held, current_objective, 0
            for value in variable.domain:
                if value == held:
                    continue
                candidate = dict(current)
                candidate[variable.name] = value
                evals += 1
                try:
                    cand_objective = problem.evaluate(candidate)
                except Infeasible:
                    continue
                if cand_objective < best_objective:
                    best_value, best_objective = value, cand_objective
            if best_value != held:
                current[variable.name] = best_value
                current_objective = best_objective
                improved = True
                yield dict(current), current_objective, evals
            elif evals:
                yield dict(current), current_objective, evals
        if not improved:
            break
