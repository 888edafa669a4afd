"""Anytime branch-and-bound over finite-domain problems.

Depth-first search with admissible-lower-bound pruning and value
ordering by child bound.  Every improved incumbent is recorded with a
wall-clock timestamp and explored-node count and reported through an
optional callback -- the hook D-HaX-CoNN uses to swap schedules in
mid-flight (paper Section 3.5 / Fig. 7).

When the search finishes without hitting its node budget, the returned
result is *certified optimal* (the property the paper obtains from Z3).

The anytime solver (:mod:`repro.solver.portfolio`) wraps this search
with a warm-started root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.solver.clock import monotonic_s
from repro.solver.problem import Assignment, Infeasible, Problem, Variable

_INF = float("inf")


@dataclass(frozen=True)
class Incumbent:
    """A feasible solution found during the search."""

    assignment: dict[str, Any]
    objective: float
    wall_time_s: float
    nodes_explored: int


@dataclass
class SolveResult:
    """Outcome of a branch-and-bound run."""

    best: Incumbent | None
    optimal: bool
    nodes_explored: int
    wall_time_s: float
    incumbents: list[Incumbent] = field(default_factory=list)

    @property
    def assignment(self) -> dict[str, Any]:
        if self.best is None:
            raise Infeasible("no feasible assignment found")
        return self.best.assignment

    @property
    def objective(self) -> float:
        if self.best is None:
            raise Infeasible("no feasible assignment found")
        return self.best.objective


class BranchAndBound:
    """Configurable anytime solver.

    Parameters
    ----------
    node_budget:
        Stop once this many nodes are explored; the result is then the
        best incumbent so far and ``optimal`` is ``False`` (unless the
        tree was exhausted first).  Every child of a node is counted
        when its sibling set is priced, and the budget is checked
        before each child subtree, so a truncated search ends with
        ``node_budget <= nodes_explored < node_budget + widest
        domain``.  Truncation by node count is deterministic, which is
        why the solver has no wall-clock budget.
    on_incumbent:
        Called with each :class:`Incumbent` as soon as it is found.
    """

    def __init__(
        self,
        *,
        node_budget: int | None = None,
        on_incumbent: Callable[[Incumbent], None] | None = None,
    ) -> None:
        if node_budget is not None and node_budget <= 0:
            raise ValueError("node_budget must be positive")
        self.node_budget = node_budget
        self.on_incumbent = on_incumbent

    def solve(
        self,
        problem: Problem,
        *,
        initial: Assignment | None = None,
    ) -> SolveResult:
        """Minimize ``problem``; optionally seed with a known solution.

        The seed (D-HaX-CoNN's "initial best naive schedule") is
        evaluated first so pruning starts immediately and the solver
        can never return anything worse.
        """
        start = monotonic_s()
        state = _SearchState(problem, self, start)
        if initial is not None:
            try:
                obj = problem.evaluate(initial)
            except Infeasible:
                pass
            else:
                state.record(dict(initial), obj)
        exhausted = state.dfs({}, 0)
        return SolveResult(
            best=state.best,
            optimal=exhausted,
            nodes_explored=state.nodes,
            wall_time_s=monotonic_s() - start,
            incumbents=state.incumbents,
        )


class _SearchState:
    def __init__(
        self, problem: Problem, cfg: BranchAndBound, start: float
    ) -> None:
        self.problem = problem
        self.cfg = cfg
        self.start = start
        self.nodes = 0
        self.best: Incumbent | None = None
        self.incumbents: list[Incumbent] = []

    def limit(self) -> float:
        """Current upper bound: the incumbent's objective."""
        return self.best.objective if self.best is not None else _INF

    # -- bookkeeping -----------------------------------------------------
    def record(self, assignment: dict[str, Any], objective: float) -> None:
        if objective >= self.limit():
            return
        inc = Incumbent(
            assignment=assignment,
            objective=objective,
            wall_time_s=monotonic_s() - self.start,
            nodes_explored=self.nodes,
        )
        self.best = inc
        self.incumbents.append(inc)
        if self.cfg.on_incumbent is not None:
            self.cfg.on_incumbent(inc)

    def budget_exceeded(self) -> bool:
        budget = self.cfg.node_budget
        return budget is not None and self.nodes >= budget

    def _reach(self, width: int) -> int | None:
        """How many more leaf-parents of ``width`` leaves the search
        can read leaves of before the node budget stops it (``None``
        without a budget).

        Visiting a leaf-parent costs exactly ``width`` nodes (its
        sibling set) and leaves cost none, so the k-th leaf-parent
        visited from here reads its leaves only while
        ``nodes + k * width < node_budget``.  Called while the budget
        still allows a visit.
        """
        budget = self.cfg.node_budget
        if budget is None:
            return None
        return (budget - self.nodes - 1) // width

    # -- search ----------------------------------------------------------
    def _bounds(
        self, partial: dict[str, Any], variable: Variable
    ) -> Sequence[float] | None:
        """Vectorized bounds of ``variable``'s children, if available.

        Called before the caller mutates ``partial`` in place.
        """
        if self.problem.child_bounds is None:
            return None
        return self.problem.child_bounds(partial, variable)

    def _price(
        self,
        partial: dict[str, Any],
        bounds_vec: Sequence[float] | None,
        i: int,
    ) -> float | None:
        """Bound of ``partial`` (its last variable set to domain value
        ``i``), or ``None`` when the child is infeasible."""
        problem = self.problem
        try:
            if not problem.feasible(partial):
                return None
            if bounds_vec is not None:
                return float(bounds_vec[i])
            if problem.lower_bound is not None:
                return problem.lower_bound(partial)
            return float("-inf")
        except Infeasible:
            # constraints and bounds may signal infeasibility the
            # same way objectives do; the subtree is dead either way
            return None

    def _prewarm(
        self,
        warm: Callable[[Sequence[Assignment]], None],
        partial: dict[str, Any],
        variable: Variable,
        children: Sequence[tuple[float, Any]],
    ) -> dict[Any, list[float | None]]:
        """Hand every leaf under ``children`` that the search can
        still read to ``warm`` (``frontier_evaluate``) in one batch.

        ``children`` are values of ``variable``, the branching variable
        of a leaf-grandparent; ``partial`` lacks it on entry and exit.
        Leaves are priced with the calls the search loop makes, and the
        batch stops at the node budget's reach (:meth:`_reach`), so it
        holds exactly the leaves the loop can still read: the limit
        only tightens, and the budget cuts the leaf-parents in the
        order the loop visits them.  Returns those prices (``_price``
        per leaf, in domain order) keyed by the leaf-parent values it
        covered, for the leaf-parents' own sibling loops: pricing reads
        only the partial, never the incumbent.  Node counts do not
        move.
        """
        leaf = self.problem.variables[-1]
        limit = self.limit()
        reach = self._reach(len(leaf.domain))
        frontier: list[dict[str, Any]] = []
        priced: dict[Any, list[float | None]] = {}
        for bound, value in children:
            if bound >= limit:
                continue
            if len(priced) == reach:
                break
            partial[variable.name] = value
            bounds_vec = self._bounds(partial, leaf)
            prices: list[float | None] = []
            priced[value] = prices
            for i, leaf_value in enumerate(leaf.domain):
                partial[leaf.name] = leaf_value
                b = self._price(partial, bounds_vec, i)
                prices.append(b)
                if b is not None and b < limit:
                    frontier.append(dict(partial))
            partial.pop(leaf.name, None)
        partial.pop(variable.name, None)
        if len(frontier) > 1:
            warm(frontier)
        return priced

    def dfs(
        self,
        partial: dict[str, Any],
        depth: int,
        priced: Sequence[float | None] | None = None,
    ) -> bool:
        """Explore the subtree; returns True when fully exhausted.

        ``priced`` holds this node's child prices when a prewarm has
        already computed them (see :meth:`_prewarm`)."""
        problem = self.problem
        n_vars = len(problem.variables)
        if depth == n_vars:
            try:
                objective = problem.objective(partial)
            except Infeasible:
                return True
            self.record(dict(partial), objective)
            return True

        variable = problem.variables[depth]
        # one vectorized call prices the whole sibling set; evaluated
        # before the loop because the partial is mutated in place below
        bounds_vec = self._bounds(partial, variable) if priced is None else None
        children: list[tuple[float, Any]] = []
        for i, value in enumerate(variable.domain):
            self.nodes += 1
            if priced is None:
                partial[variable.name] = value
                bound = self._price(partial, bounds_vec, i)
            else:
                bound = priced[i]
            if bound is not None:
                children.append((bound, value))
        partial.pop(variable.name, None)

        ordered = sorted(children, key=lambda c: c[0])
        # Leaf prewarm: batch-evaluate the leaves the search is about
        # to reach, warming the objective's memo in one vectorized
        # pass.  Memo-warming only -- the hint's contract (see
        # Problem.frontier_evaluate) guarantees the leaves' objective()
        # calls see bit-identical results, so the explored tree does
        # not depend on it.  The lockstep engine pays off only on wide
        # batches, so a leaf-grandparent warms all the surviving leaves
        # the budget lets it read at once, as soon as a finite limit
        # prunes them; a leaf-parent its grandparent did not cover (no
        # limit yet, a single variable, or reached past the budget cap
        # once capped siblings were pruned) warms its own siblings,
        # unless its own sibling set used up the budget.
        warm = problem.frontier_evaluate
        if (
            warm is not None
            and depth + 1 == n_vars
            and priced is None
            and not self.budget_exceeded()
        ):
            limit = self.limit()
            frontier = [
                {**partial, variable.name: value}
                for bound, value in ordered
                if bound < limit
            ]
            if len(frontier) > 1:
                warm(frontier)
        grand_warm = warm if depth + 2 == n_vars else None
        exhausted = True
        # the leaf-parents this grandparent's prewarm covered, with
        # their children's prices (None until it prewarms)
        leaf_prices: dict[Any, list[float | None]] | None = None
        for k, (bound, value) in enumerate(ordered):
            if self.budget_exceeded():
                return False
            if bound >= self.limit():
                continue  # pruned subtrees are still fully accounted for
            if (
                grand_warm is not None
                and leaf_prices is None
                and self.limit() < _INF
            ):
                leaf_prices = self._prewarm(
                    grand_warm, partial, variable, ordered[k:]
                )
            partial[variable.name] = value
            covered = leaf_prices.get(value) if leaf_prices else None
            if not self.dfs(partial, depth + 1, covered):
                exhausted = False
                partial.pop(variable.name, None)
                return False
            partial.pop(variable.name, None)
        return exhausted
