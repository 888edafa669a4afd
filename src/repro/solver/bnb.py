"""Anytime branch-and-bound over finite-domain problems.

Depth-first search with admissible-lower-bound pruning and value
ordering by child bound.  Once an incumbent exists, a lookahead walks
ahead of the search in its own order and hands the next ``LOOKAHEAD``
leaves it can read, across subtrees, to ``Problem.frontier_evaluate``
in one batch; the explored tree does not depend on it.  Every
improved incumbent is recorded with a wall-clock timestamp and
explored-node count and reported through an optional callback -- the
hook D-HaX-CoNN uses to swap schedules in mid-flight (paper Section
3.5 / Fig. 7).

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

#: Most leaves one lookahead hands to ``Problem.frontier_evaluate``:
#: wide enough to keep the lockstep engine's batches wide across
#: subtrees, short enough that few warmed leaves fall behind a limit
#: that tightens inside the window (256 beat 128, 512 and 8192 on the
#: perfbench ``solve-cold`` catalogue).
LOOKAHEAD = 256


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


def _order(
    prices: Sequence[float | None], variable: Variable
) -> list[tuple[float, Any]]:
    """The feasible children ``(bound, value)``, cheapest bound first."""
    return sorted(
        ((b, v) for b, v in zip(prices, variable.domain) if b is not None),
        key=lambda c: c[0],
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
        self.names = tuple(v.name for v in problem.variables)
        #: per depth of the current path: the node's ordered children
        #: and the index of the one being explored
        self.frames: list[tuple[list[tuple[float, Any]], int]] = [
            ([], 0)
        ] * len(problem.variables)
        #: child prices of the nodes the last lookahead expanded, by path
        self.priced: dict[tuple[Any, ...], list[float | None]] = {}
        #: leaves the last lookahead handed over and the search has not
        #: read yet
        self.warmed: set[tuple[Any, ...]] = set()

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

    def _children(
        self, partial: dict[str, Any], variable: Variable
    ) -> list[float | None]:
        """``_price`` of each value of ``variable`` (which ``partial``
        lacks on entry and exit), in domain order."""
        bounds_vec = self._bounds(partial, variable)
        prices = []
        for i, value in enumerate(variable.domain):
            partial[variable.name] = value
            prices.append(self._price(partial, bounds_vec, i))
        partial.pop(variable.name, None)
        return prices

    def _lookahead(self, leaf: tuple[Any, ...]) -> None:
        """Hand ``leaf`` and the leaves the search may read after it,
        at most ``LOOKAHEAD``, to ``frontier_evaluate`` in one batch.

        The walk follows the search's own order -- the rest of
        ``leaf``'s siblings, then each ancestor's remaining children,
        deepest first -- under the current limit, expanding nodes with
        the calls the search makes and charging the node budget as it
        does.  The limit only tightens, so the walk expands a superset
        of what the search will and stops no later than the budget
        does.  The expanded nodes' child prices go to ``priced`` for
        the search to reuse: pricing reads only the partial, never the
        incumbent.  Node counts do not move.
        """
        variables = self.problem.variables
        n = len(variables)
        limit = self.limit()
        budget = self.cfg.node_budget
        nodes = self.nodes
        batch: list[tuple[Any, ...]] = []
        priced: dict[tuple[Any, ...], list[float | None]] = {}

        def walk(
            path: tuple[Any, ...],
            ordered: list[tuple[float, Any]],
            start: int,
        ) -> bool:
            """Visit ``ordered[start:]``, the children of ``path``;
            False once the window is full or the budget is out."""
            nonlocal nodes
            depth = len(path) + 1
            for bound, value in ordered[start:]:
                if budget is not None and nodes >= budget:
                    return False
                if bound >= limit:
                    continue
                child = path + (value,)
                if depth == n:
                    batch.append(child)
                    if len(batch) == LOOKAHEAD:
                        return False
                    continue
                variable = variables[depth]
                prices = self._children(dict(zip(self.names, child)), variable)
                priced[child] = prices
                nodes += len(variable.domain)
                if not walk(child, _order(prices, variable), 0):
                    return False
            return True

        for depth in range(n - 1, -1, -1):
            ordered, k = self.frames[depth]
            if not walk(leaf[:depth], ordered, k if depth == n - 1 else k + 1):
                break
        self.priced = priced
        self.warmed = set(batch)
        if len(batch) > 1:
            self.problem.frontier_evaluate(
                [dict(zip(self.names, a)) for a in batch]
            )

    def dfs(self, partial: dict[str, Any], depth: int) -> bool:
        """Explore the subtree; returns True when fully exhausted."""
        problem = self.problem
        if depth == len(problem.variables):
            # Leaf prewarm: once a finite limit exists, a leaf no
            # lookahead handed over starts the next one, which warms
            # the objective's memo for a window of leaves in one
            # vectorized pass.  Memo-warming only -- the hint's contract
            # (see Problem.frontier_evaluate) guarantees objective()
            # sees bit-identical results, so the tree does not depend
            # on it.
            leaf = tuple(partial.values())
            if leaf in self.warmed:
                self.warmed.remove(leaf)
            elif self.best is not None and problem.frontier_evaluate is not None:
                self._lookahead(leaf)
            try:
                objective = problem.objective(partial)
            except Infeasible:
                return True
            self.record(dict(partial), objective)
            return True

        variable = problem.variables[depth]
        prices = self.priced.pop(tuple(partial.values()), None)
        if prices is None:
            # one vectorized call prices the whole sibling set
            prices = self._children(partial, variable)
        self.nodes += len(variable.domain)
        ordered = _order(prices, variable)
        for k, (bound, value) in enumerate(ordered):
            if self.budget_exceeded():
                return False
            if bound >= self.limit():
                continue  # pruned subtrees are still fully accounted for
            self.frames[depth] = (ordered, k)
            partial[variable.name] = value
            exhausted = self.dfs(partial, depth + 1)
            partial.pop(variable.name)
            if not exhausted:
                return False
        return True
