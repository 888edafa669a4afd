"""A small Z3-``Optimize``-style facade over the branch-and-bound core.

The paper expresses its scheduling problem through an SMT solver's API
(declare variables, assert constraints, minimize an objective).  This
module offers the same ergonomics so the HaX-CoNN formulation reads
like the paper's artifact code, while the solving is done by
:class:`~repro.solver.bnb.BranchAndBound`:

>>> opt = Optimizer()
>>> x = opt.enum_var("x", [0, 1, 2])
>>> y = opt.enum_var("y", [0, 1])
>>> opt.add(lambda m: m["x"] + m["y"] <= 2)
>>> opt.minimize(lambda m: -(m["x"] + 2 * m["y"]))
>>> model = opt.check()
>>> model["x"], model["y"]
(1, 1)
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Mapping, Sequence

from repro.solver.bnb import BranchAndBound, SolveResult
from repro.solver.problem import Assignment, Infeasible, Problem, Variable


class Unsatisfiable(Infeasible):
    """No assignment satisfies the asserted constraints."""


class EnumVar:
    """Handle to a declared variable; resolves itself in a model."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __call__(self, model: Mapping[str, Any]) -> Any:
        return model[self.name]

    def __repr__(self) -> str:
        return f"EnumVar({self.name!r})"


class Optimizer:
    """Declare-assert-minimize interface (the Z3 ``Optimize`` shape).

    Constraints are predicates over a (possibly partial) model dict and
    must be *monotone*: once false on a partial assignment they stay
    false on every extension.  Predicates may safely use ``m.get`` for
    variables that might not be assigned yet; accessing a missing key
    raises and the constraint is treated as not-yet-violated.
    """

    def __init__(
        self,
        *,
        node_budget: int | None = None,
        verify: bool = False,
    ) -> None:
        self._verify = verify
        self._variables: list[Variable] = []
        self._constraints: list[Callable[[Assignment], bool]] = []
        self._objective: Callable[[Assignment], float] | None = None
        self._lower_bound: Callable[[Assignment], float] | None = None
        self._solver = BranchAndBound(node_budget=node_budget)
        self._last: SolveResult | None = None

    # -- declaration -------------------------------------------------
    def enum_var(self, name: str, domain: Sequence[Hashable]) -> EnumVar:
        """Declare a finite-domain variable."""
        self._variables.append(Variable(name, tuple(domain)))
        return EnumVar(name)

    def bool_var(self, name: str) -> EnumVar:
        """Declare a boolean variable (domain {False, True})."""
        return self.enum_var(name, (False, True))

    def int_var(self, name: str, lo: int, hi: int) -> EnumVar:
        """Declare a bounded integer variable."""
        if hi < lo:
            raise ValueError(f"{name}: empty range [{lo}, {hi}]")
        return self.enum_var(name, tuple(range(lo, hi + 1)))

    # -- assertions ----------------------------------------------------
    def add(self, constraint: Callable[[Assignment], bool]) -> None:
        """Assert a monotone constraint over the model."""

        def guarded(model: Assignment) -> bool:
            try:
                return bool(constraint(model))
            except KeyError:
                return True  # not decidable yet on this partial model

        self._constraints.append(guarded)

    def minimize(
        self,
        objective: Callable[[Assignment], float],
        *,
        lower_bound: Callable[[Assignment], float] | None = None,
    ) -> None:
        """Set the objective (replaces any previous one)."""
        self._objective = objective
        self._lower_bound = lower_bound

    def maximize(
        self, objective: Callable[[Assignment], float]
    ) -> None:
        """Set a maximization objective."""
        self._objective = lambda m: -objective(m)
        self._lower_bound = None

    # -- solving -----------------------------------------------------
    def check(self) -> dict[str, Any]:
        """Solve; return the optimal model or raise Unsatisfiable.

        Every infeasibility signal -- constraints that return False,
        constraints or objectives that raise :class:`Infeasible`, or an
        empty search -- surfaces as :class:`Unsatisfiable`, never as a
        bare :class:`Infeasible`.
        """
        if not self._variables:
            raise ValueError("no variables declared")
        problem = Problem(
            variables=self._variables,
            objective=self._objective or (lambda m: 0.0),
            constraints=self._constraints,
            lower_bound=self._lower_bound,
        )
        try:
            self._last = self._solver.solve(problem, verify=self._verify)
        except Infeasible as exc:
            # user-supplied hooks may signal infeasibility by raising;
            # the documented contract is the Unsatisfiable subclass
            raise Unsatisfiable(str(exc)) from exc
        if self._last.best is None:
            raise Unsatisfiable(
                "constraints admit no assignment "
                f"(explored {self._last.nodes_explored} nodes)"
            )
        return dict(self._last.best.assignment)

    @property
    def statistics(self) -> SolveResult:
        """Solver statistics of the last :meth:`check` call."""
        if self._last is None:
            raise RuntimeError("check() has not been called")
        return self._last
