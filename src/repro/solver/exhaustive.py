"""Exhaustive enumeration: the optimality cross-check.

Used by the test suite to certify that branch-and-bound returns true
optima, and by small scheduling instances where enumeration is cheap.
"""

from __future__ import annotations

import itertools

from repro.solver.bnb import Incumbent, SolveResult
from repro.solver.problem import Infeasible, Problem


def solve_exhaustive(problem: Problem) -> SolveResult:
    """Evaluate every assignment; return the certified optimum."""
    best: Incumbent | None = None
    nodes = 0
    names = [v.name for v in problem.variables]
    for values in itertools.product(*(v.domain for v in problem.variables)):
        nodes += 1
        assignment = dict(zip(names, values))
        try:
            if not problem.feasible(assignment):
                continue
            objective = problem.objective(assignment)
        except Infeasible:
            continue
        if best is None or objective < best.objective:
            best = Incumbent(
                assignment=assignment,
                objective=objective,
                wall_time_s=0.0,
                nodes_explored=nodes,
            )
    return SolveResult(
        best=best,
        optimal=True,
        nodes_explored=nodes,
        wall_time_s=0.0,
        incumbents=[best] if best else [],
    )
