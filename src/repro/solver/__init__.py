"""Constraint-based optimizer: the reproduction's Z3 substitute.

The paper expresses scheduling (Section 3.4) as constraints plus an
objective and hands it to an SMT solver.  No SMT solver ships in this
environment, so this package provides a from-scratch **anytime
branch-and-bound optimizer** over finite-domain variables:

- admissible lower bounds give *certified optimality* (the property
  the paper gets from Z3),
- every improved incumbent is timestamped and reported through a
  callback, which is exactly the interface D-HaX-CoNN needs to swap
  progressively better schedules in at runtime (paper Fig. 7),
- the anytime solver (:mod:`repro.solver.portfolio`) starts that
  search from the best warm start, greedily improved,
- an exhaustive enumerator cross-checks optimality in the test suite.
"""

from repro.solver.problem import Problem, Variable, Infeasible
from repro.solver.bnb import BranchAndBound, SolveResult, Incumbent
from repro.solver.exhaustive import solve_exhaustive
from repro.solver.portfolio import PortfolioResult, PortfolioSolver

__all__ = [
    "Problem",
    "Variable",
    "Infeasible",
    "BranchAndBound",
    "SolveResult",
    "Incumbent",
    "solve_exhaustive",
    "PortfolioSolver",
    "PortfolioResult",
]
