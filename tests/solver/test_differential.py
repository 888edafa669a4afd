"""Differential tests: three solvers, one optimum.

Every solver in the package -- exhaustive enumeration (the independent
reference), branch and bound, and the anytime solver -- must report
the same optimal objective on the same instance, across a
seeded batch of >= 50 random problems and on real scheduling
workloads.  Incumbent sequences must be monotonically improving and
feasible throughout.
"""

from __future__ import annotations

import pytest

from repro.core.haxconn import HaXCoNN
from repro.core.workload import Workload
from repro.solver import (
    BranchAndBound,
    PortfolioSolver,
    solve_exhaustive,
)
from repro.solver.problem import Infeasible, Problem
from repro.solver.random_instances import (
    InstanceSpec,
    PROGRAMMABLE,
    ScheduleInstanceSpec,
    random_problem,
    random_schedule_problem,
)

SEEDS = range(60)


def assert_monotone_feasible(problem: Problem, incumbents) -> None:
    previous = float("inf")
    last_t, last_n = -1.0, -1
    for inc in incumbents:
        assert inc.objective < previous
        assert inc.wall_time_s >= last_t
        assert inc.nodes_explored >= last_n
        assert problem.evaluate(inc.assignment) == pytest.approx(
            inc.objective
        )
        previous = inc.objective
        last_t, last_n = inc.wall_time_s, inc.nodes_explored


@pytest.mark.parametrize("seed", SEEDS)
def test_random_instance_agreement(seed):
    problem = random_problem(seed)
    reference = solve_exhaustive(problem)
    expected = (
        reference.best.objective if reference.best is not None else None
    )

    bnb = BranchAndBound().solve(problem)
    assert bnb.optimal
    assert_monotone_feasible(problem, bnb.incumbents)

    portfolio = PortfolioSolver(clock="nodes").solve(problem)
    assert portfolio.optimal
    assert_monotone_feasible(problem, portfolio.incumbents)

    for label, got in (
        ("bnb", bnb.best.objective if bnb.best else None),
        (
            "portfolio",
            portfolio.best.objective if portfolio.best else None,
        ),
    ):
        if expected is None:
            assert got is None, f"{label} found a solution on an " \
                "instance exhaustive enumeration proves infeasible"
        else:
            assert got == pytest.approx(expected, rel=1e-12), label


def test_larger_instances_agree():
    spec = InstanceSpec(variables=6, max_domain=5)
    for seed in range(8):
        problem = random_problem(1000 + seed, spec)
        reference = solve_exhaustive(problem)
        portfolio = PortfolioSolver(clock="nodes").solve(problem)
        assert portfolio.optimal
        if reference.best is None:
            assert portfolio.best is None
        else:
            assert portfolio.best.objective == pytest.approx(
                reference.best.objective
            )


@pytest.mark.parametrize(
    "models",
    [
        ("alexnet", "resnet18"),
        ("googlenet", "mobilenet_v1"),
        ("vgg16", "resnet18", "googlenet"),
    ],
)
def test_real_workload_agreement(xavier, xavier_db, models):
    """2-3-network scheduling problems: all solvers hit one optimum."""
    scheduler = HaXCoNN(
        xavier, db=xavier_db, max_groups=3, max_transitions=1
    )
    workload = Workload.concurrent(*models)
    formulation, _ = scheduler.build_formulation(workload)
    problem = scheduler.build_problem(workload, formulation)

    reference = solve_exhaustive(problem)
    assert reference.best is not None

    bnb = BranchAndBound().solve(problem)
    portfolio = PortfolioSolver(clock="nodes").solve(
        problem,
        seeds=scheduler.contention_oblivious_seeds(
            workload, formulation, problem
        ),
    )
    assert bnb.optimal and portfolio.optimal
    assert bnb.best.objective == pytest.approx(reference.best.objective)
    assert portfolio.best.objective == pytest.approx(
        reference.best.objective
    )
    assert_monotone_feasible(problem, portfolio.incumbents)


@pytest.mark.parametrize("seed", SEEDS)
def test_schedule_instance_agreement(seed):
    """>2-DSA, transformer-bearing instances: one optimum everywhere."""
    problem = random_schedule_problem(seed)
    reference = solve_exhaustive(problem)
    expected = (
        reference.best.objective if reference.best is not None else None
    )

    bnb = BranchAndBound().solve(problem)
    assert bnb.optimal
    assert_monotone_feasible(problem, bnb.incumbents)

    portfolio = PortfolioSolver(clock="nodes").solve(problem)
    assert portfolio.optimal

    for label, got in (
        ("bnb", bnb.best.objective if bnb.best else None),
        (
            "portfolio",
            portfolio.best.objective if portfolio.best else None,
        ),
    ):
        if expected is None:
            assert got is None, label
        else:
            assert got == pytest.approx(expected, rel=1e-12), label


def test_schedule_instances_cover_widened_universe():
    """The 60-seed batch must actually exercise the new axes."""
    wide = transformer = segmented = 0
    for seed in SEEDS:
        problem = random_schedule_problem(seed)
        accels = {
            a for v in problem.variables for val in v.domain for a in val
        }
        if len(accels) > 2:
            wide += 1
        # a capability-restricted stream has fewer whole-network
        # options than the pool is wide
        for v in problem.variables:
            wholes = {val for val in v.domain if len(set(val)) == 1}
            if len(wholes) < len(accels):
                transformer += 1
                break
        if any(
            len(set(val)) > 1 for v in problem.variables for val in v.domain
        ):
            segmented += 1
    assert wide >= 10
    assert transformer >= 10
    assert segmented >= 30


def test_schedule_instance_determinism():
    spec = ScheduleInstanceSpec(streams=4, accels=4, transformer=0.8)
    for seed in (0, 7, 23):
        a = random_schedule_problem(seed, spec)
        b = random_schedule_problem(seed, spec)
        assert [v.domain for v in a.variables] == [
            v.domain for v in b.variables
        ]
        full = {v.name: v.domain[0] for v in a.variables}
        if a.feasible(full) and b.feasible(full):
            try:
                assert a.evaluate(full) == b.evaluate(full)
            except Infeasible:
                with pytest.raises(Infeasible):
                    b.evaluate(full)


def test_all_infeasible_instance_agreement():
    problem = random_problem(3)
    blocked = Problem(
        variables=problem.variables,
        objective=problem.objective,
        constraints=[lambda m: False],
        lower_bound=problem.lower_bound,
    )
    assert solve_exhaustive(blocked).best is None
    bnb = BranchAndBound().solve(blocked)
    assert bnb.best is None and bnb.optimal
    portfolio = PortfolioSolver().solve(blocked)
    assert portfolio.best is None and portfolio.optimal
    with pytest.raises(Infeasible):
        _ = portfolio.assignment
