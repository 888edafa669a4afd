"""Unit tests for the parallel anytime solver portfolio."""

from __future__ import annotations

import pytest

from repro.solver import (
    BranchAndBound,
    PortfolioSolver,
    Problem,
    StopSearch,
    Variable,
    default_strategies,
    solve_exhaustive,
)
from repro.solver import portfolio
from repro.solver.random_instances import InstanceSpec, random_problem


def trace(result):
    """Canonical representation of an incumbent sequence."""
    return [
        (
            tuple(sorted(i.assignment.items())),
            round(i.objective, 12),
            i.wall_time_s,
            i.nodes_explored,
        )
        for i in result.incumbents
    ]


def small_problem():
    return random_problem(11, InstanceSpec(variables=4, max_domain=4))


# -- determinism -------------------------------------------------------


def test_backends_produce_identical_traces():
    """fork, threads, and a repeat run share one incumbent trace.

    This is the portfolio's core guarantee: parallelism changes
    wall-clock, never the result (DESIGN.md's epoch argument).
    """
    for seed in range(12):
        problem = random_problem(
            seed, InstanceSpec(variables=5, max_domain=5)
        )
        results = [
            PortfolioSolver(
                workers=3,
                backend=backend,
                clock="nodes",
                sync_every=8,
                seed=7,
            ).solve(problem)
            for backend in ("threads", "fork", "fork")
        ]
        assert trace(results[0]) == trace(results[1]) == trace(results[2])
        assert len({r.optimal for r in results}) == 1
        assert len({r.nodes_explored for r in results}) == 1


def test_virtual_clock_is_monotone_and_node_derived():
    result = PortfolioSolver(
        workers=2,
        backend="threads",
        clock="nodes",
        sync_every=4,
    ).solve(small_problem())
    times = [i.wall_time_s for i in result.incumbents]
    assert times == sorted(times)
    for inc in result.incumbents:
        virtual_s = inc.nodes_explored / portfolio.NODE_RATE
        assert inc.wall_time_s <= virtual_s + 1e-12


# -- strategies --------------------------------------------------------


def test_default_strategies_are_prefix_stable():
    problem = small_problem()
    five = default_strategies(problem, 5, seed=3)
    three = default_strategies(problem, 3, seed=3)
    assert five[:3] == three
    assert len(five) == 5
    assert five[0].exact  # worker 0 always certifies


def test_strategy_orders_are_permutations():
    problem = small_problem()
    n = len(problem.variables)
    for strategy in default_strategies(problem, 8, seed=1):
        if strategy.order is not None:
            assert sorted(strategy.order) == list(range(n))


# -- warm starts -------------------------------------------------------


def test_seed_validation_drops_out_of_domain_seeds():
    problem = small_problem()
    names = [v.name for v in problem.variables]
    bogus = {name: 999 for name in names}  # not in any domain
    partial = {names[0]: problem.variables[0].domain[0]}  # incomplete
    result = PortfolioSolver(workers=1).solve(
        problem,
        seeds=[("bogus", bogus), ("partial", partial)],
    )
    assert dict(result.warm_starts) == {"bogus": None, "partial": None}
    # dropped seeds must not corrupt the search
    reference = solve_exhaustive(problem)
    assert result.optimal
    assert result.best.objective == pytest.approx(
        reference.best.objective
    )


def test_valid_seed_becomes_root_incumbent():
    problem = small_problem()
    reference = solve_exhaustive(problem)
    optimum = dict(reference.best.assignment)
    result = PortfolioSolver(workers=2, backend="threads").solve(
        problem, seeds=[("oracle", optimum)]
    )
    label, objective = result.warm_starts[0]
    assert label == "oracle"
    assert objective == pytest.approx(reference.best.objective)
    # the very first incumbent already is the seed
    assert result.incumbents[0].objective == pytest.approx(objective)
    assert result.optimal


def test_greedy_sweeps_only_improve(monkeypatch):
    problem = small_problem()
    seeds = [{v.name: v.domain[0] for v in problem.variables}]
    monkeypatch.setattr(portfolio, "GREEDY_SWEEPS", 2)
    with_greedy = PortfolioSolver(workers=1).solve(problem, seeds=seeds)
    monkeypatch.setattr(portfolio, "GREEDY_SWEEPS", 0)
    without = PortfolioSolver(workers=1).solve(problem, seeds=seeds)
    assert with_greedy.optimal and without.optimal
    assert with_greedy.best.objective == pytest.approx(
        without.best.objective
    )


# -- budgets and cooperation ------------------------------------------


def test_node_budget_truncates_without_certifying():
    problem = random_problem(2, InstanceSpec(variables=6, max_domain=5))
    result = PortfolioSolver(
        workers=2, backend="threads", node_budget=5, sync_every=2
    ).solve(problem)
    assert not result.optimal
    for stats in result.workers:
        assert stats.nodes <= 5 + 2  # budget checked between nodes


def test_stop_search_hook_aborts_bnb():
    calls = []

    def on_sync(nodes, best):
        calls.append(nodes)
        if len(calls) >= 2:
            raise StopSearch
        return None

    problem = random_problem(4, InstanceSpec(variables=5, max_domain=5))
    result = BranchAndBound(sync_every=3, on_sync=on_sync).solve(problem)
    assert len(calls) == 2
    assert not result.optimal


def test_external_bound_suppresses_worse_incumbents():
    problem = small_problem()
    optimum = solve_exhaustive(problem).best.objective

    result = BranchAndBound(
        sync_every=1, on_sync=lambda nodes, best: optimum
    ).solve(problem)
    # the bound equals the optimum: nothing strictly better exists, so
    # the search exhausts without recording -- a certificate that no
    # solution beats the external bound
    assert result.optimal
    assert all(i.objective < optimum for i in result.incumbents)


def test_worker_error_propagates():
    def explode(model):
        raise ZeroDivisionError("boom")

    problem = Problem(
        variables=[Variable("x", (0, 1))], objective=explode
    )
    with pytest.raises(RuntimeError, match="boom"):
        PortfolioSolver(workers=2, backend="threads").solve(problem)


# -- configuration errors ---------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"workers": 0},
        {"sync_every": 0},
        {"backend": "mpi"},
        {"clock": "lamport"},
        {"workers": -1},
        {"sync_every": -1},
        {"backend": "process"},
        {"node_budget": 0},
        {"node_budget": -1},
    ],
)
def test_invalid_configuration_rejected(kwargs):
    with pytest.raises(ValueError):
        PortfolioSolver(**kwargs)
