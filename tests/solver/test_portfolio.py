"""Unit tests for the anytime solver (warm-started root, one B&B)."""

from __future__ import annotations

import hashlib

import pytest

from repro.solver import (
    PortfolioSolver,
    Problem,
    Variable,
    solve_exhaustive,
)
from repro.solver import portfolio
from repro.solver.random_instances import InstanceSpec, random_problem
from tests.learn.test_guide_differential import synthetic_guide


def small_problem():
    return random_problem(11, InstanceSpec(variables=4, max_domain=4))


def canonical(result):
    """Every incumbent (assignment, objective, nodes, timestamp), the
    warm-start log and the totals, one line each, floats by repr."""
    lines = [
        f"inc {sorted(i.assignment.items())!r} {i.objective!r} "
        f"{i.nodes_explored} {i.wall_time_s!r}"
        for i in result.incumbents
    ]
    lines.append(f"warm {list(result.warm_starts)!r}")
    lines.append(
        f"done {result.optimal} {result.nodes_explored} "
        f"{result.wall_time_s!r}"
    )
    return "\n".join(lines)


def labelled_seeds(problem):
    """One valid, one out-of-domain and one partial warm start."""
    names = [v.name for v in problem.variables]
    return [
        ("valid", {v.name: v.domain[-1] for v in problem.variables}),
        ("bogus", {name: 999 for name in names}),
        ("partial", {names[0]: problem.variables[0].domain[0]}),
    ]


# -- golden traces -----------------------------------------------------

#: sha256 of the canonical traces of random_problem seeds 0-11 (5x5
#: spec), each unguided and guided, each without seeds and with
#: :func:`labelled_seeds`, under the node clock.  Recorded from the
#: serial path of the former strategy-racing portfolio: the anytime
#: solver must reproduce every incumbent, node count, timestamp and
#: warm-start entry exactly.
GOLDEN_RANDOM_SHA256 = (
    "c104a7db7f9e35084b815c7c8734d214637b1d5fef167147a4dada0f412b0588"
)

#: canonical trace of ``HaXCoNN(solver="portfolio",
#: solver_clock="nodes", max_groups=6, max_transitions=1)`` on
#: googlenet+resnet101 (latency) on xavier, plus the adopted schedule
GOLDEN_XAVIER = """\
inc [('dnn0', ('gpu', 'gpu', 'gpu', 'gpu', 'gpu', 'gpu')), ('dnn1', ('gpu', 'gpu', 'gpu', 'gpu', 'gpu', 'gpu'))] 0.008693646905769044 1 0.0005
inc [('dnn0', ('gpu', 'gpu', 'gpu', 'gpu', 'gpu', 'gpu')), ('dnn1', ('dla', 'dla', 'gpu', 'gpu', 'gpu', 'gpu'))] 0.008283854566418643 8 0.004
warm [('gpu-only', 0.008693646905769044), ('best-isolated', 0.008693646905769044), ('spread', 0.008693646905769044)]
done True 15 0.0075
[('gpu', 'gpu', 'gpu', 'gpu', 'gpu', 'gpu'), ('dla', 'dla', 'gpu', 'gpu', 'gpu', 'gpu')]
"""  # noqa: E501


def test_golden_random_traces():
    out = []
    for seed in range(12):
        problem = random_problem(
            seed, InstanceSpec(variables=5, max_domain=5)
        )
        for guided in (False, True):
            guide = synthetic_guide(problem, salt=seed) if guided else None
            for seeds in ((), labelled_seeds(problem)):
                result = PortfolioSolver(clock="nodes", guide=guide).solve(
                    problem, seeds=seeds
                )
                out.append(
                    f"# seed={seed} guided={guided} seeds={len(seeds)}"
                )
                out.append(canonical(result))
    text = "\n".join(out) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_RANDOM_SHA256


def test_golden_xavier_schedule(xavier, xavier_db):
    from repro.core.haxconn import HaXCoNN
    from repro.core.workload import Workload

    scheduler = HaXCoNN(
        xavier,
        db=xavier_db,
        max_groups=6,
        max_transitions=1,
        solver="portfolio",
        solver_backend="serial",
        solver_clock="nodes",
    )
    result = scheduler.schedule(
        Workload.concurrent("googlenet", "resnet101", objective="latency")
    )
    text = (
        canonical(result.solver)
        + "\n"
        + repr([d.assignment for d in result.schedule.per_dnn])
        + "\n"
    )
    assert text == GOLDEN_XAVIER


# -- determinism -------------------------------------------------------


def test_virtual_clock_is_monotone_and_node_derived():
    result = PortfolioSolver(clock="nodes").solve(
        small_problem(), seeds=labelled_seeds(small_problem())
    )
    times = [i.wall_time_s for i in result.incumbents]
    assert times == sorted(times)
    for inc in result.incumbents:
        assert inc.wall_time_s == inc.nodes_explored / portfolio.NODE_RATE
    assert result.wall_time_s == result.nodes_explored / portfolio.NODE_RATE


# -- warm starts -------------------------------------------------------


def test_seed_validation_drops_out_of_domain_seeds():
    problem = small_problem()
    names = [v.name for v in problem.variables]
    bogus = {name: 999 for name in names}  # not in any domain
    partial = {names[0]: problem.variables[0].domain[0]}  # incomplete
    result = PortfolioSolver().solve(
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
    result = PortfolioSolver().solve(problem, seeds=[("oracle", optimum)])
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
    with_greedy = PortfolioSolver().solve(problem, seeds=seeds)
    monkeypatch.setattr(portfolio, "GREEDY_SWEEPS", 0)
    without = PortfolioSolver().solve(problem, seeds=seeds)
    assert with_greedy.optimal and without.optimal
    assert with_greedy.best.objective == pytest.approx(
        without.best.objective
    )


# -- budgets and errors -----------------------------------------------


def test_node_budget_truncates_without_certifying():
    problem = random_problem(2, InstanceSpec(variables=6, max_domain=5))
    result = PortfolioSolver(clock="nodes", node_budget=5).solve(problem)
    assert not result.optimal
    # no seeds, so no root evaluations: every node is a search node,
    # and the budget is checked between nodes
    assert result.nodes_explored <= 5 + max(
        len(v.domain) for v in problem.variables
    )


def test_objective_errors_propagate():
    def explode(model):
        raise ZeroDivisionError("boom")

    problem = Problem(
        variables=[Variable("x", (0, 1))], objective=explode
    )
    with pytest.raises(ZeroDivisionError, match="boom"):
        PortfolioSolver().solve(problem)


# -- configuration errors ---------------------------------------------

#: knobs of the removed strategy race: unknown keywords now
REMOVED_KNOBS = {"workers", "sync_every", "backend"}


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
    error = TypeError if REMOVED_KNOBS & set(kwargs) else ValueError
    with pytest.raises(error):
        PortfolioSolver(**kwargs)
