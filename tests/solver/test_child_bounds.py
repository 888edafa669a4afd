"""Vectorized sibling bounds must match the scalar bound bit for bit.

``Problem.child_bounds`` prices a node's whole child set in one NumPy
pass; identical floats are load-bearing (identical bounds -> identical
prune decisions -> identical search trees and incumbent streams), so
equality here is exact ``==``, never approx.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from repro.core.haxconn import HaXCoNN
from repro.core.workload import Workload
from repro.profiling.database import ProfileDB
from repro.soc.platform import available_platforms, get_platform
from repro.solver import BranchAndBound
from repro.solver.problem import Infeasible

OBJECTIVES = ("latency", "throughput", "energy")


def build_problem(xavier, xavier_db, objective):
    scheduler = HaXCoNN(
        xavier, db=xavier_db, max_groups=3, max_transitions=1
    )
    workload = Workload.concurrent(
        "alexnet", "resnet18", objective=objective
    )
    formulation, _ = scheduler.build_formulation(workload)
    return scheduler.build_problem(workload, formulation)


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_child_bounds_equal_scalar_bound_bitwise(
    xavier, xavier_db, objective
):
    """Every (partial, branch variable, domain value): the vectorized
    entry equals ``lower_bound`` on the extended partial exactly."""
    problem = build_problem(xavier, xavier_db, objective)
    assert problem.child_bounds is not None
    assert problem.lower_bound is not None
    v0, v1 = problem.variables

    partials = [{}]
    partials += [{v0.name: a} for a in v0.domain[:6]]
    partials += [{v1.name: a} for a in v1.domain[:4]]
    for partial in partials:
        variable = v1 if v0.name in partial else v0
        before = dict(partial)
        vec = problem.child_bounds(partial, variable)
        assert partial == before, "child_bounds mutated the partial"
        assert len(vec) == len(variable.domain)
        for i, value in enumerate(variable.domain):
            extended = {**partial, variable.name: value}
            assert float(vec[i]) == problem.lower_bound(extended), (
                f"{objective}: entry {i} diverges on {sorted(partial)}"
            )


def partials(problem):
    """Every partial assignment: each variable unassigned or fixed to
    one of its domain values (index tuples use ``None`` for unset)."""
    ranges = [(None, *range(len(v.domain))) for v in problem.variables]
    for idx in itertools.product(*ranges):
        partial = {
            v.name: v.domain[i]
            for v, i in zip(problem.variables, idx)
            if i is not None
        }
        yield idx, partial


@functools.lru_cache(maxsize=None)
def platform_db(name):
    platform = get_platform(name)
    return platform, ProfileDB(platform)


def real_problem(platform_name, models, objective, max_groups):
    platform, db = platform_db(platform_name)
    scheduler = HaXCoNN(
        platform, db=db, max_groups=max_groups, max_transitions=1
    )
    workload = Workload.concurrent(*models, objective=objective)
    formulation, _ = scheduler.build_formulation(workload)
    return formulation, scheduler.build_problem(workload, formulation)


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_child_bounds_equal_scalar_bound_bitwise_matcha_three_streams(
    objective,
):
    """A 3-stream mix on the 4-DSA ``matcha`` platform: every partial,
    branched on every unassigned variable, so the shared per-DSA busy
    table sums assigned and branched streams on all four DSAs."""
    _, problem = real_problem(
        "matcha",
        ("mobilenet_v1", "googlenet", "resnet18"),
        objective,
        max_groups=3,
    )
    for _, partial in partials(problem):
        for variable in problem.variables:
            if variable.name in partial:
                continue
            vec = problem.child_bounds(partial, variable)
            for i, value in enumerate(variable.domain):
                extended = {**partial, variable.name: value}
                assert float(vec[i]) == problem.lower_bound(extended), (
                    f"{variable.name}={value} diverges on {partial}"
                )


def per_stream_rate_bound(formulation, problem):
    """The former throughput bound, -sum_n repeats_n / chain_n: each
    stream priced at its own isolated chain time rather than at the
    round time every stream restarts on."""
    min_chain = [
        min(formulation.chain_time(n, a) for a in v.domain)
        for n, v in enumerate(problem.variables)
    ]

    def bound(partial):
        per_dnn = [
            formulation.chain_time(n, partial[v.name])
            if v.name in partial
            else min_chain[n]
            for n, v in enumerate(problem.variables)
        ]
        return -sum(
            r / t if t > 0 else float("inf")
            for r, t in zip(formulation.repeats, per_dnn)
        )

    return bound


MIXES = (
    (("vgg16", "resnet18"), 4),
    (("resnet18", "resnet101"), 4),
    (("mobilenet_v1", "googlenet", "resnet18"), 3),
)


@pytest.mark.parametrize("platform_name", available_platforms())
@pytest.mark.parametrize("objective", ("latency", "throughput"))
def test_round_time_bound_admissible_and_tighter(platform_name, objective):
    """For every partial assignment: the former per-stream-rate bound
    <= ``lower_bound`` <= the best objective over the partial's
    feasible completions, enumerated.

    The upper side allows a few ulps: the busy-time bound and the
    simulated makespan add the same layer times in different orders,
    so a serialized completion can round one ulp below its bound."""
    for models, max_groups in MIXES:
        formulation, problem = real_problem(
            platform_name, models, objective, max_groups
        )
        best = np.full([len(v.domain) for v in problem.variables], np.inf)
        for idx, partial in partials(problem):
            if None in idx or not problem.feasible(partial):
                continue
            try:
                best[idx] = problem.objective(partial)
            except Infeasible:
                pass
        rate_bound = per_stream_rate_bound(formulation, problem)
        for idx, partial in partials(problem):
            lb = problem.lower_bound(partial)
            opt = float(
                best[tuple(slice(None) if i is None else i for i in idx)].min()
            )
            assert lb <= opt + 4 * math.ulp(opt), (models, partial)
            if objective == "throughput":
                assert rate_bound(partial) <= lb, (models, partial)


def test_round_time_bound_explores_fewer_nodes_on_throughput():
    """Pinned instance: the round-time bound proves the same optimum
    in strictly fewer nodes than the per-stream-rate bound."""
    formulation, problem = real_problem(
        "xavier", ("vgg16", "resnet18"), "throughput", max_groups=4
    )
    old = dataclasses.replace(
        problem,
        lower_bound=per_stream_rate_bound(formulation, problem),
        child_bounds=None,
    )
    new_run = BranchAndBound().solve(problem)
    old_run = BranchAndBound().solve(old)
    assert new_run.optimal and old_run.optimal
    assert new_run.best.objective == old_run.best.objective
    assert new_run.nodes_explored < old_run.nodes_explored


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_bnb_tree_identical_with_and_without_child_bounds(
    xavier, xavier_db, objective
):
    """Stripping child_bounds (forcing the scalar per-child path) must
    reproduce the same tree: node count, incumbent objectives and
    assignments, certified optimum."""
    problem = build_problem(xavier, xavier_db, objective)
    scalar = dataclasses.replace(problem, child_bounds=None)

    fast = BranchAndBound().solve(problem)
    slow = BranchAndBound().solve(scalar)

    assert fast.optimal and slow.optimal
    assert fast.nodes_explored == slow.nodes_explored
    assert fast.best is not None and slow.best is not None
    assert fast.best.objective == slow.best.objective
    assert fast.best.assignment == slow.best.assignment
    assert [i.objective for i in fast.incumbents] == [
        i.objective for i in slow.incumbents
    ]
    assert [i.assignment for i in fast.incumbents] == [
        i.assignment for i in slow.incumbents
    ]


def test_subset_domains_gather_correctly(xavier, xavier_db):
    """Dominance reduction and portfolio permutation hand the solver
    variables whose domains are value-subsets of the originals; the
    bound tables index by *value*, so a trimmed domain must still
    price exactly like the scalar bound."""
    problem = build_problem(xavier, xavier_db, "latency")
    v0, v1 = problem.variables
    trimmed = dataclasses.replace(v1, domain=v1.domain[::2])
    assert trimmed.domain != v1.domain

    for fixed in v0.domain[:3]:
        partial = {v0.name: fixed}
        vec = problem.child_bounds(partial, trimmed)
        assert len(vec) == len(trimmed.domain)
        for i, value in enumerate(trimmed.domain):
            extended = {**partial, trimmed.name: value}
            assert float(vec[i]) == problem.lower_bound(extended)


def test_child_bounds_survive_domain_permutation(xavier, xavier_db):
    """The portfolio permutes domains per worker; bounds must follow
    the permuted value order, not the original index order."""
    problem = build_problem(xavier, xavier_db, "latency")
    v0 = problem.variables[0]
    permuted = dataclasses.replace(
        v0, domain=tuple(reversed(v0.domain))
    )
    vec = problem.child_bounds({}, permuted)
    for i, value in enumerate(permuted.domain):
        assert float(vec[i]) == problem.lower_bound({v0.name: value})


def test_solver_objective_unchanged_across_solver_paths(
    xavier, xavier_db
):
    """End to end: exhaustive reference == bnb-with-bounds on a real
    3-network instance (bounds only prune, never cut the optimum)."""
    from repro.solver import solve_exhaustive

    scheduler = HaXCoNN(
        xavier, db=xavier_db, max_groups=2, max_transitions=1
    )
    workload = Workload.concurrent("alexnet", "resnet18", "googlenet")
    formulation, _ = scheduler.build_formulation(workload)
    problem = scheduler.build_problem(workload, formulation)
    reference = solve_exhaustive(
        dataclasses.replace(
            problem, lower_bound=None, child_bounds=None
        )
    )
    fast = BranchAndBound().solve(problem)
    assert fast.optimal
    assert fast.best.objective == pytest.approx(
        reference.best.objective, rel=1e-12
    )


def test_monotonic_clock():
    """The sanctioned wall-clock helper: float seconds, non-decreasing."""
    from repro.solver.clock import monotonic_s

    a = monotonic_s()
    b = monotonic_s()
    assert isinstance(a, float)
    assert b >= a
