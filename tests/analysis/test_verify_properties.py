"""Property suite: every solver's answer verifies clean.

The differential tests prove the solvers agree with each other; these
prove they agree with the independent certificate checker -- sixty
seeded random instances through every generic solver, plus real
scheduling workloads end to end through ``HaXCoNN.schedule`` with
``verify=True``.
"""

from __future__ import annotations

import pytest

from repro.analysis.verify import (
    verify_assignment,
    verify_cache_entry,
    verify_result,
    verify_solve,
)
from repro.core.haxconn import HaXCoNN
from repro.core.workload import Workload, WorkloadDNN
from repro.solver import (
    BranchAndBound,
    PortfolioSolver,
    solve_exhaustive,
)
from repro.solver.random_instances import random_problem

SEEDS = range(60)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_instance_certificates(seed):
    """Exhaustive, BnB, and anytime-solver outputs all certify clean."""
    problem = random_problem(seed)

    # verify=True is the solvers' debug mode: it raises on a bad
    # certificate, so plain completion is already the assertion
    exhaustive = solve_exhaustive(problem, verify=True)
    bnb = BranchAndBound().solve(problem, verify=True)
    portfolio = PortfolioSolver(clock="nodes").solve(problem, verify=True)

    for result in (exhaustive, bnb, portfolio):
        cert = verify_solve(problem, result)
        assert cert.ok, cert.describe()
        if result.best is not None:
            best = verify_assignment(
                problem, result.best.assignment, result.best.objective
            )
            assert best.ok, best.describe()
            assert best.objective == pytest.approx(
                result.best.objective, rel=1e-9
            )


@pytest.mark.parametrize(
    "models",
    [
        ("alexnet", "resnet18"),
        ("googlenet", "mobilenet_v1"),
        ("vgg16", "resnet18", "googlenet"),
    ],
)
def test_schedule_certificates(xavier, xavier_db, models):
    """HaXCoNN schedules carry a clean certificate, verify=True included."""
    scheduler = HaXCoNN(
        xavier,
        db=xavier_db,
        max_groups=3,
        max_transitions=1,
        verify=True,
    )
    workload = Workload.concurrent(*models)
    result = scheduler.schedule(workload)  # raises if its cert fails
    cert = verify_result(
        result, max_transitions=scheduler.max_transitions
    )
    assert cert.ok, cert.describe()
    assert cert.objective == pytest.approx(
        result.predicted.objective, rel=2e-3
    )
    assert verify_cache_entry(
        scheduler, workload, result.schedule
    ).ok


def test_serialized_fallback_certificate(xavier, xavier_db):
    """A forced GPU-only fallback schedule also certifies clean."""
    scheduler = HaXCoNN(
        xavier,
        db=xavier_db,
        max_groups=3,
        max_transitions=1,
        fallback_margin=0.99,  # concurrency can never win by 99%
    )
    result = scheduler.schedule(
        Workload.concurrent("alexnet", "googlenet")
    )
    assert result.schedule.serialized
    cert = verify_result(result)
    assert cert.ok, cert.describe()


def test_throughput_and_repeats_certificate(xavier, xavier_db):
    """Repeated streams under the throughput objective certify clean."""
    scheduler = HaXCoNN(
        xavier, db=xavier_db, max_groups=3, max_transitions=1
    )
    workload = Workload.concurrent(
        WorkloadDNN.of("alexnet", repeats=3),
        WorkloadDNN.of("resnet18", repeats=2),
        objective="throughput",
    )
    result = scheduler.schedule(workload)
    cert = verify_result(
        result, max_transitions=scheduler.max_transitions
    )
    assert cert.ok, cert.describe()
