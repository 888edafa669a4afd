"""Reproducibility gates: same seed, byte-identical behavior.

The whole stack is designed to be a deterministic function of its
seeds -- profiles are analytic, the simulator runs on virtual time,
and the anytime solver timestamps incumbents by explored nodes.
These tests pin that property at three levels: streamed execution,
the serving loop, and the anytime solver's incumbent trace.
"""

from __future__ import annotations

from repro.core.haxconn import HaXCoNN
from repro.core.workload import Workload
from repro.runtime.stream import run_stream
from repro.serve import CachedAnytimePolicy, Tenant
from repro.serve.requests import PoissonArrivals
from tests.serve.helpers import drain


def _portfolio_scheduler(platform, db):
    """Anytime solver on the virtual node clock: fully reproducible."""
    return HaXCoNN(
        platform,
        db=db,
        max_groups=4,
        max_transitions=1,
        solver="portfolio",
        solver_clock="nodes",
    )


def schedule_fingerprint(result):
    return (
        tuple(
            (s.dnn_name, s.assignment) for s in result.schedule.per_dnn
        ),
        result.schedule.serialized,
        repr(result.predicted.objective),
    )


def incumbent_fingerprint(solve):
    return tuple(
        (
            tuple(sorted(i.assignment.items())),
            repr(i.objective),
            repr(i.wall_time_s),
            i.nodes_explored,
        )
        for i in solve.incumbents
    )


def test_portfolio_schedule_run_twice_identical(xavier, xavier_db):
    workload = Workload.concurrent("alexnet", "resnet18", "googlenet")
    results = [
        _portfolio_scheduler(xavier, xavier_db).schedule(workload)
        for _ in range(2)
    ]
    assert schedule_fingerprint(results[0]) == schedule_fingerprint(
        results[1]
    )
    assert incumbent_fingerprint(
        results[0].solver
    ) == incumbent_fingerprint(results[1].solver)
    assert results[0].solver.warm_starts == results[1].solver.warm_starts


def test_run_stream_same_seed_identical(xavier, xavier_db):
    workload = Workload.concurrent("alexnet", "resnet18")
    result = _portfolio_scheduler(xavier, xavier_db).schedule(workload)

    def stream():
        return run_stream(
            result,
            xavier,
            fps=40.0,
            frames=12,
            jitter_frac=0.2,
            seed=123,
            arrivals="poisson",
        )

    first, second = stream(), stream()
    assert first.arrivals == second.arrivals
    assert first.completions == second.completions
    assert repr(first.frame_latencies_s) == repr(
        second.frame_latencies_s
    )


def test_serve_same_seed_identical_metrics(xavier, xavier_db):
    def serve_once():
        tenants = [
            Tenant.of(
                "det",
                "vgg19",
                arrivals=PoissonArrivals(60.0, seed=5),
                slo_s=0.06,
            ),
            Tenant.of(
                "cls",
                "resnet152",
                arrivals=PoissonArrivals(45.0, seed=9),
                slo_s=0.06,
            ),
        ]
        policy = CachedAnytimePolicy(
            _portfolio_scheduler(xavier, xavier_db)
        )
        report = drain(
            xavier, tenants, policy, max_batch=2,
            horizon_s=0.3,
        )
        return report, policy

    (report_a, policy_a), (report_b, policy_b) = (
        serve_once(),
        serve_once(),
    )
    # the full human-readable report is byte-identical, which covers
    # every latency percentile, SLO rate, and per-tenant counter at
    # full float precision only if the underlying runs matched exactly
    assert report_a.describe() == report_b.describe()
    assert policy_a.stats() == policy_b.stats()
    assert len(report_a.rounds) == len(report_b.rounds)
