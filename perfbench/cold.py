"""``solve-cold``: fresh offline solves, each checked against its optimum."""

from __future__ import annotations

import sys
import traceback

from perfbench import common
from perfbench.workloads import ColdScenario

#: full enumeration at run time only below this search-space size;
#: larger scenarios are checked against the optimum pinned offline
RUNTIME_EXHAUSTIVE_CAP = 400
REL_TOL = 1e-9


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-12)


def setup(scenarios: list[ColdScenario]) -> dict:
    """Calibrate every platform, fit its PCCS model and profile every
    model of the catalogue at its grouping."""
    from repro.soc.platform import get_platform

    get_platform.cache_clear()
    dbs = common.fresh_dbs()
    for s in scenarios:
        for model in s.models:
            dbs[s.platform].profile(model, max_groups=s.max_groups)
    return dbs


def solve(scenario: ColdScenario, dbs: dict):
    """One cold solve: a fresh scheduler, B&B, verified result."""
    scheduler = common.cold_scheduler(
        scenario.platform,
        dbs[scenario.platform],
        max_groups=scenario.max_groups,
        max_transitions=scenario.max_transitions,
    )
    return scheduler, scheduler.schedule(scenario.workload())


def check(scenario: ColdScenario, scheduler, result, dbs: dict) -> list[str]:
    """Every way ``result`` can be wrong, as messages (empty = correct)."""
    from repro.analysis.verify import verify_result
    from repro.solver.exhaustive import solve_exhaustive

    problems = []
    certificate = verify_result(result, max_transitions=scenario.max_transitions)
    if not certificate.ok:
        problems.append(f"verify_result: {certificate.describe()}")
    best = result.solver.best if result.solver is not None else None
    if best is None or not result.solver.optimal:
        problems.append("branch and bound returned no certified optimum")
        return problems
    if not close(best.objective, scenario.optimum):
        problems.append(
            f"optimum {best.objective!r} != pinned {scenario.optimum!r}"
        )
    if not result.schedule.serialized and not close(
        result.predicted.objective, best.objective
    ):
        problems.append("adopted schedule does not price at the optimum")
    if scenario.space <= RUNTIME_EXHAUSTIVE_CAP:
        fresh = common.cold_scheduler(
            scenario.platform,
            dbs[scenario.platform],
            max_groups=scenario.max_groups,
            max_transitions=scenario.max_transitions,
        )
        workload = scenario.workload()
        formulation, _ = fresh.build_formulation(workload)
        enumerated = solve_exhaustive(fresh.build_problem(workload, formulation))
        if enumerated.best is None or not close(
            enumerated.best.objective, best.objective
        ):
            problems.append("exhaustive enumeration disagrees with B&B")
    return problems


def signature(result) -> tuple:
    """What a repeated solve must reproduce exactly."""
    return (
        result.predicted.objective,
        result.schedule.serialized,
        tuple(s.assignment for s in result.schedule.per_dnn),
    )


def _attempt(scenario: ColdScenario, dbs: dict):
    try:
        return solve(scenario, dbs)
    except Exception as exc:  # a failed solve is a counted failure
        traceback.print_exc(file=sys.stderr)
        return exc


def timed_solve(scenario: ColdScenario, dbs: dict, clock, *, keep: bool):
    """One solve timed by ``clock`` (a :class:`perfbench.hostspeed.Measured`).

    Returns ``(raw_s, scaled_s, outcome)``: the exception the solve
    raised, else ``(scheduler, result)`` when ``keep`` or the result's
    :func:`signature`.
    """
    outcome, raw, scaled = clock.run(_attempt, scenario, dbs)
    if not keep and not isinstance(outcome, Exception):
        outcome = signature(outcome[1])
    return raw, scaled, outcome


def run_pass(scenarios: list[ColdScenario], dbs: dict, clock, *, keep: bool):
    """Solve every scenario once; returns the :func:`timed_solve`
    entries and the pass's merged evaluation counters."""
    from repro.core.evalcache import EvalCounters

    counters = EvalCounters()
    out = []
    for s in scenarios:
        raw, scaled, outcome = timed_solve(s, dbs, clock, keep=True)
        if not isinstance(outcome, Exception):
            counters.merge(outcome[0].eval_counters)
            if not keep:
                outcome = signature(outcome[1])
        out.append((raw, scaled, outcome))
    return out, counters
