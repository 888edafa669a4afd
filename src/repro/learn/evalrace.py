"""Held-out guidance race: does the trained model actually help?

``haxconn learn eval`` (and the bench gate) measure guidance the only
way that is honest about anytime behavior: race the *same* anytime
solver configuration twice on scenarios the store has never seen -- once
unguided, once with the store-trained :class:`~repro.learn.guide.
SearchGuide` -- under the deterministic virtual node clock, and
compare

- **TTFI** -- virtual time to the first incumbent strictly better
  than the best naive (contention-oblivious) seed, i.e. when serving
  could first leave the naive schedule,
- **tt5%** -- virtual time until the incumbent is within 5% of the
  certified optimum,
- **nodes-to-optimal** -- virtual nodes when the final optimum first
  became the incumbent.

Both runs must certify the *same* optimum -- the race asserts bitwise
objective equality, so an eval run doubles as a differential test of
the guidance machinery -- and ``verify=True`` routes every returned
schedule through :mod:`repro.analysis.verify`.

Scenarios where a naive seed is already optimal are skipped: neither
solver can improve on the root there, so TTFI is undefined and the
scenario measures nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.learn.guide import SearchGuide

if TYPE_CHECKING:
    from repro.core.haxconn import HaXCoNN, ScheduleResult
    from repro.core.solve_store import SolveStore
    from repro.core.workload import Workload
    from repro.fuzz.universe import ScenarioSpec

#: eligible held-out problems: big enough that search takes real work,
#: small enough that a CI shard solves dozens of them
MIN_SPACE = 24
MAX_SPACE = 120_000

#: relative tolerance for "strictly better than the best naive seed"
_REL_TOL = 1e-12


def _scheduler_for(
    spec: "ScenarioSpec",
    *,
    solver: str,
    guide: SearchGuide | None = None,
) -> tuple["HaXCoNN", "Workload"]:
    """Hermetic scheduler + workload for one fuzz scenario.

    ``max_transitions=1`` keeps domains small enough for volume; the
    anytime solver's ``nodes`` clock makes every reported timestamp a
    pure function of the search trace.
    """
    from repro.core.haxconn import HaXCoNN
    from repro.learn.corpus import _database

    scheduler = HaXCoNN(
        spec.platform,
        db=_database(spec.platform),
        max_groups=spec.max_groups,
        max_transitions=1,
        solver=solver,
        solver_clock="nodes" if solver == "portfolio" else "wall",
        guide=guide,
    )
    return scheduler, spec.workload()


def _space_size(scheduler: "HaXCoNN", workload: "Workload") -> int:
    formulation, _profiles = scheduler.build_formulation(workload)
    problem = scheduler.build_problem(workload, formulation)
    return int(problem.search_space_size)


def build_seed_store(
    store: "SolveStore",
    seeds: Iterable[int],
    *,
    limit: int = 16,
    min_space: int = MIN_SPACE,
    max_space: int = MAX_SPACE,
) -> dict[str, Any]:
    """Solve eligible fuzz scenarios and persist them into ``store``.

    The training-corpus builder for CI and the bench: every adopted
    schedule is a certified ``bnb`` optimum, stored under its workload
    signature exactly as serving would store it.  Returns counters.
    """
    from repro.core.schedule_cache import (
        schedule_to_payload,
        workload_signature,
    )
    from repro.fuzz.universe import generate_scenario
    from repro.solver.problem import Infeasible

    stored = 0
    skipped = 0
    for seed in seeds:
        if stored >= limit:
            break
        spec = generate_scenario(seed)
        try:
            scheduler, workload = _scheduler_for(spec, solver="bnb")
            if not min_space <= _space_size(scheduler, workload) <= max_space:
                skipped += 1
                continue
            result = scheduler.schedule(workload)
        except (Infeasible, KeyError, ValueError):
            skipped += 1
            continue
        sig = workload_signature(workload, scheduler)
        store.append_schedule(
            sig, schedule_to_payload(result.schedule)
        )
        stored += 1
    return {"stored": stored, "skipped": skipped}


def _first_improvement(
    result: "ScheduleResult",
) -> tuple[float | None, float | None]:
    """(best naive objective, TTFI) for one anytime-solver run.

    The best naive seed is the best *non-learned* warm start -- the
    baseline a serving layer would run before any solve -- so both the
    guided and unguided runs measure TTFI against the same yardstick.
    """
    solve = result.solver
    assert solve is not None
    naive = [
        objective
        for label, objective in getattr(solve, "warm_starts", ())
        if objective is not None and not label.startswith("learned")
    ]
    if not naive:
        return None, None
    best_naive = min(naive)
    threshold = best_naive - _REL_TOL * abs(best_naive)
    ttfi = next(
        (
            inc.wall_time_s
            for inc in solve.incumbents
            if inc.objective < threshold
        ),
        None,
    )
    return best_naive, ttfi


def _nodes_to_optimal(result: "ScheduleResult") -> int | None:
    solve = result.solver
    assert solve is not None and solve.best is not None
    final = solve.best.objective
    return next(
        (
            inc.nodes_explored
            for inc in solve.incumbents
            if inc.objective == final
        ),
        None,
    )


def _median(values: list[float]) -> float | None:
    if not values:
        return None
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def guidance_race(
    store: "SolveStore",
    seeds: Iterable[int],
    *,
    limit: int = 6,
    verify: bool = True,
    min_space: int = MIN_SPACE,
    max_space: int = MAX_SPACE,
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Race the unguided vs the guided anytime solver on held-out
    scenarios.

    Scenarios whose workload signature is already in ``store`` are
    skipped (they would not be cold), as are scenarios where a naive
    seed is already optimal.  Raises :class:`ValueError` when the
    store holds no model for the current feature schema.  Returns
    ``(per-scenario rows, summary)``; the summary's
    ``ttfi_speedup_median`` / ``tt5_speedup_median`` are the gate
    inputs, and ``objective_mismatches`` is always 0 or the race has
    already raised.
    """
    from repro.core.schedule_cache import workload_signature
    from repro.experiments.solver_race import anytime_profile
    from repro.fuzz.universe import generate_scenario
    from repro.solver.problem import Infeasible

    guide = SearchGuide.from_store(store)
    if guide is None:
        raise ValueError(
            "no trained model in the store for the current feature "
            "schema; run `haxconn learn train` first"
        )
    known = set(store.schedules())
    rows: list[dict[str, Any]] = []
    skipped = {"space": 0, "warm": 0, "naive_optimal": 0, "error": 0}
    for seed in seeds:
        if len(rows) >= limit:
            break
        spec = generate_scenario(seed)
        try:
            base_sched, workload = _scheduler_for(spec, solver="portfolio")
            if workload_signature(workload, base_sched) in known:
                skipped["warm"] += 1
                continue
            if not (
                min_space
                <= _space_size(base_sched, workload)
                <= max_space
            ):
                skipped["space"] += 1
                continue
            base = base_sched.schedule(workload, verify=verify)
            lrn_sched, workload2 = _scheduler_for(
                spec, solver="portfolio", guide=guide
            )
            lrn = lrn_sched.schedule(workload2, verify=verify)
        except (Infeasible, KeyError, ValueError):
            skipped["error"] += 1
            continue
        assert base.solver is not None and lrn.solver is not None
        assert base.solver.best is not None
        assert lrn.solver.best is not None
        if base.solver.best.objective != lrn.solver.best.objective:
            raise AssertionError(
                f"guided optimum diverged on seed {seed}: "
                f"{base.solver.best.objective!r} != "
                f"{lrn.solver.best.objective!r}"
            )
        _naive, base_ttfi = _first_improvement(base)
        _naive2, lrn_ttfi = _first_improvement(lrn)
        if base_ttfi is None or lrn_ttfi is None:
            # neither side can beat the naive root: nothing to time
            skipped["naive_optimal"] += 1
            continue
        optimum = base.solver.best.objective
        _first_b, base_tt5 = anytime_profile(
            base.solver.incumbents, optimum
        )
        _first_l, lrn_tt5 = anytime_profile(
            lrn.solver.incumbents, optimum
        )
        rows.append(
            {
                "seed": seed,
                "scenario": spec.name,
                "objective": optimum,
                "optimal": bool(
                    base.solver.optimal and lrn.solver.optimal
                ),
                "base_ttfi_s": base_ttfi,
                "learned_ttfi_s": lrn_ttfi,
                "ttfi_speedup": base_ttfi / max(lrn_ttfi, 1e-9),
                "base_tt5_s": base_tt5,
                "learned_tt5_s": lrn_tt5,
                "tt5_speedup": (
                    None
                    if base_tt5 is None or lrn_tt5 is None
                    else base_tt5 / max(lrn_tt5, 1e-9)
                ),
                "base_nodes_to_opt": _nodes_to_optimal(base),
                "learned_nodes_to_opt": _nodes_to_optimal(lrn),
                "verified": verify,
            }
        )
    summary = {
        "scenarios": len(rows),
        "skipped": dict(skipped),
        "objective_mismatches": 0,
        "all_optimal": all(r["optimal"] for r in rows),
        "verified": verify,
        "ttfi_speedup_median": _median(
            [float(r["ttfi_speedup"]) for r in rows]
        ),
        "tt5_speedup_median": _median(
            [
                float(r["tt5_speedup"])
                for r in rows
                if r["tt5_speedup"] is not None
            ]
        ),
    }
    return rows, summary
