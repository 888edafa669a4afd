"""Solver race: the anytime solver vs. plain branch and bound.

The paper leans on Z3 converging to near-optimal schedules within ~2s
(Section 3.5); this reproduction's equivalent lever is the anytime
solver of :mod:`repro.solver.portfolio` (a greedy-improved warm-start
root, then one seeded branch and bound).  This experiment races it
against unseeded branch and bound on the 3-network scenario and
reports the anytime profile that matters to D-HaX-CoNN and the
serving layer, in wall seconds and in explored nodes (root
evaluations included):

- ``first_s`` / ``first_nodes`` -- to the first incumbent (when the
  runtime can first leave the naive schedule),
- ``tt5pct_s`` / ``tt5pct_nodes`` -- until the active incumbent is
  within 5% of the certified optimum (when the phase has effectively
  converged),
- ``total_s`` / ``nodes`` -- to certified optimality.

Run via ``haxconn experiment solver-race``.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.core.haxconn import HaXCoNN
from repro.core.workload import Workload
from repro.experiments.common import format_table, get_db
from repro.solver.bnb import Incumbent

if TYPE_CHECKING:
    from repro.learn.guide import SearchGuide

#: default scenario: three dissimilar networks on the three-DSA SD865
PLATFORM = "sd865"
MODELS = ("vgg19", "resnet152", "googlenet")
MAX_GROUPS = 6
MAX_TRANSITIONS = 2


def anytime_profile(
    incumbents: list[Incumbent],
    optimum: float,
    *,
    within: float = 0.05,
    nodes: bool = False,
) -> tuple[float | None, float | None]:
    """(first incumbent, first incumbent within ``within`` of optimum),
    as incumbent timestamps, or as explored-node counts with
    ``nodes=True``."""

    def at(i: Incumbent) -> float:
        return i.nodes_explored if nodes else i.wall_time_s

    first = at(incumbents[0]) if incumbents else None
    threshold = optimum * (1.0 + within) if optimum >= 0 else optimum * (
        1.0 - within
    )
    tt_within = next(
        (at(i) for i in incumbents if i.objective <= threshold), None
    )
    return first, tt_within


def nodes_to_optimal(incumbents: list[Incumbent]) -> int | None:
    """Explored-node count when the final incumbent first appeared."""
    if not incumbents:
        return None
    final = incumbents[-1].objective
    return next(
        (i.nodes_explored for i in incumbents if i.objective == final),
        None,
    )


def race(
    platform: str = PLATFORM,
    models: tuple[str, ...] = MODELS,
    *,
    max_groups: int = MAX_GROUPS,
    max_transitions: int = MAX_TRANSITIONS,
    guide: "SearchGuide | None" = None,
) -> list[dict[str, object]]:
    """Race the solvers on one workload; one result row per solver.

    With a store-trained ``guide`` (see :mod:`repro.learn`) a third
    ``learned`` row runs the guided anytime solver, so its anytime
    profile is directly comparable to the unguided ``anytime`` row.
    """
    db = get_db(platform)
    workload = Workload.concurrent(*models, objective="latency")
    configs: list[tuple[str, dict[str, object]]] = [
        ("bnb", {"solver": "bnb"}),
        ("anytime", {"solver": "portfolio"}),
    ]
    if guide is not None:
        configs.append(("learned", {"solver": "portfolio", "guide": guide}))
    rows = []
    for label, kwargs in configs:
        scheduler = HaXCoNN(
            platform,
            db=db,
            max_groups=max_groups,
            max_transitions=max_transitions,
            **kwargs,  # type: ignore[arg-type]
        )
        start = time.perf_counter()
        result = scheduler.schedule(workload)
        elapsed = time.perf_counter() - start
        solve = result.solver
        assert solve is not None
        first_s, tt5 = anytime_profile(
            solve.incumbents, solve.best.objective
        )
        first_nodes, tt5_nodes = anytime_profile(
            solve.incumbents, solve.best.objective, nodes=True
        )
        counters = scheduler.eval_counters.as_dict()
        rows.append(
            {
                "solver": label,
                "workload": "+".join(models),
                "objective_ms": solve.best.objective * 1e3,
                "optimal": solve.optimal,
                "first_s": first_s,
                "tt5pct_s": tt5,
                "total_s": elapsed,
                "first_nodes": first_nodes,
                "tt5pct_nodes": tt5_nodes,
                "nodes": solve.nodes_explored,
                "nodes_to_opt": nodes_to_optimal(solve.incumbents),
                "evals": int(counters["evals"]),
                "memo_hit_%": counters["memo_hit_rate"] * 100.0,
                "fp_iter": counters["fp_iter_mean"],
            }
        )
    return rows


def run() -> list[dict[str, object]]:
    return race()


def format_results(rows: list[dict[str, object]]) -> str:
    return format_table(
        rows,
        (
            "solver",
            "workload",
            "objective_ms",
            "optimal",
            "first_s",
            "tt5pct_s",
            "total_s",
            "first_nodes",
            "tt5pct_nodes",
            "nodes",
            "nodes_to_opt",
            "evals",
            "memo_hit_%",
            "fp_iter",
        ),
        title="Solver race: anytime convergence "
        f"({PLATFORM}, groups<={MAX_GROUPS}, "
        f"transitions<={MAX_TRANSITIONS})",
    )
