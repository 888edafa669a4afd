"""Regenerate ``perfbench/expected.json``: the cold-solve catalogue.

The catalogue is a seeded draw of offline scheduling problems, two per
(platform, objective, stream count) class.  Each mix is pinned in every
stream order with its optimum from full enumeration
(``solver.exhaustive``), which shares no search code with branch and
bound.  Stream order is part of the input: the timeline model breaks
queueing ties by stream index, so one mix can have different optima in
different orders.  The benchmark's ``--seed`` picks the solve order and
each mix's stream order.

Classes whose draw exceeds ``SPACE_CAP`` assignments are redrawn so the
pinned optimum can always be enumerated.  Run from the repository root
(a few minutes: it enumerates every search space in every order)::

    python3 perfbench/gen_expected.py
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE.parent) not in sys.path:
    sys.path.insert(0, str(HERE.parent))

from perfbench import common  # noqa: E402

#: the catalogue's own seed; the CLI ``--seed`` never changes it
CATALOGUE_SEED = 20240302
#: largest search space the catalogue admits (enumerated at generation)
SPACE_CAP = 3_000
#: mixes drawn per class: enough that no single solve dominates a pass
DRAWS_PER_CLASS = 2


def shape(platform: str, streams: int) -> tuple[int, int]:
    """(max_groups, max_transitions) of a class: 2-stream mixes use the
    CLI's transition budget on 2-accelerator SoCs and one transition on
    the 3- and 4-accelerator SoCs, whose search spaces grow with the
    accelerator count; 3-stream mixes use coarse grouping."""
    if streams == 3:
        return 4, 1
    return (8, 2) if platform in ("orin", "sd865", "xavier") else (8, 1)


def build_catalogue() -> list[dict[str, object]]:
    from repro.core.workload import Workload
    from repro.dnn import zoo
    from repro.solver.exhaustive import solve_exhaustive

    pool = sorted(zoo.available())
    rng = random.Random(CATALOGUE_SEED)
    dbs = common.fresh_dbs()
    rows: list[dict[str, object]] = []
    for platform in common.PLATFORMS:
        for objective in common.OBJECTIVES:
            for k in [2] * DRAWS_PER_CLASS + [3] * DRAWS_PER_CLASS:
                while True:
                    models = tuple(rng.sample(pool, k))
                    scheduler = common.cold_scheduler(
                        platform,
                        dbs[platform],
                        max_groups=shape(platform, k)[0],
                        max_transitions=shape(platform, k)[1],
                    )
                    workload = Workload.concurrent(*models, objective=objective)
                    formulation, _ = scheduler.build_formulation(workload)
                    problem = scheduler.build_problem(workload, formulation)
                    space = problem.search_space_size
                    if space <= SPACE_CAP:
                        break
                optima = {}
                for order in itertools.permutations(models):
                    permuted = Workload.concurrent(*order, objective=objective)
                    formulation, _ = scheduler.build_formulation(permuted)
                    best = solve_exhaustive(
                        scheduler.build_problem(permuted, formulation)
                    ).best
                    if best is None:
                        raise SystemExit(f"infeasible draw {platform} {order}")
                    optima["+".join(order)] = best.objective
                rows.append(
                    {
                        "platform": platform,
                        "models": list(models),
                        "objective": objective,
                        "max_groups": shape(platform, k)[0],
                        "max_transitions": shape(platform, k)[1],
                        "space": space,
                        "optima": optima,
                    }
                )
                print(
                    f"{platform:8s} {objective:10s} {'+'.join(models):40s} "
                    f"space {space:6d} optima {sorted(optima.values())}",
                    flush=True,
                )
    return rows


def main() -> int:
    common.use_checkout_sources()
    payload = {
        "catalogue_seed": CATALOGUE_SEED,
        "space_cap": SPACE_CAP,
        "scenarios": build_catalogue(),
    }
    common.EXPECTED.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
