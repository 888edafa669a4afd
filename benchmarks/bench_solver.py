"""Solver-race benchmark: the anytime solver must converge 2x faster.

Tier-1 gate: on the 3-network scenario the anytime solver (greedy
warm-start root, then one seeded branch and bound) must get within 5%
of the optimum in at most half the explored nodes unseeded branch and
bound needs, with identical final objective values (both certified
optimal).  Nodes are the solvers' deterministic clock -- the anytime
solver's count includes its root evaluations -- so the gate is exact
on any host and runs once, without retries.  The formatted race table,
wall columns included, is recorded in
``benchmarks/results/solver_race.txt``.  ``REPRO_FULL=1`` adds the
larger max-groups-12 race the paper's timings correspond to.

``test_bench_learned_guidance`` trains the :mod:`repro.learn` models
on a store of solved fuzz scenarios, then races the guided vs the
unguided anytime solver on cold scenarios adjacent to that warm store
under the deterministic virtual node clock.  The guided solver must
reach its first naive-beating incumbent at least 1.5x faster (median
TTFI) with a measurable tt5% win, while certifying bit-identical
optima.  Because the race runs on virtual node time, the gate is
deterministic -- no retries.
"""

import time

import pytest

from repro.experiments import solver_race

from conftest import full_run

#: acceptance threshold: anytime tt5% <= 0.5x unseeded bnb, in nodes
RATIO = 0.5

#: guided-vs-unguided median TTFI speedup floor
LEARNED_TTFI_GATE = 1.5


def _race(**kwargs):
    """Race the solvers; returns the rows and both tt5% node counts."""
    rows = solver_race.race(**kwargs)
    by_solver = {r["solver"]: r for r in rows}
    bnb, anytime = by_solver["bnb"], by_solver["anytime"]
    # determinism: same certified optimum regardless of solver
    assert bnb["optimal"] and anytime["optimal"]
    assert float(anytime["objective_ms"]) == pytest.approx(
        float(bnb["objective_ms"]), rel=1e-9
    )
    assert anytime["first_nodes"] is not None
    assert anytime["tt5pct_nodes"] is not None
    # the warm-started root means the anytime solver's first incumbent
    # can never trail the baseline's
    assert float(anytime["first_nodes"]) <= float(bnb["first_nodes"])
    return rows, float(anytime["tt5pct_nodes"]), float(bnb["tt5pct_nodes"])


def test_bench_solver_race(save_report, save_json):
    rows, tt5_anytime, tt5_bnb = _race()
    save_report("solver_race", solver_race.format_results(rows))
    save_json(
        "solver_race",
        {
            "ratio_threshold": RATIO,
            "tt5pct_anytime_nodes": tt5_anytime,
            "tt5pct_bnb_nodes": tt5_bnb,
            "rows": rows,
        },
    )
    assert tt5_anytime <= RATIO * tt5_bnb, (
        f"anytime tt5% at {tt5_anytime:.0f} nodes > "
        f"{RATIO} x bnb's {tt5_bnb:.0f}"
    )


def test_bench_learned_guidance(save_report, save_json, tmp_path):
    from repro.core.solve_store import SolveStore
    from repro.experiments.common import format_table
    from repro.learn.corpus import train_into_store
    from repro.learn.evalrace import build_seed_store, guidance_race
    from repro.learn.guide import SearchGuide

    store = SolveStore(tmp_path / "learned_bench.jsonl")
    seeded = build_seed_store(store, range(120), limit=16)
    assert seeded["stored"] >= 8, "seed corpus unexpectedly small"

    start = time.perf_counter()
    train_stats = train_into_store(store)
    train_ms = (time.perf_counter() - start) * 1e3
    assert train_stats is not None

    start = time.perf_counter()
    guide = SearchGuide.from_store(store)
    load_ms = (time.perf_counter() - start) * 1e3
    assert guide is not None

    rows, summary = guidance_race(
        store, range(200, 400), limit=6, verify=True
    )
    assert summary["scenarios"] >= 4
    # both runs certified the same optimum on every scenario, and
    # every adopted schedule passed analysis.verify
    assert summary["all_optimal"]
    assert summary["objective_mismatches"] == 0
    assert summary["verified"]
    ttfi = summary["ttfi_speedup_median"]
    tt5 = summary["tt5_speedup_median"]
    assert ttfi is not None and ttfi >= LEARNED_TTFI_GATE, (
        f"median TTFI speedup {ttfi} below the "
        f"{LEARNED_TTFI_GATE}x gate"
    )
    assert tt5 is not None and tt5 > 1.0, (
        f"median tt5% speedup {tt5} is not a win"
    )

    table = format_table(
        rows,
        (
            "scenario",
            "optimal",
            "base_ttfi_s",
            "learned_ttfi_s",
            "ttfi_speedup",
            "base_tt5_s",
            "learned_tt5_s",
            "tt5_speedup",
            "base_nodes_to_opt",
            "learned_nodes_to_opt",
        ),
        title="Learned guidance race: guided vs unguided anytime solver "
        "(virtual node clock, cold scenarios, warm store; "
        f"model train {train_ms:.1f} ms, load {load_ms:.1f} ms)",
    )
    save_report("learned_guidance", table)
    save_json(
        "learned_guidance",
        {
            "ttfi_gate": bool(ttfi >= LEARNED_TTFI_GATE),
            "ttfi_gate_threshold": LEARNED_TTFI_GATE,
            "ttfi_speedup_median": ttfi,
            "tt5_speedup_median": tt5,
            "model_train_ms": train_ms,
            "model_load_ms": load_ms,
            "train_stats": train_stats,
            "seeded": seeded,
            "summary": summary,
            "rows": rows,
        },
    )


@pytest.mark.slow
def test_bench_solver_race_full(save_report):
    if not full_run():
        pytest.skip("set REPRO_FULL=1 for the max-groups-12 race")
    rows, tt5_anytime, tt5_bnb = _race(max_groups=12)
    save_report("solver_race_full", solver_race.format_results(rows))
    assert tt5_anytime <= RATIO * tt5_bnb
