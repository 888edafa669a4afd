"""Static-analysis performance gate: the flow pass must stay cheap.

``haxconn flow`` runs in CI on every push (and is meant to run in a
pre-commit loop), so the whole-program pass over ``src/repro`` --
parse, call graph, effect fixpoint, taint -- gets the same treatment
as the solver benches: a hard wall-time budget and a machine-readable
JSON artifact recording what the pass saw.

The budget (10 s) is ~6x the current cost on CI-class hardware; a
regression that trips it means the fixpoint or the resolver went
super-linear, not that the tree grew a module.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.analysis import flow

#: hard ceiling for one full pass over src/repro, in seconds
BUDGET_S = 10.0

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_REPRO = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "tools" / "flow_baseline.json"


def test_bench_flow_analysis(save_report, save_json):
    baseline_keys = flow.load_baseline(BASELINE)

    start = time.perf_counter()
    pkg = flow.load_package(SRC_REPRO, package="repro")
    parsed_s = time.perf_counter() - start

    graph = flow.build_call_graph(pkg)
    graph_s = time.perf_counter() - start - parsed_s

    report = flow.analyze(
        SRC_REPRO, package="repro", baseline_keys=baseline_keys
    )
    total_s = time.perf_counter() - start

    assert total_s <= BUDGET_S, (
        f"flow pass took {total_s:.2f}s > {BUDGET_S}s budget"
    )
    # the gate CI applies: clean against the checked-in baseline
    assert report.ok, report.render()
    assert not report.stale_keys, report.render()

    payload = {
        "budget_s": BUDGET_S,
        "wall_s": round(total_s, 4),
        "parse_s": round(parsed_s, 4),
        "callgraph_s": round(graph_s, 4),
        "modules": len(pkg.modules),
        "functions": len(graph.functions),
        "call_edges": graph.edge_count(),
        "sinks": len(flow.collect_sinks(graph)),
        "findings_new": len(report.findings),
        "findings_baselined": len(report.baselined),
        "baseline_keys": len(baseline_keys),
        "stale_baseline_keys": len(report.stale_keys),
    }
    save_json("flow_analysis", payload)
    lines = [
        "flow analysis bench",
        f"  wall      {total_s:8.3f} s (budget {BUDGET_S:.0f} s)",
        f"  modules   {payload['modules']:8d}",
        f"  functions {payload['functions']:8d}",
        f"  edges     {payload['call_edges']:8d}",
        f"  sinks     {payload['sinks']:8d}",
        f"  findings  {payload['findings_baselined']:8d} baselined, "
        f"{payload['findings_new']} new",
    ]
    save_report("flow_analysis", "\n".join(lines))
