"""repro.analysis.flow: the repo's one static-analysis engine.

Every pass works on one parse of ``src/repro`` (all AST-based; the
analyzed code is never imported):

1. **call graph + direct sites** (:mod:`.callgraph`, :mod:`.effects`)
   -- module-level call resolution including ``from``-imports, method
   calls via class-attribute types, and function-valued arguments
   handed to worker entry points; one walk per function and per
   module body records effects (wall clock, unseeded RNG,
   env/pid/``id()``, unordered iteration over sets, ``as_completed``
   or directory listings) and the per-line rules HAX001..HAX008;
2. **effect summaries + determinism taint** (:mod:`.effects`,
   :mod:`.taint`) -- bottom-up fixpoint summaries, then effect sources
   reaching replicated sinks (gossip deltas, solve-store entries,
   incumbent traces, campaign digests), rules
   HAX101..HAX104, each finding carrying the full call chain.

The CLI entry point is ``haxconn flow``; CI runs it against the
checked-in ``tools/flow_baseline.json``, the single exception list
for every rule, so new findings fail the build and the baseline count
can only shrink.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.analysis.flow.callgraph import (
    CallGraph,
    Package,
    SourceSyntaxError,
    build_call_graph,
    load_package,
)
from repro.analysis.flow.effects import (
    EFFECTS,
    RULES,
    VIRTUAL_TIME_MODULES,
    EffectSite,
    Summary,
    chain_of,
    collect_direct_effects,
    rule_sites,
    summarize,
)
from repro.analysis.flow.report import (
    FlowFinding,
    FlowReport,
    apply_baseline,
    combine,
    load_baseline,
    write_baseline,
)
from repro.analysis.flow.taint import (
    DEFAULT_SINKS,
    TaintFinding,
    collect_sinks,
    run_taint,
    stale_sinks,
)

__all__ = [
    "CallGraph",
    "DEFAULT_SINKS",
    "EFFECTS",
    "EffectSite",
    "FlowFinding",
    "FlowReport",
    "Package",
    "RULES",
    "SourceSyntaxError",
    "Summary",
    "TaintFinding",
    "VIRTUAL_TIME_MODULES",
    "analyze",
    "apply_baseline",
    "build_call_graph",
    "chain_of",
    "collect_direct_effects",
    "collect_sinks",
    "combine",
    "load_baseline",
    "load_package",
    "rule_sites",
    "run_taint",
    "stale_sinks",
    "summarize",
    "write_baseline",
]


def analyze(
    root: str | Path,
    *,
    package: str | None = None,
    baseline_keys: Sequence[str] | None = None,
) -> FlowReport:
    """Run every pass over a package tree and gate on a baseline.

    ``root`` is the package directory (e.g. ``src/repro``); findings
    are ordered deterministically, so two runs over the same tree
    render byte-identical reports.  Raises :class:`SourceSyntaxError`
    when a module does not parse.
    """
    pkg = load_package(root, package=package)
    graph = build_call_graph(pkg)
    direct = collect_direct_effects(graph)
    summaries = summarize(graph, direct)
    taint = run_taint(graph, summaries)
    findings = combine(taint, rule_sites(direct))
    return apply_baseline(findings, baseline_keys or [])
