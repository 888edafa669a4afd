"""Determinism-taint pass: effect sources reaching replicated sinks.

A *sink* is a function whose result (or side effect) is replicated,
persisted, or compared byte-for-byte across processes and runs:
gossip delta construction, solve-store records, portfolio
incumbent traces, campaign digests, fleet report text.  If
anything in a sink's transitive call tree reads the wall clock, a
global RNG, the environment / pid / ``id()``, or iterates an
unordered container, the replicated bytes can differ across runs --
exactly the class of bug the repo's dynamic byte-identity tests only
catch when a seed happens to hit it.

Sinks come from two places that the test suite keeps in parity:

* :data:`DEFAULT_SINKS` -- the checked-in registry below, and
* a ``# hax: sink`` pragma on a ``def`` line anywhere in the tree.

The pass is *effect-reachability*, not data-flow: a sink that merely
calls a wall-clock reader is reported even if the value provably
never escapes.  That over-approximation is deliberate -- sanctioned
pairs (e.g. the solver reading its own deadline) live in the
checked-in baseline, where a reviewer sees every one of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.effects import (
    ENV_PID,
    UNORDERED_ITER,
    UNSEEDED_RNG,
    WALL_CLOCK,
    Summary,
    chain_of,
    summarize,
)

#: effect kind -> HAX rule id for the taint family
TAINT_RULES: dict[str, str] = {
    WALL_CLOCK: "HAX101",
    UNORDERED_ITER: "HAX102",
    UNSEEDED_RNG: "HAX103",
    ENV_PID: "HAX104",
}

#: sink qualname -> the replicated artifact it feeds.  Keep sorted.
DEFAULT_SINKS: dict[str, str] = {
    "repro.core.solve_store.SolveStore._append": "solve-store record",
    "repro.fuzz.runner.CampaignReport.digest": "campaign digest",
    "repro.fuzz.runner.run_campaign": "campaign digest inputs",
    "repro.serve.fleet.Fleet._append_store": "persisted gossip delta",
    "repro.serve.fleet.Fleet._initial_delta": "gossip broadcast delta",
    "repro.serve.fleet.ShardedFleetReport.describe": "fleet report text",
    "repro.serve.policy.CachedAnytimePolicy.export_delta": (
        "policy gossip delta"
    ),
    "repro.serve.policy.CachedAnytimePolicy.result_for": (
        "cached schedule result"
    ),
    "repro.solver.portfolio.PortfolioSolver.solve": (
        "portfolio incumbent trace"
    ),
}


@dataclass(frozen=True)
class TaintFinding:
    """One effect source reaching one sink, with its witness chain."""

    rule: str
    effect: str
    sink: str
    sink_role: str
    #: function containing the direct effect site (chain tail)
    source: str
    detail: str
    path: str
    line: int
    #: sink -> ... -> source call chain (inclusive both ends)
    chain: tuple[str, ...]

    @property
    def key(self) -> tuple[str, str, str, str]:
        """Line-free identity used for baselining: stable across
        refactors that move code but keep the same flow."""
        return (self.rule, self.sink, self.source, self.effect)

    def render(self) -> str:
        arrow = " -> ".join(self.chain)
        return (
            f"{self.rule} {self.sink} [{self.sink_role}] "
            f"reaches {self.effect}: {self.detail} "
            f"at {self.path}:{self.line} via {arrow}"
        )


def collect_sinks(graph: CallGraph) -> dict[str, str]:
    """Registry sinks plus ``# hax: sink`` pragma sinks, validated.

    A registry entry naming a function that no longer exists is an
    error (stale registry), surfaced via ``unknown`` so the caller
    can fail loudly rather than silently skip the sink.
    """
    sinks: dict[str, str] = {}
    for qual, role in DEFAULT_SINKS.items():
        if qual in graph.functions:
            sinks[qual] = role
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        if fn.sink_pragma and qual not in sinks:
            sinks[qual] = "pragma sink"
    return sinks


def stale_sinks(graph: CallGraph) -> tuple[str, ...]:
    """Registry entries that no longer name a live function."""
    return tuple(
        sorted(q for q in DEFAULT_SINKS if q not in graph.functions)
    )


def run_taint(
    graph: CallGraph,
    summaries: dict[str, Summary] | None = None,
    sinks: dict[str, str] | None = None,
) -> list[TaintFinding]:
    """All source->sink findings, in stable (rule, sink, source) order."""
    if summaries is None:
        summaries = summarize(graph)
    if sinks is None:
        sinks = collect_sinks(graph)
    findings: list[TaintFinding] = []
    for sink in sorted(sinks):
        role = sinks[sink]
        summary = summaries.get(sink)
        if summary is None:
            continue
        for effect, rule in TAINT_RULES.items():
            witness = summary.witnesses.get(effect)
            if witness is None:
                continue
            chain = chain_of(summaries, sink, effect)
            findings.append(
                TaintFinding(
                    rule=rule,
                    effect=effect,
                    sink=sink,
                    sink_role=role,
                    source=witness.site.qualname,
                    detail=witness.site.detail,
                    path=witness.site.path,
                    line=witness.site.line,
                    chain=chain,
                )
            )
    findings.sort(key=lambda f: (f.rule, f.sink, f.source, f.detail))
    return findings
