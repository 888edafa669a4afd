"""Gossip merge-order checker (HAX111).

HAX111 guards the gossip merge contract: a gossip ``merge`` must be
driven in an order derived from the worker/shard index, never
from a hash-ordered set or completion order (``as_completed``) --
merge order feeds the byte-identity contract across backends.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.flow.callgraph import (
    CallGraph,
    FunctionInfo,
    ModuleInfo,
    _dotted,
)
from repro.analysis.flow.effects import _SetScope

RULE_MERGE_ORDER = "HAX111"


@dataclass(frozen=True)
class ProtocolFinding:
    rule: str
    sub: str
    qualname: str
    path: str
    line: int
    detail: str

    @property
    def key(self) -> tuple[str, str, str, str]:
        return (self.rule, self.sub, self.qualname, self.detail)

    def render(self) -> str:
        return (
            f"{self.rule}[{self.sub}] {self.qualname} "
            f"at {self.path}:{self.line}: {self.detail}"
        )


class _MergeCollector(ast.NodeVisitor):
    """Collect merge sites driven by unordered iteration in one
    function body."""

    def __init__(self, mod: ModuleInfo, fn: FunctionInfo) -> None:
        self.mod = mod
        self.fn = fn
        self.findings: list[ProtocolFinding] = []
        self.scope = _SetScope()
        #: loop nesting of provably-unordered iterables
        self._unordered_depth = 0

    def visit_Assign(self, node: ast.Assign) -> None:
        self.scope.note_assign(node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.scope.note_assign(node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "merge"
            and self._unordered_depth > 0
            and (root := _dotted(func.value)) is not None
        ):
            self.findings.append(
                ProtocolFinding(
                    rule=RULE_MERGE_ORDER,
                    sub="merge-order",
                    qualname=self.fn.qualname,
                    path=self.fn.path,
                    line=node.lineno,
                    detail=(
                        f"{root}.merge() driven by an unordered"
                        " iteration; derive merge order from the"
                        " worker index"
                    ),
                )
            )
        self.generic_visit(node)

    def _iter_unordered(self, iter_node: ast.expr) -> bool:
        if self.scope.is_set(iter_node):
            return True
        if isinstance(iter_node, ast.Call):
            name = _dotted(iter_node.func)
            if name is not None:
                resolved = self.mod.resolve(name)
                if resolved.rsplit(".", 1)[-1] == "as_completed":
                    return True
        return False

    def visit_For(self, node: ast.For) -> None:
        unordered = self._iter_unordered(node.iter)
        if unordered:
            self._unordered_depth += 1
        self.generic_visit(node)
        if unordered:
            self._unordered_depth -= 1


def run_protocol(graph: CallGraph) -> list[ProtocolFinding]:
    """Merge-order findings for every function, in stable order."""
    findings: list[ProtocolFinding] = []
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        collector = _MergeCollector(graph.package.modules[fn.module], fn)
        for stmt in fn.node.body:
            collector.visit(stmt)
        findings.extend(collector.findings)
    findings.sort(key=lambda f: (f.rule, f.sub, f.qualname, f.detail))
    return findings
