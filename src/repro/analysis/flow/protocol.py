"""shm-ring / gossip protocol checker (HAX110, HAX111).

A per-function abstract state machine over uses of
:mod:`repro.core.shm`.  The machine is linear over the statement
sequence (flow-insensitive to branches and loops -- ops are ordered
by line number), which is exactly enough to encode the ring's
publication contract:

* the writer publishes bytes *then* the committed offset -- a raw
  body write after the commit publication, with no re-commit, leaks
  garbage bytes into the reader's visible window
  (``write-after-commit``);
* the reader parses *then* publishes the ack offset -- a raw read
  after the ack races the writer, which may already be overwriting
  the acked region (``read-after-ack``);
* each ring direction is single-writer / single-reader -- one scope
  driving both roles on the same object has no crash-consistent
  interleaving (``dual-role``);
* a payload enqueued via ``try_write``/``pack`` must not be mutated
  afterwards -- the inline fallback path shares the object with the
  receiver, so a post-enqueue mutation is visible on one transport
  and not the other (``mutate-after-enqueue``).

HAX111 guards the gossip merge contract: ``SharedEvalState.merge``
must be driven in an order derived from the worker/shard index, never
from a hash-ordered set or completion order (``as_completed``) --
merge order feeds the byte-identity contract across backends.

Op recognition is name-based over the shm API surface
(``try_write`` / ``read_one`` / ``read_available`` / ``_write_at`` /
``_read_at`` / ``_parse_one``) plus the header-publication idiom
``<struct>.pack_into(buf, 0|8, ...)``; ``pack``/``unpack`` count only
on receivers whose :class:`~repro.core.shm.DeltaChannel` type is
locally inferable, so ``struct.pack`` never trips the machine.
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
from repro.analysis.flow.effects import MUTATOR_METHODS, _SetScope

RULE_PROTOCOL = "HAX110"
RULE_MERGE_ORDER = "HAX111"

#: HAX110 sub-rules, in reporting order
SUB_WRITE_AFTER_COMMIT = "write-after-commit"
SUB_READ_AFTER_ACK = "read-after-ack"
SUB_DUAL_ROLE = "dual-role"
SUB_MUTATE_AFTER_ENQUEUE = "mutate-after-enqueue"

_WRITER_METHODS = {"try_write", "_write_at"}
_READER_METHODS = {"read_one", "read_available", "_read_at", "_parse_one"}

#: header offsets published by ``pack_into`` (see core/shm.py layout)
_COMMIT_OFFSET = 0
_ACK_OFFSET = 8


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


@dataclass(frozen=True)
class _Op:
    kind: str  # write | commit | read | ack | enqueue | mutate
    obj: str  # object root the op applies to
    line: int
    detail: str


def _root_of(node: ast.expr) -> str | None:
    """Object root for role tracking: ``self._ring.try_write`` tracks
    ``self._ring``; header publication via ``self._shm.buf`` tracks
    ``self``."""
    dotted = _dotted(node)
    if dotted is None:
        return None
    return dotted


class _OpCollector(ast.NodeVisitor):
    """Collect protocol ops and merge sites for one function body."""

    def __init__(self, mod: ModuleInfo, fn: FunctionInfo) -> None:
        self.mod = mod
        self.fn = fn
        self.ops: list[_Op] = []
        self.merge_findings: list[ProtocolFinding] = []
        self.scope = _SetScope()
        #: vars locally typed DeltaChannel (constructor or annotation)
        self.channel_vars: set[str] = set()
        #: loop nesting of provably-unordered iterables
        self._unordered_depth = 0
        for arg in self._all_args(fn.node):
            if arg.annotation is not None:
                ann = _dotted(arg.annotation)
                if ann is not None and self._is_channel_type(ann):
                    self.channel_vars.add(arg.arg)

    @staticmethod
    def _all_args(node: ast.AST) -> list[ast.arg]:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return []
        a = node.args
        return [*a.posonlyargs, *a.args, *a.kwonlyargs]

    def _is_channel_type(self, name: str) -> bool:
        resolved = self.mod.resolve(name)
        return resolved.rsplit(".", 1)[-1] == "DeltaChannel"

    def _op(self, kind: str, obj: str, node: ast.AST, detail: str) -> None:
        self.ops.append(
            _Op(
                kind=kind,
                obj=obj,
                line=getattr(node, "lineno", self.fn.lineno),
                detail=detail,
            )
        )

    # -- type + payload bookkeeping ------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self.scope.note_assign(node)
        value = node.value
        for target in node.targets:
            if not isinstance(target, ast.Name):
                self._note_mutation(target, node)
                continue
            if (
                isinstance(value, ast.Call)
                and (name := _dotted(value.func)) is not None
                and self._is_channel_type(name)
            ):
                self.channel_vars.add(target.id)
            else:
                self.channel_vars.discard(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.scope.note_assign(node)
        if isinstance(node.target, ast.Name):
            ann = _dotted(node.annotation)
            if ann is not None and self._is_channel_type(ann):
                self.channel_vars.add(node.target.id)
        else:
            self._note_mutation(node.target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._note_mutation(node.target, node)
        self.generic_visit(node)

    def _note_mutation(self, target: ast.expr, node: ast.AST) -> None:
        base: ast.expr | None = None
        if isinstance(target, ast.Subscript):
            base = target.value
            # writes into a ``...buf`` slice are raw ring-body writes
            dotted = _dotted(base)
            if dotted is not None and dotted.endswith(".buf"):
                owner = dotted.rsplit(".", 2)[0] if dotted.count(".") >= 2 else dotted
                self._op("write", owner, node, "raw buffer write")
                return
        elif isinstance(target, ast.Attribute):
            base = target.value
        if base is not None:
            root = _root_of(base)
            if root is not None:
                self._op("mutate", root, node, f"mutates {root}")

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            method = func.attr
            root = _root_of(func.value)
            if method == "pack_into" and len(node.args) >= 2:
                self._header_publish(node)
            elif root is not None:
                if method in _WRITER_METHODS:
                    self._op("write", root, node, f"{root}.{method}()")
                    if method == "try_write":
                        self._op("enqueue", root, node, f"{root}.{method}()")
                        self._note_payload(node)
                elif method in _READER_METHODS:
                    self._op("read", root, node, f"{root}.{method}()")
                elif method == "pack" and root in self.channel_vars:
                    self._op("enqueue", root, node, f"{root}.pack()")
                    self._note_payload(node)
                elif method == "unpack" and root in self.channel_vars:
                    self._op("read", root, node, f"{root}.unpack()")
                elif method in MUTATOR_METHODS:
                    self._op("mutate", root, node, f"{root}.{method}()")
                elif method == "merge" and self._unordered_depth > 0:
                    self.merge_findings.append(
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

    def _note_payload(self, node: ast.Call) -> None:
        """Track Name payload args so later mutation can be flagged."""
        for arg in node.args:
            if isinstance(arg, ast.Name):
                self._op(
                    "payload", arg.id, node, f"payload {arg.id!r} enqueued"
                )

    def _header_publish(self, node: ast.Call) -> None:
        buf_arg, off_arg = node.args[0], node.args[1]
        if not (
            isinstance(off_arg, ast.Constant)
            and isinstance(off_arg.value, int)
        ):
            return
        dotted = _dotted(buf_arg)
        if dotted is None or not dotted.endswith(".buf"):
            return
        owner = dotted.rsplit(".", 2)[0] if dotted.count(".") >= 2 else dotted
        if off_arg.value == _COMMIT_OFFSET:
            self._op("commit", owner, node, "commit-offset publish")
        elif off_arg.value == _ACK_OFFSET:
            self._op("ack", owner, node, "ack-offset publish")

    # -- unordered-iteration context for merge sites -------------------
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


def _check_function(
    mod: ModuleInfo, fn: FunctionInfo
) -> list[ProtocolFinding]:
    collector = _OpCollector(mod, fn)
    for stmt in fn.node.body:
        collector.visit(stmt)
    findings = list(collector.merge_findings)
    ops = sorted(collector.ops, key=lambda o: o.line)
    by_obj: dict[str, list[_Op]] = {}
    for op in ops:
        by_obj.setdefault(op.obj, []).append(op)

    for obj in sorted(by_obj):
        seq = by_obj[obj]
        # write-after-commit: a raw write preceded by a commit on the
        # same object with no commit after it
        commit_lines = [o.line for o in seq if o.kind == "commit"]
        for op in seq:
            if op.kind != "write" or not commit_lines:
                continue
            if any(c <= op.line for c in commit_lines) and not any(
                c > op.line for c in commit_lines
            ):
                findings.append(
                    ProtocolFinding(
                        rule=RULE_PROTOCOL,
                        sub=SUB_WRITE_AFTER_COMMIT,
                        qualname=fn.qualname,
                        path=fn.path,
                        line=op.line,
                        detail=(
                            f"{op.detail} after commit publication"
                            " without re-commit"
                        ),
                    )
                )
        # read-after-ack: a raw read preceded by an ack on the same
        # object -- the acked region may already be overwritten
        ack_lines = [o.line for o in seq if o.kind == "ack"]
        for op in seq:
            if op.kind == "read" and any(a < op.line for a in ack_lines):
                findings.append(
                    ProtocolFinding(
                        rule=RULE_PROTOCOL,
                        sub=SUB_READ_AFTER_ACK,
                        qualname=fn.qualname,
                        path=fn.path,
                        line=op.line,
                        detail=f"{op.detail} after ack publication",
                    )
                )
        # dual-role: one scope drives both roles on one object
        writer_kinds = {"write", "commit", "enqueue"}
        reader_kinds = {"read", "ack"}
        w = next((o for o in seq if o.kind in writer_kinds), None)
        r = next((o for o in seq if o.kind in reader_kinds), None)
        if w is not None and r is not None:
            first, second = (w, r) if w.line <= r.line else (r, w)
            findings.append(
                ProtocolFinding(
                    rule=RULE_PROTOCOL,
                    sub=SUB_DUAL_ROLE,
                    qualname=fn.qualname,
                    path=fn.path,
                    line=second.line,
                    detail=(
                        f"{obj} used as writer ({w.detail}) and reader"
                        f" ({r.detail}) in one scope"
                    ),
                )
            )

    # mutate-after-enqueue: payload vars mutated after being packed
    payload_ops = [o for o in ops if o.kind == "payload"]
    for pay in payload_ops:
        for op in ops:
            if (
                op.kind == "mutate"
                and op.line > pay.line
                and (op.obj == pay.obj or op.obj.startswith(pay.obj + "."))
            ):
                findings.append(
                    ProtocolFinding(
                        rule=RULE_PROTOCOL,
                        sub=SUB_MUTATE_AFTER_ENQUEUE,
                        qualname=fn.qualname,
                        path=fn.path,
                        line=op.line,
                        detail=f"{pay.detail}, then {op.detail}",
                    )
                )
                break
    return findings


def run_protocol(graph: CallGraph) -> list[ProtocolFinding]:
    """Protocol findings for every function, in stable order."""
    findings: list[ProtocolFinding] = []
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        mod = graph.package.modules[fn.module]
        findings.extend(_check_function(mod, fn))
    findings.sort(key=lambda f: (f.rule, f.sub, f.qualname, f.detail))
    return findings
