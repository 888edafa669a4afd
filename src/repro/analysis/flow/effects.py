"""Direct sites of every scope, and per-function effect summaries.

One AST walk per scope -- every function (nested defs inlined) and
every module body (class bodies included) -- records *direct sites*
of two kinds.

**Effects**, the powerset lattice the interprocedural passes
propagate.  A function's summary is the union of the effects its body
performs directly and the summaries of everything it (maybe
transitively, maybe through a callback) calls:

==================  =================================================
``wall-clock``      reads ``time.time``/``perf_counter``/... -- any
                    value derived from it differs across runs
``unseeded-rng``    draws from a process-global or seedless RNG, or
                    reseeds the global one
``env-pid``         reads ``os.environ``/``os.getenv``, a pid, or an
                    ``id()`` -- per-process values that leak host
                    identity into results
``unordered-iter``  iterates a ``set`` or ``as_completed(...)`` into
                    an order-sensitive construct, or enumerates the
                    filesystem without ``sorted()`` -- hash, completion
                    or OS order feeds the result
==================  =================================================

**Per-line rule violations** (:data:`RULES`), reported where they
occur whoever calls the scope.  HAX001/HAX008 are unseeded-rng sites,
HAX004 unordered-iter sites, and HAX002 wall-clock sites inside
:data:`VIRTUAL_TIME_MODULES`; HAX003/HAX005/HAX006/HAX007 carry no
effect.  HAX003 looks only at worker targets, the callees of the call
graph's ``worker`` edges.

There is no per-line waiver syntax.  A sanctioned site is one key in
the checked-in baseline that also holds the interprocedural findings
(today only the solver's clock read in
``repro.solver.clock.monotonic_s``).  Its effect still propagates:
the whole point of the interprocedural pass is that a sanctioned
source can still reach a sink it must never feed.

Each summary keeps, per effect kind, one *witness*: either the direct
site, or the (deterministically chosen: shortest chain, then lowest
qualname) callee whose summary carries the effect.  Witnesses chain,
so a finding can quote the full call path from sink to source.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.analysis.flow.callgraph import (
    CallGraph,
    FunctionInfo,
    ModuleInfo,
    _dotted,
    scope_body,
)

WALL_CLOCK = "wall-clock"
UNSEEDED_RNG = "unseeded-rng"
ENV_PID = "env-pid"
UNORDERED_ITER = "unordered-iter"

#: every effect kind, in reporting order
EFFECTS = (WALL_CLOCK, UNORDERED_ITER, UNSEEDED_RNG, ENV_PID)

#: per-line rule id -> description (ids are stable; docs cite them)
RULES: dict[str, str] = {
    "HAX001": "unseeded random source",
    "HAX002": "wall-clock read in virtual-time code",
    "HAX003": "worker target mutates shared state outside a lock",
    "HAX004": "unordered iteration feeds an order-sensitive construct",
    "HAX005": "time.sleep in virtual-time code",
    "HAX006": "silent exception swallowing",
    "HAX007": "mutable default argument",
    "HAX008": "global RNG seeding in library code",
}

#: modules (and their submodules) that run on virtual time, where
#: HAX002/HAX005 apply; profilers and experiment drivers legitimately
#: read wall clocks
VIRTUAL_TIME_MODULES = (
    "repro.solver",
    "repro.core",
    "repro.soc",
    "repro.runtime",
    "repro.serve",
    "repro.contention",
    "repro.analysis",
    "repro.fuzz",
)

_RANDOM_DRAWS = {
    "random",
    "randint",
    "randrange",
    "randbytes",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "triangular",
    "gauss",
    "normalvariate",
    "betavariate",
    "expovariate",
    "getrandbits",
}
_NUMPY_LEGACY_DRAWS = {
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "ranf",
    "choice",
    "shuffle",
    "permutation",
    "uniform",
    "normal",
    "standard_normal",
    "exponential",
    "poisson",
    "bytes",
}
_GLOBAL_SEEDS = {"random.seed", "numpy.random.seed"}
_WALL_CLOCKS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
}

#: canonical dotted names that read per-process / host identity
_ENV_PID_CALLS = {
    "os.getenv",
    "os.getpid",
    "os.getppid",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
}

#: canonical dotted names that enumerate the filesystem (OS order)
_FS_LISTING_CALLS = {
    "os.listdir",
    "os.scandir",
    "os.walk",
    "glob.glob",
    "glob.iglob",
}

#: attribute-method names that enumerate the filesystem on any object
#: (``Path.iterdir`` etc.; heuristic by name, like the mutators)
_FS_LISTING_METHODS = {"iterdir", "glob", "rglob"}

#: container methods that mutate their receiver (heuristic by name)
MUTATOR_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "discard",
    "remove",
    "pop",
    "popitem",
    "clear",
    "update",
    "setdefault",
    "appendleft",
    "extendleft",
    "sort",
    "reverse",
}

#: ``with`` context names that HAX003 accepts as a lock
_LOCK_HINTS = ("lock", "mutex", "cond", "sem")


def _is_virtual_time(module: str) -> bool:
    return any(
        module == m or module.startswith(m + ".")
        for m in VIRTUAL_TIME_MODULES
    )


@dataclass(frozen=True)
class EffectSite:
    """One direct site inside one scope: an effect, a per-line rule
    violation, or both."""

    #: effect kind; None for a site only a per-line rule cares about
    effect: str | None
    qualname: str
    path: str
    line: int
    detail: str
    #: per-line rule the site violates, if any
    rule: str | None = None

    @property
    def key(self) -> tuple[str, ...]:
        """Line-free identity of a rule site, used for baselining."""
        return (self.rule or "", self.qualname, self.detail)

    def render(self) -> str:
        rule = self.rule or ""
        return (
            f"{rule} {self.qualname} at {self.path}:{self.line}: "
            f"{self.detail} ({RULES.get(rule, '')})"
        )


@dataclass(frozen=True)
class Witness:
    """How one effect reaches one function's summary."""

    site: EffectSite
    #: callee whose summary carries the effect; None when direct
    via: str | None
    #: call-chain length from this function to the direct site
    depth: int


@dataclass
class Summary:
    """Effect kind -> witness, for one function."""

    witnesses: dict[str, Witness] = field(default_factory=dict)

    @property
    def effects(self) -> tuple[str, ...]:
        return tuple(e for e in EFFECTS if e in self.witnesses)


class _SetScope:
    """Set-typed variable inference for one scope: literals,
    ``set()``/``frozenset()``, set comprehensions, set algebra, and
    names last assigned one of those."""

    def __init__(self) -> None:
        self.set_vars: set[str] = set()

    def is_set(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in {"set", "frozenset"}:
                return True
        if isinstance(node, ast.Name):
            return node.id in self.set_vars
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set(node.left) or self.is_set(node.right)
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr in {
                "union",
                "intersection",
                "difference",
                "symmetric_difference",
            }:
                return self.is_set(node.func.value)
        return False

    def note_assign(self, node: ast.Assign | ast.AnnAssign) -> None:
        value = node.value
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if value is not None and self.is_set(value):
                self.set_vars.add(target.id)
            else:
                self.set_vars.discard(target.id)


def _function_locals(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Parameters and names a function body binds; nested scopes and
    ``global``/``nonlocal`` names excluded."""
    a = fn.args
    params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
    names = {p.arg for p in params if p is not None}
    declared: set[str] = set()
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.add(node.name)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names - declared


def _is_lock(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        return _is_lock(node.func)
    name = _dotted(node)
    if name is None:
        return False
    last = name.rsplit(".", 1)[-1].lower()
    return any(h in last for h in _LOCK_HINTS)


class _EffectCollector(ast.NodeVisitor):
    """Direct sites of one scope (nested defs inlined)."""

    def __init__(
        self, mod: ModuleInfo, fn: FunctionInfo, *, worker: bool = False
    ) -> None:
        self.mod = mod
        self.fn = fn
        self.scope = _SetScope()
        self.sites: list[EffectSite] = []
        self.virtual_time = _is_virtual_time(mod.name)
        #: call nodes appearing directly inside ``sorted(...)`` --
        #: their OS enumeration order is fixed by the wrapper
        self._sorted_args: set[int] = set()
        #: HAX003 state: a worker target's own names, the open
        #: ``with <lock>`` blocks, and the nested defs entered (their
        #: stores are their own)
        self.worker = worker
        self._locals: set[str] = (
            _function_locals(fn.node)
            if worker and not isinstance(fn.node, ast.Module)
            else set()
        )
        self._locked = 0
        self._nested = 0

    def _report(
        self,
        effect: str | None,
        node: ast.AST,
        detail: str,
        rule: str | None = None,
    ) -> None:
        self.sites.append(
            EffectSite(
                effect=effect,
                qualname=self.fn.qualname,
                path=self.fn.path,
                line=getattr(node, "lineno", self.fn.lineno),
                detail=detail,
                rule=rule,
            )
        )

    # -- defs: HAX007, and nesting for HAX003 --------------------------
    def check_defaults(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        defaults = [*node.args.defaults, *node.args.kw_defaults]
        for default in defaults:
            if isinstance(
                default,
                (
                    ast.List,
                    ast.Dict,
                    ast.Set,
                    ast.ListComp,
                    ast.DictComp,
                    ast.SetComp,
                ),
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in {"list", "dict", "set", "bytearray"}
            ):
                self._report(
                    None,
                    default,
                    f"mutable default argument in {node.name}()",
                    "HAX007",
                )

    def visit_FunctionDef(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self.check_defaults(node)
        self._nested += 1
        self.generic_visit(node)
        self._nested -= 1

    visit_AsyncFunctionDef = visit_FunctionDef

    # -- HAX003: worker stores outside a lock --------------------------
    def visit_With(self, node: ast.With) -> None:
        locked = any(_is_lock(item.context_expr) for item in node.items)
        self._locked += locked
        self.generic_visit(node)
        self._locked -= locked

    def _check_store(self, target: ast.expr, node: ast.AST) -> None:
        if not self.worker or self._locked or self._nested:
            return
        base = target
        while isinstance(base, (ast.Attribute, ast.Subscript)):
            base = base.value
        if (
            isinstance(base, ast.Name)
            and base is not target
            and base.id not in self._locals
        ):
            self._report(
                None,
                node,
                f"mutates shared {base.id!r} outside a lock",
                "HAX003",
            )

    # -- assignments feed the set-variable inference -------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self.scope.note_assign(node)
        for target in node.targets:
            self._check_store(target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.scope.note_assign(node)
        self._check_store(node.target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store(node.target, node)
        self.generic_visit(node)

    # -- HAX006: silent excepts ----------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        broad = node.type is None or (
            isinstance(node.type, ast.Name)
            and node.type.id in {"Exception", "BaseException"}
        )
        if broad and all(isinstance(s, ast.Pass) for s in node.body):
            self._report(
                None, node, "broad except swallows the error", "HAX006"
            )
        self.generic_visit(node)

    # -- unordered iteration -------------------------------------------
    def _check_iter(self, iter_node: ast.expr, node: ast.AST, what: str) -> None:
        if self.scope.is_set(iter_node):
            order = "a set in hash order"
        elif self._is_as_completed(iter_node):
            order = "as_completed() in completion order"
        else:
            return
        self._report(
            UNORDERED_ITER, node, f"{what} iterates {order}", "HAX004"
        )

    def _is_as_completed(self, node: ast.expr) -> bool:
        """``as_completed(...)`` under any import alias: futures in
        completion order, which varies run to run."""
        if not isinstance(node, ast.Call):
            return False
        name = _dotted(node.func)
        return (
            name is not None
            and self.mod.resolve(name).rsplit(".", 1)[-1] == "as_completed"
        )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter, node, "for loop")
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter, node, "list comprehension")
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter, node, "dict comprehension")
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter, node, "generator expression")
        self.generic_visit(node)

    # -- attribute reads: os.environ -----------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        dotted = _dotted(node)
        if dotted is not None:
            resolved = self.mod.resolve(dotted)
            if resolved == "os.environ" or resolved.startswith(
                "os.environ."
            ):
                self._report(ENV_PID, node, "os.environ read")
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "sorted":
            for arg in node.args:
                if isinstance(arg, ast.Call):
                    self._sorted_args.add(id(arg))
        name = _dotted(node.func)
        resolved = self.mod.resolve(name) if name is not None else None
        if resolved is not None:
            self._check_call(resolved, node)
        if isinstance(node.func, ast.Attribute):
            self._check_method(node.func.attr, node)
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in {"list", "tuple"}
            and len(node.args) >= 1
        ):
            self._check_iter(
                node.args[0], node, f"{node.func.id}() conversion"
            )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and len(node.args) == 1
        ):
            self._check_iter(node.args[0], node, "str.join")
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATOR_METHODS
        ):
            self._check_store(node.func, node)
        self.generic_visit(node)

    def _check_call(self, name: str, node: ast.Call) -> None:
        parts = name.split(".")
        if name in _WALL_CLOCKS:
            rule = "HAX002" if self.virtual_time else None
            self._report(WALL_CLOCK, node, f"{name}()", rule)
        elif name == "time.sleep":
            if self.virtual_time:
                self._report(None, node, "time.sleep()", "HAX005")
        elif name in _ENV_PID_CALLS:
            self._report(ENV_PID, node, f"{name}()")
        elif name == "id" and len(parts) == 1:
            self._report(ENV_PID, node, "id() is a per-process address")
        elif name in _FS_LISTING_CALLS:
            if id(node) not in self._sorted_args:
                self._report(
                    UNORDERED_ITER,
                    node,
                    f"{name}() enumerates in OS order",
                    "HAX004",
                )
        elif name in _GLOBAL_SEEDS:
            self._report(
                UNSEEDED_RNG, node, f"{name}() reseeds the global RNG", "HAX008"
            )
        elif len(parts) == 2 and parts[0] == "random":
            if parts[1] in _RANDOM_DRAWS:
                self._report(
                    UNSEEDED_RNG, node, f"{name}() (global RNG)", "HAX001"
                )
            elif parts[1] == "Random" and not (node.args or node.keywords):
                self._report(
                    UNSEEDED_RNG, node, "random.Random() seedless", "HAX001"
                )
        elif name.startswith("numpy.random."):
            tail = parts[-1]
            if len(parts) == 3 and tail in _NUMPY_LEGACY_DRAWS:
                self._report(
                    UNSEEDED_RNG, node, f"{name}() (global RNG)", "HAX001"
                )
            elif tail in {"default_rng", "RandomState"} and not (
                node.args or node.keywords
            ):
                self._report(
                    UNSEEDED_RNG, node, f"{name}() seedless", "HAX001"
                )

    def _check_method(self, method: str, node: ast.Call) -> None:
        if method in _FS_LISTING_METHODS and id(node) not in self._sorted_args:
            self._report(
                UNORDERED_ITER,
                node,
                f".{method}() enumerates in OS order",
                "HAX004",
            )


def direct_effects(
    mod: ModuleInfo, fn: FunctionInfo, *, worker: bool = False
) -> tuple[EffectSite, ...]:
    """Every direct site in one scope, in source order."""
    collector = _EffectCollector(mod, fn, worker=worker)
    if not isinstance(fn.node, ast.Module):
        collector.check_defaults(fn.node)
    for stmt in scope_body(fn):
        collector.visit(stmt)
    return tuple(
        sorted(
            collector.sites,
            key=lambda s: (s.line, s.effect or "", s.detail, s.rule or ""),
        )
    )


def collect_direct_effects(
    graph: CallGraph,
) -> dict[str, tuple[EffectSite, ...]]:
    """Direct sites for every scope in the graph."""
    workers = graph.worker_targets()
    out: dict[str, tuple[EffectSite, ...]] = {}
    for fn in graph.package.scopes():
        mod = graph.package.modules[fn.module]
        sites = direct_effects(mod, fn, worker=fn.qualname in workers)
        if sites:
            out[fn.qualname] = sites
    return out


def rule_sites(
    direct: Mapping[str, tuple[EffectSite, ...]]
) -> list[EffectSite]:
    """Every per-line rule violation among the direct sites."""
    return [s for s in iter_effect_sites(direct) if s.rule is not None]


def summarize(
    graph: CallGraph,
    direct: Mapping[str, tuple[EffectSite, ...]] | None = None,
) -> dict[str, Summary]:
    """Bottom-up effect summaries over the call graph, to fixpoint.

    Deterministic: functions and callees are processed in sorted
    order, and each witness is the minimal one (shortest chain, then
    lowest callee qualname), so two runs over the same tree produce
    identical summaries and identical finding chains.
    """
    if direct is None:
        direct = collect_direct_effects(graph)
    summaries: dict[str, Summary] = {
        qual: Summary() for qual in graph.functions
    }
    # seed with direct sites (depth 0; first site in source order
    # wins); module bodies have no callers, so no summary
    for qual, sites in direct.items():
        summary = summaries.get(qual)
        if summary is None:
            continue
        for site in sites:
            if site.effect is None:
                continue
            if site.effect not in summary.witnesses:
                summary.witnesses[site.effect] = Witness(
                    site=site, via=None, depth=0
                )
    # propagate until stable
    changed = True
    while changed:
        changed = False
        for qual in sorted(graph.functions):
            summary = summaries[qual]
            for edge in graph.callees(qual):
                callee_summary = summaries.get(edge.callee)
                if callee_summary is None:
                    continue
                for effect, witness in callee_summary.witnesses.items():
                    candidate = Witness(
                        site=witness.site,
                        via=edge.callee,
                        depth=witness.depth + 1,
                    )
                    current = summary.witnesses.get(effect)
                    if current is None or (
                        candidate.depth,
                        candidate.via or "",
                    ) < (current.depth, current.via or ""):
                        summary.witnesses[effect] = candidate
                        changed = True
    return summaries


def chain_of(
    summaries: Mapping[str, Summary], qualname: str, effect: str
) -> tuple[str, ...]:
    """The witness call chain from ``qualname`` down to the function
    containing the direct effect site (inclusive)."""
    chain: list[str] = [qualname]
    current = qualname
    for _ in range(len(summaries) + 1):
        witness = summaries[current].witnesses.get(effect)
        if witness is None or witness.via is None:
            break
        chain.append(witness.via)
        current = witness.via
    return tuple(chain)


def iter_effect_sites(
    direct: Mapping[str, tuple[EffectSite, ...]]
) -> Iterable[EffectSite]:
    for qual in sorted(direct):
        yield from direct[qual]
