"""Whole-package call-graph construction for the flow analysis.

The per-line rules (HAX001-HAX008) look at one statement at a time;
the interprocedural passes need to know *who calls whom* so an effect
three helpers deep still reaches the sink that consumes it.  This
module builds that graph from source, with zero imports of the
analyzed code (analyzing a module must not execute it):

* every ``*.py`` file under a package root is parsed once into a
  :class:`ModuleInfo` (AST, import-alias map, class table, functions);
* calls are resolved best-effort: plain names through the module's
  import map (``from``-imports included, package ``__init__``
  re-exports followed), ``self.method()`` through the class table and
  its package-internal base chain, ``obj.method()`` through
  locally-constructed variable types and ``self.attr`` types recorded
  from ``__init__`` bodies, and ``Class.method()`` directly;
* a function-valued argument (``Thread(target=f)``,
  ``executor.submit(f)``, a ``policy_factory`` handed to the fleet, a
  ``key=`` callback) adds a *higher-order* edge from the caller to the
  referenced function -- workers and callbacks stay reachable even
  though no direct call expression exists;
* nested functions and lambdas are **inlined** into their enclosing
  function: a closure like the anytime solver's ``on_incumbent`` is
  analyzed as part of the function that defines it, which matches how
  its effects escape;
* each module body (class bodies included, function bodies excluded)
  is one more scope, ``pkg.mod.<module>``, so import-time code gets
  the same per-line checks and worker edges as a function.

The graph over-approximates (an edge may exist that never fires at
runtime) and never under-approximates on the constructs above; the
taint pass's baseline file absorbs the sanctioned over-approximations.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

#: pragma marking a function as a taint sink, on its ``def`` line::
#:
#:     def export_delta(self):  # hax: sink gossip payload
SINK_PRAGMA = "# hax: sink"

#: callables whose callable argument runs on another thread/process:
#: the ``target=`` of ``Thread``/``Process``, the first argument of
#: ``submit``.  Such references become "worker" edges (any other
#: function-valued argument is a plain "higher-order" edge).
WORKER_ENTRY_POINTS = ("Thread", "Process", "submit")

#: qualname suffix of a module-body scope
MODULE_SCOPE = "<module>"


class SourceSyntaxError(ValueError):
    """A module under the analysis root does not parse."""

    def __init__(self, path: str, line: int, msg: str) -> None:
        super().__init__(f"{path}:{line}: cannot parse: {msg}")
        self.path = path
        self.line = line


@dataclass
class FunctionInfo:
    """One analyzed function or method (nested defs are inlined), or
    one module-body scope (``node`` is the module)."""

    qualname: str
    module: str
    cls: str | None
    name: str
    path: str
    lineno: int
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Module
    #: reason text when the def line carries a ``# hax: sink`` pragma
    sink_pragma: str | None = None


@dataclass
class ClassInfo:
    """One class: methods, base chain, and ``self.attr`` types."""

    qualname: str
    module: str
    name: str
    #: base-class dotted names, resolved through the import map
    bases: tuple[str, ...] = ()
    #: method name -> function qualname
    methods: dict[str, str] = field(default_factory=dict)
    #: ``self.<attr>`` -> class qualname (from ``__init__`` stores and
    #: annotated class-body assignments)
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module and its name-resolution context."""

    name: str
    path: str
    tree: ast.Module
    source: str
    is_package: bool
    #: local name -> canonical dotted target (import aliases)
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)

    def resolve(self, dotted: str) -> str:
        """Rewrite the head of a local dotted name via the imports."""
        head, _, rest = dotted.partition(".")
        target = self.imports.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target


@dataclass(frozen=True)
class CallEdge:
    """One resolved call (or callback reference) between functions."""

    caller: str
    callee: str
    line: int
    #: "call" for a direct call expression, "worker" for a callable
    #: handed to a worker entry point, "higher-order" for any other
    #: function-valued argument
    kind: str = "call"


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _collect_imports(
    tree: ast.Module, module: str, is_package: bool
) -> dict[str, str]:
    out: dict[str, str] = {}
    #: anchor package for relative imports
    anchor = module if is_package else module.rsplit(".", 1)[0]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                out[local] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                parts = anchor.split(".")
                if node.level - 1 >= len(parts):
                    continue  # beyond the package root; not ours
                kept = parts[: len(parts) - (node.level - 1)]
                base = ".".join(kept)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                out[local] = f"{base}.{alias.name}" if base else alias.name
    return out


def _sink_pragma(source_lines: list[str], lineno: int) -> str | None:
    """Reason text when the ``def`` line (1-based) carries the sink
    pragma, else None."""
    if 1 <= lineno <= len(source_lines):
        line = source_lines[lineno - 1]
        at = line.find(SINK_PRAGMA)
        if at >= 0:
            return line[at + len(SINK_PRAGMA) :].strip() or "sink"
    return None


def load_package(root: str | Path, package: str | None = None) -> "Package":
    """Parse every module under ``root`` into a :class:`Package`.

    ``root`` is the directory of the package (e.g. ``src/repro``);
    ``package`` overrides the dotted prefix (default: the directory
    name).  A file that fails to parse raises
    :class:`SourceSyntaxError` naming the file and line: skipping it
    would silently exempt the module from every rule.
    """
    root = Path(root)
    prefix = package or root.name
    modules: dict[str, ModuleInfo] = {}
    for file in sorted(root.rglob("*.py")):
        rel = file.relative_to(root)
        parts = list(rel.with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts = parts[:-1]
        name = ".".join([prefix, *parts]) if parts else prefix
        source = file.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(file))
        except SyntaxError as exc:
            raise SourceSyntaxError(
                file.as_posix(), exc.lineno or 0, exc.msg
            ) from exc
        info = ModuleInfo(
            name=name,
            path=file.as_posix(),
            tree=tree,
            source=source,
            is_package=is_package,
        )
        info.imports = _collect_imports(tree, name, is_package)
        modules[name] = info
    pkg = Package(modules=modules)
    pkg._index()
    return pkg


def _is_def(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def scope_body(fn: FunctionInfo) -> list[ast.stmt]:
    """The statements one scope executes itself.

    A function's whole body (nested defs inlined).  A module scope's
    top-level statements plus its top-level class bodies, minus the
    functions and methods indexed as scopes of their own.
    """
    if not isinstance(fn.node, ast.Module):
        return fn.node.body
    body: list[ast.stmt] = []
    for stmt in fn.node.body:
        if isinstance(stmt, ast.ClassDef):
            body.extend(s for s in stmt.body if not _is_def(s))
        elif not _is_def(stmt):
            body.append(stmt)
    return body


class Package:
    """Every module of one package, indexed for name resolution."""

    def __init__(self, modules: dict[str, ModuleInfo]) -> None:
        self.modules = modules
        #: function qualname -> info, across all modules
        self.functions: dict[str, FunctionInfo] = {}
        #: class qualname -> info, across all modules
        self.classes: dict[str, ClassInfo] = {}
        #: module-body scope qualname -> info (not in ``functions``:
        #: nothing calls a module body)
        self.module_scopes: dict[str, FunctionInfo] = {}

    # -- indexing ------------------------------------------------------
    def _index(self) -> None:
        for mod in self.modules.values():
            qual = f"{mod.name}.{MODULE_SCOPE}"
            self.module_scopes[qual] = FunctionInfo(
                qualname=qual,
                module=mod.name,
                cls=None,
                name=MODULE_SCOPE,
                path=mod.path,
                lineno=1,
                node=mod.tree,
            )
            lines = mod.source.splitlines()
            for node in mod.tree.body:
                if _is_def(node):
                    assert isinstance(
                        node, (ast.FunctionDef, ast.AsyncFunctionDef)
                    )
                    self._add_function(mod, node, lines, cls=None)
                elif isinstance(node, ast.ClassDef):
                    self._add_class(mod, node, lines)
        # second pass: attribute types may name classes indexed later
        # (same module or not), so collect them once every class exists
        for mod in self.modules.values():
            for node in mod.tree.body:
                if isinstance(node, ast.ClassDef):
                    self._collect_class_attr_types(mod, node)

    def _add_function(
        self,
        mod: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        lines: list[str],
        cls: str | None,
    ) -> FunctionInfo:
        qual = (
            f"{mod.name}.{cls}.{node.name}"
            if cls
            else f"{mod.name}.{node.name}"
        )
        info = FunctionInfo(
            qualname=qual,
            module=mod.name,
            cls=cls,
            name=node.name,
            path=mod.path,
            lineno=node.lineno,
            node=node,
            sink_pragma=_sink_pragma(lines, node.lineno),
        )
        mod.functions[qual] = info
        self.functions[qual] = info
        return info

    def _add_class(
        self, mod: ModuleInfo, node: ast.ClassDef, lines: list[str]
    ) -> None:
        qual = f"{mod.name}.{node.name}"
        bases: list[str] = []
        for base in node.bases:
            dotted = _dotted(base)
            if dotted is not None:
                bases.append(mod.resolve(dotted))
        cls = ClassInfo(
            qualname=qual,
            module=mod.name,
            name=node.name,
            bases=tuple(bases),
        )
        for item in node.body:
            if _is_def(item):
                assert isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                )
                fn = self._add_function(mod, item, lines, cls=node.name)
                cls.methods[item.name] = fn.qualname
        mod.classes[qual] = cls
        self.classes[qual] = cls

    def class_named(self, mod: ModuleInfo, dotted: str) -> str | None:
        """The package class a (possibly local, possibly imported)
        name denotes in ``mod``, or None."""
        local = f"{mod.name}.{dotted}"
        if local in self.classes:
            return local
        resolved = self.resolve_global(mod.resolve(dotted))
        return resolved if resolved in self.classes else None

    def _collect_class_attr_types(
        self, mod: ModuleInfo, node: ast.ClassDef
    ) -> None:
        """Record class-body annotations and ``self.attr =
        ClassName(...)`` stores in ``__init__`` as attribute types."""
        cls = self.classes[f"{mod.name}.{node.name}"]
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                dotted = _dotted(item.annotation)
                if dotted is not None:
                    resolved = self.class_named(mod, dotted)
                    if resolved is not None:
                        cls.attr_types.setdefault(item.target.id, resolved)
            elif _is_def(item) and item.name == "__init__":
                assert isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                )
                self._collect_init_attr_types(mod, item, cls)

    def _collect_init_attr_types(
        self,
        mod: ModuleInfo,
        init: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: ClassInfo,
    ) -> None:
        for node in ast.walk(init):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            callee = _dotted(node.value.func)
            if callee is None:
                continue
            resolved = self.class_named(mod, callee)
            if resolved is None:
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    cls.attr_types.setdefault(target.attr, resolved)

    def scopes(self) -> Iterator[FunctionInfo]:
        """Every function and module-body scope, in qualname order."""
        everything = {**self.functions, **self.module_scopes}
        for qual in sorted(everything):
            yield everything[qual]

    # -- resolution ----------------------------------------------------
    def resolve_global(self, dotted: str) -> str:
        """Follow package ``__init__`` re-exports to a canonical name.

        ``repro.core.HaXCoNN`` -> ``repro.core.haxconn.HaXCoNN`` when
        ``repro/core/__init__.py`` does ``from repro.core.haxconn
        import HaXCoNN``.  Depth-capped so import cycles terminate.
        """
        for _ in range(8):
            mod_name, attr = self._split_module(dotted)
            if mod_name is None or not attr:
                return dotted
            mod = self.modules[mod_name]
            head, _, rest = attr.partition(".")
            target = mod.imports.get(head)
            if target is None:
                return dotted
            dotted = f"{target}.{rest}" if rest else target
        return dotted

    def _split_module(self, dotted: str) -> tuple[str | None, str]:
        """Longest known module prefix of ``dotted`` + remainder."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                return prefix, ".".join(parts[cut:])
        return None, dotted

    def function_of(self, dotted: str) -> FunctionInfo | None:
        """The package function a canonical dotted name denotes, if
        any -- following re-exports, and mapping a class name to its
        ``__init__``."""
        resolved = self.resolve_global(dotted)
        fn = self.functions.get(resolved)
        if fn is not None:
            return fn
        cls = self.classes.get(resolved)
        if cls is not None:
            init = cls.methods.get("__init__")
            if init is None:
                init = self._inherited(cls, "__init__")
            return self.functions.get(init) if init else None
        return None

    def method_of(self, cls_qual: str, method: str) -> FunctionInfo | None:
        """Resolve ``method`` on a class or its package-internal
        bases (depth-first over the base chain)."""
        cls = self.classes.get(self.resolve_global(cls_qual))
        if cls is None:
            return None
        qual = cls.methods.get(method) or self._inherited(cls, method)
        return self.functions.get(qual) if qual else None

    def _inherited(
        self, cls: ClassInfo, method: str, depth: int = 0
    ) -> str | None:
        if depth > 8:
            return None
        for base in cls.bases:
            base_cls = self.classes.get(self.resolve_global(base))
            if base_cls is None:
                continue
            if method in base_cls.methods:
                return base_cls.methods[method]
            found = self._inherited(base_cls, method, depth + 1)
            if found is not None:
                return found
        return None


class _CallCollector(ast.NodeVisitor):
    """Resolve the call edges of one function body (nested inlined)."""

    def __init__(
        self, pkg: Package, mod: ModuleInfo, fn: FunctionInfo
    ) -> None:
        self.pkg = pkg
        self.mod = mod
        self.fn = fn
        self.edges: list[CallEdge] = []
        #: local var -> class qualname (from ``v = ClassName(...)``)
        self.var_types: dict[str, str] = {}
        self._collect_var_types(fn.node)

    def _collect_var_types(self, node: ast.AST) -> None:
        subs = (s for stmt in scope_body(self.fn) for s in ast.walk(stmt))
        for sub in subs:
            if not isinstance(sub, (ast.Assign, ast.AnnAssign)):
                continue
            value = sub.value
            cls: str | None = None
            if isinstance(value, ast.Call):
                dotted = _dotted(value.func)
                if dotted is not None:
                    cls = self.pkg.class_named(self.mod, dotted)
            if cls is None and isinstance(sub, ast.AnnAssign):
                dotted = _dotted(sub.annotation)
                if dotted is not None:
                    cls = self.pkg.class_named(self.mod, dotted)
            if cls is None:
                continue
            targets = (
                sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    self.var_types[target.id] = cls
        # parameter annotations type variables too
        if _is_def(node):
            assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            args = node.args
            for a in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            ):
                if a.annotation is None:
                    continue
                dotted = _dotted(a.annotation)
                if dotted is None:
                    continue
                resolved = self.pkg.class_named(self.mod, dotted)
                if resolved is not None:
                    self.var_types[a.arg] = resolved

    # -- resolution helpers --------------------------------------------
    def _edge(self, callee: FunctionInfo | None, node: ast.AST, kind: str) -> None:
        if callee is None or callee.qualname == self.fn.qualname:
            return
        self.edges.append(
            CallEdge(
                caller=self.fn.qualname,
                callee=callee.qualname,
                line=getattr(node, "lineno", self.fn.lineno),
                kind=kind,
            )
        )

    def _resolve_callable(self, func: ast.expr) -> FunctionInfo | None:
        """The package function a call expression's target denotes."""
        if isinstance(func, ast.Name):
            # module-level function or class in this module first
            local = f"{self.mod.name}.{func.id}"
            if local in self.pkg.functions:
                return self.pkg.functions[local]
            if local in self.pkg.classes and func.id not in self.mod.imports:
                return self.pkg.function_of(local)
            return self.pkg.function_of(self.mod.resolve(func.id))
        if not isinstance(func, ast.Attribute):
            return None
        base = func.value
        method = func.attr
        if isinstance(base, ast.Name):
            if base.id == "self" and self.fn.cls is not None:
                return self.pkg.method_of(
                    f"{self.mod.name}.{self.fn.cls}", method
                )
            if base.id in self.var_types:
                return self.pkg.method_of(self.var_types[base.id], method)
            dotted = _dotted(func)
            if dotted is not None:
                resolved = self.mod.resolve(dotted)
                fn = self.pkg.function_of(resolved)
                if fn is not None:
                    return fn
            return None
        # self.attr.method() through recorded attribute types
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
            and self.fn.cls is not None
        ):
            cls = self.pkg.classes.get(
                f"{self.mod.name}.{self.fn.cls}"
            )
            if cls is not None:
                attr_cls = cls.attr_types.get(base.attr)
                if attr_cls is not None:
                    return self.pkg.method_of(attr_cls, method)
        return None

    def _resolve_reference(self, node: ast.expr) -> FunctionInfo | None:
        """A *reference* to a function (not a call): Name or
        ``self.method`` / ``Class.method`` attribute."""
        if isinstance(node, ast.Name):
            local = f"{self.mod.name}.{node.id}"
            if local in self.pkg.functions:
                return self.pkg.functions[local]
            resolved = self.mod.resolve(node.id)
            if resolved != node.id or "." in resolved:
                fn = self.pkg.functions.get(
                    self.pkg.resolve_global(resolved)
                )
                if fn is not None:
                    return fn
            return None
        if isinstance(node, ast.Attribute):
            return self._resolve_callable(node)
        return None

    # -- visitor -------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._edge(self._resolve_callable(node.func), node, "call")
        worker = _worker_argument(node)
        for arg in list(node.args) + [k.value for k in node.keywords]:
            ref = self._resolve_reference(arg)
            if ref is not None:
                kind = "worker" if arg is worker else "higher-order"
                self._edge(ref, node, kind)
        self.generic_visit(node)


def _worker_argument(node: ast.Call) -> ast.expr | None:
    """The argument a worker entry point runs elsewhere, if any."""
    name = _dotted(node.func)
    callee = name.rsplit(".", 1)[-1] if name is not None else None
    if callee not in WORKER_ENTRY_POINTS:
        return None
    if callee == "submit":
        return node.args[0] if node.args else None
    return next((k.value for k in node.keywords if k.arg == "target"), None)


@dataclass
class CallGraph:
    """Functions plus resolved edges, ready for the effect fixpoint."""

    package: Package
    edges: dict[str, tuple[CallEdge, ...]]

    @property
    def functions(self) -> dict[str, FunctionInfo]:
        return self.package.functions

    def callees(self, qualname: str) -> tuple[CallEdge, ...]:
        return self.edges.get(qualname, ())

    def edge_count(self) -> int:
        return sum(len(v) for v in self.edges.values())

    def iter_edges(self) -> Iterator[CallEdge]:
        for qual in sorted(self.edges):
            yield from self.edges[qual]

    def worker_targets(self) -> set[str]:
        """Functions some scope hands to a thread/process/executor."""
        return {
            e.callee for e in self.iter_edges() if e.kind == "worker"
        }


def build_call_graph(pkg: Package) -> CallGraph:
    """Resolve every scope's call edges (deterministic order)."""
    edges: dict[str, tuple[CallEdge, ...]] = {}
    for fn in pkg.scopes():
        mod = pkg.modules[fn.module]
        collector = _CallCollector(pkg, mod, fn)
        for stmt in scope_body(fn):
            collector.visit(stmt)
        # dedupe on (callee, kind), keep first (lowest-line) witness
        seen: set[tuple[str, str]] = set()
        kept: list[CallEdge] = []
        for edge in sorted(
            collector.edges, key=lambda e: (e.callee, e.line)
        ):
            key = (edge.callee, edge.kind)
            if key not in seen:
                seen.add(key)
                kept.append(edge)
        edges[fn.qualname] = tuple(kept)
    return CallGraph(package=pkg, edges=edges)
