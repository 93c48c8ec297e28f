"""Thread-escape analysis for the serving arc.

Ahead of a thread-pooled ``api/http.py``, ``Router.dispatch`` and
``TVDP.execute`` will run concurrently from many threads against the
same platform instance.  This pass walks the call graph from those
concurrent entry points, computes the set of *shared* classes (objects
transitively held by the entry points' owners), and classifies every
mutable attribute on them:

* ``immutable`` — no mutation site reachable from a concurrent root
  (construction-time writes in ``__init__``/``__setstate__`` and writes
  to freshly-constructed locals are exempt);
* ``lock-guarded`` — every reachable mutation happens with one common
  lock held, identified by its creation site (reusing
  :mod:`repro.devtools.lockorder`'s lock index), either lexically via
  ``with`` or interprocedurally (the function is only ever called with
  the lock already held — the ``Table._ordered_add`` convention);
* ``contextvar-scoped`` — ``contextvars.ContextVar`` / thread-local
  state, safe by construction;
* ``unguarded-shared`` — a **finding**: the attribute is mutated on a
  concurrent path with no consistent lock.

Classifications are emitted to ``tools/concurrency_manifest.json``,
drift-gated exactly like the shard-safety manifest: the checked-in file
must match the tree, and the lock-coverage sanitizer
(:mod:`repro.devtools.sanitizers`) enforces the ``lock-guarded`` rows
at runtime under ``REPRO_SANITIZE=1``.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field

from repro.devtools.callgraph import (
    CallGraph,
    MUTATING_METHODS,
    ModuleInfo,
    SymbolTable,
    attr_type_on,
    dotted_name,
    expand_roots,
    iter_functions,
    propagate,
    self_attr_assigns,
)
from repro.devtools.findings import Finding, SourceModule

RULE = "thread-escape"

CONCURRENCY_MANIFEST_SCHEMA = 1

#: Entry points that will run concurrently once the serving arc lands:
#: the HTTP dispatch boundary, the platform's query executor, the shard
#: scatter path (coordinator and worker sides), and edge dispatch.
#: HTTP handlers are appended dynamically via :func:`discover_handlers`
#: (the ``handler(request)`` call inside ``dispatch`` is a dynamic
#: dispatch the call graph cannot resolve).
DEFAULT_CONCURRENT_ROOTS: tuple[str, ...] = (
    "*.api.http.Router.dispatch",
    "*.api.service.TVDPService.handle",
    "*.core.platform.TVDP.execute",
    "*.core.platform.TVDP.execute_many",
    "*.core.platform.TVDP._run_*",
    "*.shard.router.ShardRouter.execute",
    "*.shard.router.ShardRouter.execute_many",
    "*.shard.executor._run_batch",
    "*.edge.dispatch.dispatch_model",
    "*.edge.dispatch.dispatch_fleet",
    "*.edge.dispatch.dispatch_fleet_resilient",
)

#: Construction/teardown methods whose writes are pre-publication.
CTOR_EXEMPT_METHODS = frozenset(
    {"__init__", "__post_init__", "__new__", "__getstate__", "__setstate__", "__del__"}
)

_CONTEXT_SCOPED_CTORS = frozenset(
    {"contextvars.ContextVar", "ContextVar", "threading.local", "local"}
)

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def discover_handlers(table: SymbolTable) -> tuple[str, ...]:
    """HTTP-handler qualnames: targets of ``route(m, t)(self._h)``
    decorator applications and ``router.add(m, t, self._h)`` calls."""
    handlers: set[str] = set()
    for info, class_context, _qualname, fn in iter_functions(table):
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            target: ast.expr | None = None
            if isinstance(node.func, ast.Call) and len(node.args) == 1:
                inner = node.func.func
                inner_name = (
                    inner.attr
                    if isinstance(inner, ast.Attribute)
                    else inner.id if isinstance(inner, ast.Name) else ""
                )
                if inner_name == "route":
                    target = node.args[0]
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "add"
                and len(node.args) == 3
                and all(isinstance(a, ast.Constant) for a in node.args[:2])
            ):
                target = node.args[2]
            if target is None:
                continue
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id in ("self", "cls")
                and class_context is not None
            ):
                method = table.method_on(class_context, target.attr)
                if method is not None:
                    handlers.add(method)
            elif isinstance(target, ast.Name):
                resolved = table.resolve_export(f"{info.dotted}.{target.id}")
                if resolved is not None and not table.is_class(resolved):
                    handlers.add(resolved)
    return tuple(sorted(handlers))


@dataclass(slots=True)
class MutationSite:
    """One reachable write to a shared attribute."""

    qualname: str  # enclosing function
    path: str
    line: int
    held: frozenset[str]  # lexically-held locks at the site
    module: SourceModule  # for allow-comment checks
    kind: str  # "assign" | "augassign" | "store" | "method" | "delete"


@dataclass(slots=True)
class AttrClass:
    """Classification of one shared-class attribute."""

    owner: str
    attr: str
    classification: str
    guard: str = ""
    path: str = ""
    line: int = 0
    sites: list[MutationSite] = field(default_factory=list)


@dataclass(slots=True)
class EscapeAnalysis:
    """Everything the escape pass derived, reused by the atomicity pass
    and by the manifest builder."""

    roots: tuple[str, ...]
    handlers: tuple[str, ...]
    reachable: frozenset[str]
    shared_classes: frozenset[str]
    attrs: dict[tuple[str, str], AttrClass]
    #: function qualname -> locks provably held on every reachable call
    guarded_context: dict[str, frozenset[str]]


def _class_nodes(table: SymbolTable) -> dict[str, tuple[ModuleInfo, ast.ClassDef]]:
    out: dict[str, tuple[ModuleInfo, ast.ClassDef]] = {}
    for dotted, info in table.modules.items():
        for node in info.module.tree.body:
            if isinstance(node, ast.ClassDef):
                out[f"{dotted}.{node.name}"] = (info, node)
    return out


def _held_types(graph: CallGraph, qualname: str, node: ast.ClassDef) -> set[str]:
    """Class qualnames instances of ``qualname`` hold in attributes:
    inferred attr types, container element types, and annotated-param
    assigns (``self._db = db`` where ``db: Database``)."""
    table = graph.table
    held = set(table.attr_types.get(qualname, {}).values())
    held.update(table.attr_elem_types.get(qualname, {}).values())
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        locals_map = graph.function[f"{qualname}.{method.name}"].local_types
        for receiver, _attr, value, _annotation, _line in self_attr_assigns(method):
            if receiver == "self" and isinstance(value, ast.Name) and value.id in locals_map:
                held.add(locals_map[value.id])
    return held


def _shared_classes(
    graph: CallGraph,
    reachable: frozenset[str],
    roots: tuple[str, ...],
    nodes: dict[str, tuple[ModuleInfo, ast.ClassDef]],
) -> frozenset[str]:
    """Closure of classes whose instances concurrent roots can touch:
    owners of root methods, typed module globals referenced from
    reachable code, then everything they transitively hold."""
    table = graph.table
    seeds = {
        owner for qualname in roots if table.is_class(owner := qualname.rsplit(".", 1)[0])
    }
    for function in graph.functions:
        var_types = function.info.var_types
        if not var_types or function.qualname not in reachable:
            continue
        for node, _held in function.nodes:
            if isinstance(node, ast.Name) and table.is_class(var_types.get(node.id, "")):
                seeds.add(var_types[node.id])
    closure: set[str] = set()
    stack = list(seeds)
    while stack:
        current = stack.pop()
        if current in closure or current not in nodes:
            continue
        closure.add(current)
        stack.extend(
            held
            for held in _held_types(graph, current, nodes[current][1])
            if table.is_class(held)
        )
    return frozenset(closure)


def _context_scoped_attrs(node: ast.ClassDef) -> dict[str, int]:
    """Attrs assigned a ContextVar / thread-local, with their line."""
    return {
        attr: line
        for _receiver, attr, value, _annotation, line in self_attr_assigns(node)
        if isinstance(value, ast.Call) and dotted_name(value.func) in _CONTEXT_SCOPED_CTORS
    }


def _attr_inventory(node: ast.ClassDef) -> dict[str, tuple[int, bool]]:
    """``{attr: (first line, is mutable-typed)}`` for every ``self.X``
    assignment in the class body plus annotated class-level fields."""
    out: dict[str, tuple[int, bool]] = {}

    def note(attr: str, line: int, mutable: bool) -> None:
        first, was_mutable = out.get(attr, (line, False))
        out[attr] = (first, was_mutable or mutable)

    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            ann = ast.unparse(stmt.annotation)
            mutable = any(tok in ann for tok in ("dict", "list", "set", "Dict", "List"))
            note(stmt.target.id, stmt.lineno, mutable)
    for receiver, attr, value, _annotation, line in self_attr_assigns(node):
        if receiver == "self":
            note(attr, line, isinstance(value, _MUTABLE_LITERALS + (ast.Call,)))
    return out


def _container_of(node: ast.expr) -> ast.expr:
    """The expression under any subscripts: ``self.X[k][i]`` -> ``self.X``.
    Writing into a container held inside ``X`` mutates the state ``X``
    holds, so the write is attributed to ``X``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


def _owner_of_base(
    table: SymbolTable,
    class_context: str | None,
    locals_map: dict[str, str],
    fresh: frozenset[str],
    aliases: dict[str, tuple[str, str]],
    base: ast.expr,
) -> tuple[str, str] | None:
    """Resolve the receiver of a write: ``(owner class, attr)`` for
    ``self.X``, ``self.Y.X`` (one level of nesting), ``local.X`` where
    ``local`` has a known class type and is not freshly constructed, or
    a bare ``local`` that aliases ``self.X``."""
    if isinstance(base, ast.Attribute):
        inner = base.value
        if isinstance(inner, ast.Name):
            if inner.id in ("self", "cls") and class_context is not None:
                return class_context, base.attr
            if inner.id in aliases and base.attr:
                # alias.X: the alias points at (owner, attr); writing a
                # sub-attribute mutates the held object, attributed to
                # the held object's class when its type is known.
                owner, attr = aliases[inner.id]
                nested = attr_type_on(table, owner, attr)
                if nested is not None:
                    return nested, base.attr
                return None
            if inner.id in locals_map and inner.id not in fresh:
                return locals_map[inner.id], base.attr
            return None
        if (
            isinstance(inner, ast.Attribute)
            and isinstance(inner.value, ast.Name)
            and inner.value.id in ("self", "cls")
            and class_context is not None
        ):
            nested = attr_type_on(table, class_context, inner.attr)
            if nested is not None:
                return nested, base.attr
    return None


def analyze_escape(table: SymbolTable, graph: CallGraph) -> EscapeAnalysis:
    """Run the escape analysis (once per graph); pure — no findings,
    no IO."""
    if "escape" not in graph.memo:
        graph.memo["escape"] = _analyze_escape(table, graph)
    analysis: EscapeAnalysis = graph.memo["escape"]
    return analysis


def _analyze_escape(table: SymbolTable, graph: CallGraph) -> EscapeAnalysis:
    handlers = discover_handlers(table)
    roots = tuple(sorted({*expand_roots(table, DEFAULT_CONCURRENT_ROOTS), *handlers}))
    reachable = graph.reachable(roots)
    nodes = _class_nodes(table)
    shared = _shared_classes(graph, reachable, roots, nodes)

    # Which shared classes have any reachable method at all: classes
    # never entered from a concurrent root are construction-only and
    # stay out of the manifest.
    active_classes = {
        owner for qualname in reachable if (owner := qualname.rsplit(".", 1)[0]) in shared
    }

    sites: dict[tuple[str, str], list[MutationSite]] = {}
    for function in graph.functions:
        if function.qualname not in reachable or function.node.name in CTOR_EXEMPT_METHODS:
            continue
        class_context = function.cls
        # Locals that alias shared state (``campaign = self._x``);
        # writes to freshly-constructed locals (``function.fresh``) are
        # pre-publication (the clone_empty pattern).
        aliases: dict[str, tuple[str, str]] = {}
        if class_context is not None:
            for stmt, _held in function.nodes:
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and isinstance(stmt.value, ast.Attribute)
                    and isinstance(stmt.value.value, ast.Name)
                    and stmt.value.value.id in ("self", "cls")
                ):
                    aliases[stmt.targets[0].id] = (class_context, stmt.value.attr)

        def record(
            base: ast.expr, line: int, held: tuple[str, ...], kind: str, method: str = ""
        ) -> None:
            found = _owner_of_base(
                table, class_context, function.local_types, function.fresh, aliases, base
            )
            if found is None:
                # a bare alias local mutated in place: campaign = self._x
                # then campaign.append(...) has base Name.
                if isinstance(base, ast.Name) and base.id in aliases:
                    found = aliases[base.id]
                else:
                    return
            owner, attr = found
            if owner not in shared:
                return
            if method:
                # ``self._db.insert(...)`` where Database defines insert
                # is a method call, not a container mutation: the call
                # graph attributes its internal writes at their own
                # sites (under whatever lock that method takes).
                receiver = attr_type_on(table, owner, attr)
                if receiver is not None and table.method_on(receiver, method):
                    return
            sites.setdefault((owner, attr), []).append(
                MutationSite(
                    qualname=function.qualname,
                    path=function.module.rel_path,
                    line=line,
                    held=frozenset(held),
                    module=function.module,
                    kind=kind,
                )
            )

        def record_store(target: ast.Subscript, line: int, held: tuple[str, ...], kind: str) -> None:
            container = _container_of(target)
            if isinstance(container, ast.Attribute):
                record(container, line, held, kind)

        for node, held in function.nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        record(target, node.lineno, held, "assign")
                    elif isinstance(target, ast.Subscript):
                        record_store(target, node.lineno, held, "store")
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Attribute):
                    record(node.target, node.lineno, held, "augassign")
                elif isinstance(node.target, ast.Subscript):
                    record_store(node.target, node.lineno, held, "store")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        record_store(target, node.lineno, held, "delete")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
            ):
                record(
                    _container_of(node.func.value), node.lineno, held,
                    "method", method=node.func.attr,
                )

    guarded_context = _guarded_context(graph, roots, reachable)

    # Classify each attribute of each active shared class.
    attrs: dict[tuple[str, str], AttrClass] = {}
    for owner in sorted(active_classes):
        info, node = nodes[owner]
        context_scoped = _context_scoped_attrs(node)
        inventory = _attr_inventory(node)
        lock_attrs = graph.locks.class_attrs.get(owner, set())
        names = set(inventory) | {attr for (cls, attr) in sites if cls == owner}
        for attr in sorted(names - lock_attrs):
            line, mutable = inventory.get(attr, (node.lineno, True))
            # Sites sanctioned with an inline allow-comment drop out
            # before classification.
            live = [
                site
                for site in sites.get((owner, attr), [])
                if not site.module.allows(RULE, site.line)
            ]
            guard = ""
            if attr in context_scoped:
                classification, line, live = "contextvar-scoped", context_scoped[attr], []
            elif not live:
                if not mutable:
                    continue
                classification = "immutable"
            else:
                common = frozenset.intersection(
                    *(site.held | guarded_context[site.qualname] for site in live)
                )
                classification = "lock-guarded" if common else "unguarded-shared"
                if common:
                    own = sorted(lock for lock in common if lock.startswith(owner + "."))
                    guard = own[0] if own else min(common)
            attrs[(owner, attr)] = AttrClass(
                owner, attr, classification, guard, info.module.rel_path, line, live
            )

    return EscapeAnalysis(
        roots=roots,
        handlers=handlers,
        reachable=reachable,
        shared_classes=shared,
        attrs=attrs,
        guarded_context=guarded_context,
    )


def _guarded_context(
    graph: CallGraph, roots: tuple[str, ...], reachable: frozenset[str]
) -> dict[str, frozenset[str]]:
    """``function -> locks held on every call path from a concurrent
    root`` — the ``Table._ordered_add`` / ``_prune`` caller-holds-lock
    idiom, recursion included.

    Computed as the complement of a may-analysis: lock L is *exposed*
    at a function when some chain of calls from a root reaches it
    crossing only call sites that do not hold L.  The ``None`` key marks
    "reached through direct calls at all": a function reached only as a
    callback has no known calling context and is granted no guard.
    """
    calls = [
        site
        for function in graph.functions
        if function.qualname in reachable
        for site in function.calls
        if site.callee in reachable
    ]
    universe = frozenset(lock for site in calls for lock in site.held)
    exposed = propagate(
        calls,
        {root: (None, *universe) for root in roots},
        keep=lambda site, lock: lock not in site.held,
        down=True,
    )
    return {
        qualname: universe - exposed[qualname].keys()
        if None in exposed.get(qualname, ())
        else frozenset()
        for qualname in reachable
    }


def build_concurrency_manifest(
    analysis: EscapeAnalysis, roots_patterns: tuple[str, ...]
) -> dict:
    """The drift-gated manifest document (deterministic ordering)."""
    entries = []
    for (owner, attr) in sorted(analysis.attrs):
        record = analysis.attrs[(owner, attr)]
        if record.classification == "unguarded-shared":
            continue  # findings, not accepted state
        entries.append(
            {
                "attr": f"{owner}.{attr}",
                "classification": record.classification,
                "guard": record.guard,
                "path": record.path,
                "line": record.line,
            }
        )
    return {
        "schema": CONCURRENCY_MANIFEST_SCHEMA,
        "comment": (
            "Thread-safety classification of shared mutable state reachable "
            "from concurrent entry points; regenerate with "
            "`python -m repro.devtools.check --write-concurrency-manifest`. "
            "The lock-coverage sanitizer enforces lock-guarded rows at "
            "runtime under REPRO_SANITIZE=1."
        ),
        "roots": list(roots_patterns),
        "entries": entries,
    }


def render_concurrency_manifest(manifest: dict) -> str:
    """Canonical byte representation (same tree -> byte-identical)."""
    return json.dumps(manifest, indent=2, sort_keys=False) + "\n"


def check_thread_escape(
    table: SymbolTable,
    graph: CallGraph,
    checked_in: dict | None = None,
    manifest_rel: str = "tools/concurrency_manifest.json",
) -> tuple[list[Finding], dict, EscapeAnalysis]:
    """Findings + the regenerated manifest + the reusable analysis."""
    analysis = analyze_escape(table, graph)
    findings: list[Finding] = []
    for (owner, attr), record in sorted(analysis.attrs.items()):
        if record.classification != "unguarded-shared":
            continue
        witnesses = sorted({(s.path, s.line) for s in record.sites})
        first = record.sites[0]
        shown = ", ".join(f"{p}:{ln}" for p, ln in witnesses[:3])
        more = f" (+{len(witnesses) - 3} more)" if len(witnesses) > 3 else ""
        owner_short = owner.rsplit(".", 1)[-1]
        findings.append(
            Finding(
                rule=RULE,
                path=first.path,
                line=first.line,
                message=(
                    f"{owner_short}.{attr} is shared across concurrent entry "
                    f"points but mutated without a consistent lock at {shown}"
                    f"{more}; guard every mutation with one lock or scope the "
                    "state per-request"
                ),
                scope=f"{owner_short}.{attr}",
            )
        )

    manifest = build_concurrency_manifest(analysis, DEFAULT_CONCURRENT_ROOTS)
    problem = ""
    if checked_in is None:
        if manifest["entries"]:
            problem = "missing"
    elif checked_in != manifest:
        problem = "stale (the tree's classifications changed)"
    if problem:
        findings.append(
            Finding(
                rule=RULE,
                path=manifest_rel,
                line=1,
                message=(
                    f"concurrency manifest {manifest_rel} is {problem}; "
                    "regenerate with --write-concurrency-manifest"
                ),
                scope="manifest",
            )
        )
    findings.sort(key=lambda f: (f.path, f.line, f.scope))
    return findings, manifest, analysis
