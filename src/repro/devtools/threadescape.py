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
  the lock already held — the ``_dense_matrix_locked`` convention);
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
from dataclasses import dataclass, field
from fnmatch import fnmatch

from repro.devtools.callgraph import (
    CallGraph,
    ModuleInfo,
    SymbolTable,
    attr_type_on,
    iter_functions,
    resolve_call,
    resolve_locals,
)
from repro.devtools.findings import Finding
from repro.devtools.lockorder import _index_locks, _LockIndex, _resolve_lock

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

#: Method calls that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append", "appendleft", "add", "insert", "extend", "extendleft",
        "update", "setdefault", "pop", "popitem", "popleft", "remove",
        "discard", "clear", "sort", "reverse",
    }
)

_CONTEXT_SCOPED_CTORS = frozenset(
    {"contextvars.ContextVar", "ContextVar", "threading.local", "local"}
)

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def _dotted_of(node: ast.AST) -> str:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


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


def expand_concurrent_roots(
    table: SymbolTable, patterns: tuple[str, ...]
) -> tuple[str, ...]:
    """Root qualnames: pattern matches plus discovered HTTP handlers."""
    matched = {
        qualname
        for qualname in table.symbols
        if any(fnmatch(qualname, pattern) for pattern in patterns)
    }
    matched.update(discover_handlers(table))
    return tuple(sorted(matched))


@dataclass(slots=True)
class MutationSite:
    """One reachable write to a shared attribute."""

    qualname: str  # enclosing function
    path: str
    line: int
    held: frozenset[str]  # lexically-held locks at the site
    module: object  # SourceModule, for allow-comment checks
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
    lock_index: _LockIndex


def _class_nodes(table: SymbolTable) -> dict[str, tuple[ModuleInfo, ast.ClassDef]]:
    out: dict[str, tuple[ModuleInfo, ast.ClassDef]] = {}
    for dotted, info in table.modules.items():
        for node in info.module.tree.body:
            if isinstance(node, ast.ClassDef):
                out[f"{dotted}.{node.name}"] = (info, node)
    return out


def _held_types(
    table: SymbolTable, info: ModuleInfo, qualname: str, node: ast.ClassDef
) -> set[str]:
    """Class qualnames instances of ``qualname`` hold in attributes:
    inferred attr types, container element types, and annotated-param
    assigns (``self._db = db`` where ``db: Database``)."""
    held = set(table.attr_types.get(qualname, {}).values())
    held.update(table.attr_elem_types.get(qualname, {}).values())
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        locals_map = resolve_locals(table, info, qualname, method)
        for stmt in ast.walk(method):
            target_value: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, target_value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                target, target_value = stmt.target, stmt.value
            else:
                continue
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and isinstance(target_value, ast.Name)
                and target_value.id in locals_map
            ):
                held.add(locals_map[target_value.id])
    return held


def _shared_classes(
    table: SymbolTable,
    reachable: frozenset[str],
    roots: tuple[str, ...],
    nodes: dict[str, tuple[ModuleInfo, ast.ClassDef]],
) -> frozenset[str]:
    """Closure of classes whose instances concurrent roots can touch:
    owners of root methods, typed module globals referenced from
    reachable code, then everything they transitively hold."""
    seeds: set[str] = set()
    for qualname in roots:
        owner = qualname.rsplit(".", 1)[0]
        if table.is_class(owner):
            seeds.add(owner)
    for dotted, info in table.modules.items():
        if not info.var_types:
            continue
        candidates = set(info.var_types)
        for _info, _ctx, fn_qualname, fn in iter_functions(table):
            if _info.dotted != dotted or fn_qualname not in reachable:
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Name) and node.id in candidates:
                    type_qualname = info.var_types[node.id]
                    if table.is_class(type_qualname):
                        seeds.add(type_qualname)
    closure: set[str] = set()
    stack = list(seeds)
    while stack:
        current = stack.pop()
        if current in closure or current not in nodes:
            continue
        closure.add(current)
        info, node = nodes[current]
        for held in _held_types(table, info, current, node):
            if table.is_class(held) and held not in closure:
                stack.append(held)
    return frozenset(closure)


def _context_scoped_attrs(node: ast.ClassDef) -> dict[str, int]:
    """Attrs assigned a ContextVar / thread-local, with their line."""
    out: dict[str, int] = {}
    for stmt in ast.walk(node):
        value: ast.expr | None = None
        target: ast.expr | None = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value = stmt.target, stmt.value
        if (
            value is not None
            and isinstance(value, ast.Call)
            and _dotted_of(value.func) in _CONTEXT_SCOPED_CTORS
            and isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id in ("self", "cls")
        ):
            out[target.attr] = stmt.lineno
    return out


def _attr_inventory(
    info: ModuleInfo, qualname: str, node: ast.ClassDef
) -> dict[str, tuple[int, bool]]:
    """``{attr: (first line, is mutable-typed)}`` for every ``self.X``
    assignment in the class body plus annotated class-level fields."""
    out: dict[str, tuple[int, bool]] = {}

    def note(attr: str, line: int, mutable: bool) -> None:
        if attr not in out:
            out[attr] = (line, mutable)
        elif mutable and not out[attr][1]:
            out[attr] = (out[attr][0], True)

    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            ann = ast.unparse(stmt.annotation) if stmt.annotation else ""
            mutable = any(tok in ann for tok in ("dict", "list", "set", "Dict", "List"))
            note(stmt.target.id, stmt.lineno, mutable)
    for stmt in ast.walk(node):
        value: ast.expr | None = None
        target: ast.expr | None = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            target, value = stmt.target, stmt.value
        if (
            target is not None
            and isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            mutable = isinstance(value, _MUTABLE_LITERALS) or isinstance(
                value, ast.Call
            )
            note(target.attr, stmt.lineno, mutable)
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
    fresh: set[str],
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


def analyze_escape(
    table: SymbolTable,
    graph: CallGraph,
    roots_patterns: tuple[str, ...] = DEFAULT_CONCURRENT_ROOTS,
) -> EscapeAnalysis:
    """Run the escape analysis; pure — no findings, no IO."""
    handlers = discover_handlers(table)
    roots = expand_concurrent_roots(table, roots_patterns)
    reachable = frozenset(graph.reachable(roots) | set(roots))
    nodes = _class_nodes(table)
    shared = _shared_classes(table, reachable, roots, nodes)
    lock_index = _index_locks(table)

    # Which shared classes have any reachable method at all: classes
    # never entered from a concurrent root are construction-only and
    # stay out of the manifest.
    active_classes: set[str] = set()
    for qualname in reachable:
        owner = qualname.rsplit(".", 1)[0]
        if owner in shared:
            active_classes.add(owner)

    sites: dict[tuple[str, str], list[MutationSite]] = {}
    # callee -> [(caller, lexically-held locks at the call)]
    call_contexts: dict[str, list[tuple[str, frozenset[str]]]] = {}

    for info, class_context, qualname, fn in iter_functions(table):
        if qualname not in reachable:
            continue
        locals_map = resolve_locals(table, info, class_context, fn)
        in_ctor = fn.name in CTOR_EXEMPT_METHODS

        # Locals bound to freshly-constructed objects: writes to them
        # are pre-publication (the clone_empty pattern).
        fresh: set[str] = set()
        aliases: dict[str, tuple[str, str]] = {}
        for stmt in ast.walk(fn):
            if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
                continue
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if isinstance(stmt.value, ast.Call):
                callee = resolve_call(
                    table, info, class_context, stmt.value.func, locals_map
                )
                if callee is not None and table.is_class(callee):
                    fresh.add(target.id)
            elif (
                isinstance(stmt.value, ast.Attribute)
                and isinstance(stmt.value.value, ast.Name)
                and stmt.value.value.id in ("self", "cls")
                and class_context is not None
            ):
                aliases[target.id] = (class_context, stmt.value.attr)

        def record(
            base: ast.expr,
            line: int,
            held: tuple[str, ...],
            kind: str,
            method: str = "",
        ) -> None:
            found = _owner_of_base(
                table, class_context, locals_map, fresh, aliases, base
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
            if kind == "method" and method:
                # ``self._db.insert(...)`` where Database defines insert
                # is a method call, not a container mutation: the call
                # graph attributes its internal writes at their own
                # sites (under whatever lock that method takes).
                receiver = attr_type_on(table, owner, attr)
                if receiver is not None and table.method_on(receiver, method):
                    return
            sites.setdefault((owner, attr), []).append(
                MutationSite(
                    qualname=qualname,
                    path=info.module.rel_path,
                    line=line,
                    held=frozenset(held),
                    module=info.module,
                    kind=kind,
                )
            )

        def record_store(
            target: ast.Subscript, line: int, held: tuple[str, ...], kind: str
        ) -> None:
            container = _container_of(target)
            if isinstance(container, ast.Attribute):
                record(container, line, held, kind)

        def visit(node: ast.AST, held: tuple[str, ...]) -> None:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                current = held
                for item in node.items:
                    visit(item.context_expr, current)
                    lock = _resolve_lock(
                        table, lock_index, info, class_context, item.context_expr
                    )
                    if lock is not None:
                        current = current + (lock,)
                for stmt in node.body:
                    visit(stmt, current)
                return
            if not in_ctor:
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
            if isinstance(node, ast.Call):
                callee = resolve_call(table, info, class_context, node.func, locals_map)
                if callee is not None and table.is_class(callee):
                    callee = table.method_on(callee, "__init__")
                if callee is not None and callee in reachable:
                    call_contexts.setdefault(callee, []).append(
                        (qualname, frozenset(held))
                    )
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        for stmt in fn.body:
            visit(stmt, ())

    # Called-with-lock-held fixpoint: a function every reachable call
    # site of which runs with lock L held is itself guarded by L (the
    # ``_dense_matrix_locked`` / ``_prune`` caller-holds-lock idiom).
    guarded: dict[str, frozenset[str] | None] = {q: None for q in reachable}
    for root in roots:
        guarded[root] = frozenset()
    # Kleene iteration from the optimistic top (None = "all locks"):
    # unresolved callers are intersection-identity, which lets recursive
    # helpers (RTree._insert calling itself under the index lock)
    # converge to the lock their external callers hold.
    changed = True
    while changed:
        changed = False
        for callee, contexts in call_contexts.items():
            if guarded.get(callee) == frozenset():
                continue
            values = [
                held | caller_guard
                for caller, held in contexts
                if (caller_guard := guarded.get(caller)) is not None
            ]
            if not values:
                continue
            combined = frozenset.intersection(*values)
            previous = guarded.get(callee)
            if previous is not None:
                combined = combined & previous
            if combined != previous:
                guarded[callee] = combined
                changed = True
    guarded_context: dict[str, frozenset[str]] = {
        qualname: (locks if locks is not None else frozenset())
        for qualname, locks in guarded.items()
    }

    # Classify each attribute of each active shared class.
    attrs: dict[tuple[str, str], AttrClass] = {}
    for owner in sorted(active_classes):
        info, node = nodes[owner]
        context_scoped = _context_scoped_attrs(node)
        inventory = _attr_inventory(info, owner, node)
        lock_attrs = lock_index.class_attrs.get(owner, set())
        names = set(inventory) | {
            attr for (cls, attr) in sites if cls == owner
        }
        for attr in sorted(names):
            if attr in lock_attrs:
                continue
            line, mutable = inventory.get(attr, (node.lineno, True))
            if attr in context_scoped:
                attrs[(owner, attr)] = AttrClass(
                    owner=owner,
                    attr=attr,
                    classification="contextvar-scoped",
                    path=info.module.rel_path,
                    line=context_scoped[attr],
                )
                continue
            attr_sites = sites.get((owner, attr), [])
            # Sites sanctioned with an inline allow-comment drop out
            # before classification.
            live = [
                s
                for s in attr_sites
                if not s.module.allows(RULE, s.line)  # type: ignore[attr-defined]
            ]
            if not live:
                if mutable:
                    attrs[(owner, attr)] = AttrClass(
                        owner=owner,
                        attr=attr,
                        classification="immutable",
                        path=info.module.rel_path,
                        line=line,
                    )
                continue
            effective = [
                s.held | guarded_context.get(s.qualname, frozenset()) for s in live
            ]
            common = frozenset.intersection(*effective) if effective else frozenset()
            if common:
                own = sorted(lock for lock in common if lock.startswith(owner + "."))
                guard = own[0] if own else sorted(common)[0]
                attrs[(owner, attr)] = AttrClass(
                    owner=owner,
                    attr=attr,
                    classification="lock-guarded",
                    guard=guard,
                    path=info.module.rel_path,
                    line=line,
                    sites=live,
                )
            else:
                attrs[(owner, attr)] = AttrClass(
                    owner=owner,
                    attr=attr,
                    classification="unguarded-shared",
                    path=info.module.rel_path,
                    line=line,
                    sites=live,
                )

    return EscapeAnalysis(
        roots=roots,
        handlers=handlers,
        reachable=reachable,
        shared_classes=shared,
        attrs=attrs,
        guarded_context=guarded_context,
        lock_index=lock_index,
    )


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
    import json

    return json.dumps(manifest, indent=2, sort_keys=False) + "\n"


def check_thread_escape(
    table: SymbolTable,
    graph: CallGraph,
    roots_patterns: tuple[str, ...] = DEFAULT_CONCURRENT_ROOTS,
    checked_in: dict | None = None,
    manifest_rel: str = "tools/concurrency_manifest.json",
    analysis: EscapeAnalysis | None = None,
) -> tuple[list[Finding], dict, EscapeAnalysis]:
    """Findings + the regenerated manifest + the reusable analysis."""
    if analysis is None:
        analysis = analyze_escape(table, graph, roots_patterns)
    findings: list[Finding] = []
    for (owner, attr) in sorted(analysis.attrs):
        record = analysis.attrs[(owner, attr)]
        if record.classification != "unguarded-shared":
            continue
        witnesses = sorted(
            {(s.path, s.line) for s in record.sites}, key=lambda w: (w[0], w[1])
        )
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

    manifest = build_concurrency_manifest(analysis, roots_patterns)
    if checked_in is None:
        if manifest["entries"]:
            findings.append(
                Finding(
                    rule=RULE,
                    path=manifest_rel,
                    line=1,
                    message=(
                        f"concurrency manifest {manifest_rel} is missing; "
                        "regenerate with --write-concurrency-manifest"
                    ),
                    scope="manifest",
                )
            )
    elif checked_in != manifest:
        findings.append(
            Finding(
                rule=RULE,
                path=manifest_rel,
                line=1,
                message=(
                    f"concurrency manifest {manifest_rel} is stale (the tree's "
                    "classifications changed); regenerate with "
                    "--write-concurrency-manifest"
                ),
                scope="manifest",
            )
        )
    findings.sort(key=lambda f: (f.path, f.line, f.scope))
    return findings, manifest, analysis
