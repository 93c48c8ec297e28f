"""Atomicity lints over state the escape pass proved shared.

:mod:`repro.devtools.threadescape` guarantees every mutation of a
``lock-guarded`` attribute holds its designated lock; this pass closes
the remaining gaps that make individually-locked operations racy in
composition:

* **check-then-act** — a membership / ``is None`` / ``.get()`` /
  truthiness test of a guarded attribute *outside* its lock, followed
  by a mutation of the same attribute later in the function: the state
  can change between the check and the act.  Hold the lock across both.
* **read-gap** (guarded-write / unguarded-read) — iteration, ``len()``,
  membership, ``.items()``-style traversal, or copy-construction of a
  guarded attribute outside its lock: a concurrent mutation under the
  lock can resize the container mid-iteration.  Single-key subscript
  reads are deliberately exempt — one dict lookup is atomic under the
  GIL and flagging it would drown the signal.
* **compound ops** — ``+=`` / ``setdefault`` on a guarded attribute
  outside its lock (read-modify-write torn between the read and the
  write).
* **publish-before-init** — a shared attribute is assigned a freshly
  constructed object with no lock held and then further initialised
  through the attribute: other threads can observe the
  partially-constructed object between the two statements.
"""

from __future__ import annotations

import ast

from repro.devtools.callgraph import (
    MUTATING_METHODS,
    CallGraph,
    SymbolTable,
    attr_type_on,
)
from repro.devtools.findings import Finding
from repro.devtools.threadescape import CTOR_EXEMPT_METHODS, _owner_of_base, analyze_escape

RULE = "atomicity"

#: Builtins whose single-argument call traverses the whole container.
_TRAVERSING_CALLS = frozenset(
    {"len", "sorted", "list", "dict", "set", "tuple", "frozenset", "sum", "min", "max", "any", "all"}
)

#: Attribute methods that traverse the receiver.
_TRAVERSING_METHODS = frozenset({"items", "keys", "values", "copy"})


def _attr_access(
    class_context: str | None, locals_map: dict[str, str], node: ast.AST
) -> tuple[str, str] | None:
    """``(owner class, attr)`` when ``node`` reads a tracked attribute
    (``self.X`` or ``typed_local.X``)."""
    if not isinstance(node, ast.Attribute):
        return None
    base = node.value
    if isinstance(base, ast.Name):
        if base.id in ("self", "cls") and class_context is not None:
            return class_context, node.attr
        if base.id in locals_map:
            return locals_map[base.id], node.attr
    return None


def check_atomicity(table: SymbolTable, graph: CallGraph) -> list[Finding]:
    analysis = analyze_escape(table, graph)
    guarded_attrs: dict[tuple[str, str], str] = {
        key: record.guard
        for key, record in analysis.attrs.items()
        if record.classification == "lock-guarded"
    }
    shared_attrs = set(analysis.attrs)
    if not shared_attrs:
        return []

    findings: list[Finding] = []
    seen: set[tuple[str, int, str]] = set()

    for function in graph.functions:
        qualname = function.qualname
        if qualname not in analysis.reachable or function.node.name in CTOR_EXEMPT_METHODS:
            continue
        class_context, locals_map, module = function.cls, function.local_types, function.module
        entry_guard = analysis.guarded_context.get(qualname, frozenset())

        def emit(line: int, key: tuple[str, str], message: str) -> None:
            owner_short = key[0].rsplit(".", 1)[-1]
            fn_short = ".".join(qualname.rsplit(".", 2)[-2:])
            scope = f"{fn_short}:{owner_short}.{key[1]}"
            if (module.rel_path, line, scope) not in seen:
                seen.add((module.rel_path, line, scope))
                module.report(findings, RULE, line, message, scope)

        # (line, (owner, attr), held) per access category.
        test_reads: list[tuple[int, tuple[str, str], frozenset[str]]] = []
        traversals: list[tuple[int, tuple[str, str], frozenset[str], str]] = []
        mutations: list[tuple[int, tuple[str, str], frozenset[str], str]] = []
        publishes: list[tuple[int, tuple[str, str], frozenset[str]]] = []

        def tracked(node: ast.AST) -> tuple[str, str] | None:
            found = _attr_access(class_context, locals_map, node)
            return found if found in shared_attrs else None

        def written(base: ast.expr) -> tuple[str, str] | None:
            found = _owner_of_base(
                table, class_context, locals_map, function.fresh, {}, base
            )
            return found if found in shared_attrs else None

        def scan_test(test: ast.expr, held: frozenset[str]) -> None:
            """Collect check-style reads inside a condition."""
            for node in ast.walk(test):
                found = None
                if isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.In, ast.NotIn, ast.Is, ast.IsNot))
                    for op in node.ops
                ):
                    for side in [node.left, *node.comparators]:
                        found = tracked(side)
                        if found:
                            break
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get"
                ):
                    found = tracked(node.func.value)
                elif isinstance(node, ast.Attribute):
                    found = tracked(node)
                if found is not None:
                    test_reads.append((node.lineno, found, held))

        def traversed(line: int, target: ast.AST, held: frozenset[str], how: str) -> None:
            found = tracked(target)
            if found is not None:
                traversals.append((line, found, held, how))

        for node, held_locks in function.nodes:
            held = frozenset(held_locks)
            if isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)):
                scan_test(node.test, held)
            elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
            ):
                for side in node.comparators:
                    traversed(node.lineno, side, held, "membership test of")
            elif isinstance(node, ast.For):
                traversed(node.lineno, node.iter, held, "iteration over")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    traversed(node.lineno, gen.iter, held, "iteration over")
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id in _TRAVERSING_CALLS and node.args:
                    traversed(node.lineno, node.args[0], held, f"{func.id}() over")
                elif isinstance(func, ast.Attribute):
                    if func.attr in _TRAVERSING_METHODS:
                        traversed(node.lineno, func.value, held, f".{func.attr}() over")
                    if func.attr in MUTATING_METHODS:
                        found = tracked(func.value)
                        if found is not None:
                            receiver = attr_type_on(table, *found)
                            if receiver is None or not table.method_on(receiver, func.attr):
                                kind = "setdefault" if func.attr == "setdefault" else "method"
                                mutations.append((node.lineno, found, held, kind))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        found = written(target)
                        if found is not None:
                            mutations.append((node.lineno, found, held, "assign"))
                            if (
                                isinstance(node.value, ast.Call)
                                and graph.site_of[id(node.value)].constructs
                            ):
                                publishes.append((node.lineno, found, held))
                    elif isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Attribute
                    ):
                        found = written(target.value)
                        if found is not None:
                            mutations.append((node.lineno, found, held, "store"))
            elif isinstance(node, ast.AugAssign):
                target = node.target
                if isinstance(target, ast.Subscript):
                    target = target.value
                if isinstance(target, ast.Attribute):
                    found = written(target)
                    if found is not None:
                        mutations.append((node.lineno, found, held, "augassign"))

        reported_lines: set[tuple[int, tuple[str, str]]] = set()

        def has_guard(held: frozenset[str], guard: str) -> bool:
            return guard in (held | entry_guard)

        # check-then-act: unlocked test + later mutation of same attr.
        for line, key, held in test_reads:
            guard = guarded_attrs.get(key)
            if guard is None or has_guard(held, guard):
                continue
            later = [m for m in mutations if m[1] == key and m[0] > line]
            if not later:
                continue
            owner, attr = key
            emit(
                line, key,
                (
                    f"check-then-act on {owner.rsplit('.', 1)[-1]}.{attr}: tested "
                    f"outside its lock ({guard.rsplit('.', 1)[-1]}) but mutated at "
                    f"line {later[0][0]}; hold the lock across the check and the "
                    "mutation"
                ),
            )
            reported_lines.add((line, key))

        # read-gap: traversal of a guarded attr outside its lock.
        for line, key, held, how in traversals:
            guard = guarded_attrs.get(key)
            if guard is None or has_guard(held, guard) or (line, key) in reported_lines:
                continue
            owner, attr = key
            emit(
                line, key,
                (
                    f"{how} {owner.rsplit('.', 1)[-1]}.{attr} outside its guarding "
                    f"lock {guard.rsplit('.', 1)[-1]}: writers hold the lock, this "
                    "reader does not — a concurrent mutation can resize the "
                    "container mid-traversal"
                ),
            )
            reported_lines.add((line, key))

        # compound ops: += / setdefault outside the guard.
        for line, key, held, kind in mutations:
            if kind not in ("augassign", "setdefault"):
                continue
            guard = guarded_attrs.get(key)
            if guard is None or has_guard(held, guard) or (line, key) in reported_lines:
                continue
            owner, attr = key
            op = "+=" if kind == "augassign" else ".setdefault()"
            emit(
                line, key,
                (
                    f"compound {op} on {owner.rsplit('.', 1)[-1]}.{attr} outside "
                    f"its guarding lock {guard.rsplit('.', 1)[-1]}: the "
                    "read-modify-write can interleave with a locked writer"
                ),
            )
            reported_lines.add((line, key))

        # publish-before-init: bare publication of a fresh object that
        # is still being initialised through the shared attribute.
        for line, key, held in publishes:
            if held | entry_guard:
                continue
            later = [
                m for m in mutations if m[1] == key and m[0] > line and m[3] != "assign"
            ]
            if not later or (line, key) in reported_lines:
                continue
            owner, attr = key
            emit(
                line, key,
                (
                    f"publish-before-init of {owner.rsplit('.', 1)[-1]}.{attr}: the "
                    f"object becomes visible at line {line} but is still being "
                    f"initialised at line {later[0][0]}; build it fully in a local "
                    "first or publish under a lock"
                ),
            )

    findings.sort(key=lambda f: (f.path, f.line, f.scope))
    return findings
