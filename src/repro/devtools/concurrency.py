"""Concurrency lint: module-level mutable state must be lock-protected.

``module-mutable-state`` — a module-level mutable container (or any
name rebound through ``global``) that the module itself mutates at
runtime must do so under a lock.  Read-only registry dicts assigned
once at import are fine; the moment a function writes to one outside a
``with <...lock...>:`` block, the lint fires at the write site.

A ``with`` statement counts as lock-protected when any context
expression's dotted name contains ``"lock"`` (``self._lock``,
``_registry_lock``, ``cls._big_lock``, ...).

State held on *instances* is the whole-program ``thread-escape``
pass's job (:mod:`repro.devtools.threadescape`): it decides which
classes concurrent entry points share and resolves the real lock held
at every write, which a per-file name heuristic cannot.
"""

from __future__ import annotations

import ast

from repro.devtools.callgraph import MUTATING_METHODS, dotted_name
from repro.devtools.findings import Finding, SourceModule

RULE_MODULE_STATE = "module-mutable-state"

_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict", "OrderedDict", "Counter"}
)

def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else ""
        )
        return name in _MUTABLE_CALLS
    return False


def _annotate_parents(tree: ast.Module) -> None:
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._devtools_parent = node  # type: ignore[attr-defined]


def _under_lock(node: ast.AST) -> bool:
    """True when ``node`` sits inside a ``with`` whose context mentions
    a lock-ish name."""
    current = getattr(node, "_devtools_parent", None)
    while current is not None:
        if isinstance(current, (ast.With, ast.AsyncWith)):
            for item in current.items:
                if "lock" in dotted_name(item.context_expr).lower():
                    return True
        current = getattr(current, "_devtools_parent", None)
    return False


def _base_name(node: ast.AST) -> ast.AST:
    """Strip subscripts off an assignment target: ``x[k][j]`` -> ``x``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


def _global_rebinds(tree: ast.Module) -> list[tuple[ast.stmt, int, str]]:
    """(node, line, name) for assignments to ``global``-declared names
    inside functions — rebinding shared module state at runtime."""
    hits: list[tuple[ast.stmt, int, str]] = []
    seen: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared = {
            name
            for stmt in node.body
            for s in ast.walk(stmt)
            if isinstance(s, ast.Global)
            for name in s.names
        }
        if not declared:
            continue
        for stmt in ast.walk(node):
            if isinstance(stmt, (ast.Assign, ast.AugAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id in declared
                        and id(stmt) not in seen
                    ):
                        seen.add(id(stmt))
                        hits.append((stmt, stmt.lineno, target.id))
    return hits


def check_module_state(modules: list[SourceModule]) -> list[Finding]:
    """``module-mutable-state`` findings across ``modules``."""
    findings: list[Finding] = []
    for module in modules:
        _annotate_parents(module.tree)
        tracked: set[str] = set()
        line_of: dict[str, int] = {}
        for node in module.tree.body:
            target = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            else:
                continue
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                if _is_mutable_value(value):
                    tracked.add(target.id)
                    line_of[target.id] = node.lineno

        mutation_nodes: list[tuple[ast.AST, int, str, str]] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Subscript) or isinstance(node, ast.AugAssign):
                        base = _base_name(target)
                        if isinstance(base, ast.Name) and base.id in tracked:
                            mutation_nodes.append((node, node.lineno, base.id, "write"))
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        base = _base_name(target)
                        if isinstance(base, ast.Name) and base.id in tracked:
                            mutation_nodes.append((node, node.lineno, base.id, "del"))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if (
                    node.func.attr in MUTATING_METHODS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in tracked
                ):
                    mutation_nodes.append(
                        (node, node.lineno, node.func.value.id, f".{node.func.attr}()")
                    )

        for node, line, name, verb in mutation_nodes:
            if line == line_of.get(name):
                continue  # the initialising statement itself
            if not _under_lock(node):
                module.report(
                    findings,
                    RULE_MODULE_STATE,
                    line,
                    f"module-level mutable {name!r} (defined line "
                    f"{line_of[name]}) is mutated here ({verb}) outside a lock",
                    scope=f"{module.scope_at(line)}:{name}",
                )

        for node, line, name in _global_rebinds(module.tree):
            if not _under_lock(node):
                module.report(
                    findings,
                    RULE_MODULE_STATE,
                    line,
                    f"'global {name}' rebinding outside a lock — shared module "
                    f"state must be guarded",
                    scope=f"{module.scope_at(line)}:{name}",
                )
    return findings
