"""Dead-code pass: public symbols nobody references are debt.

Reuses the whole-program symbol table: a *module-level* public function
or class defined under the scanned package is "dead" when no other
module — in the package itself or in the repo's ``examples/`` tree —
references its name.  Tests and benchmarks deliberately do **not**
keep a symbol alive: something only a test calls is test scaffolding
living in ``src``, which is exactly what this pass should surface.

References are counted by name, conservatively: any ``Name`` load,
attribute access (``mod.symbol``), or ``from x import symbol`` outside
the defining statement counts, including re-exports in package
``__init__`` files (a symbol lifted into a package namespace is
published API).  Name-level matching can keep a dead symbol alive via
an unrelated same-named use — the pass errs quiet, never noisy.

Intentional-but-unreferenced API surface gets an inline
``# devtools: allow[dead-code] — <why>`` on its ``def``/``class`` line.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.devtools.callgraph import SymbolTable
from repro.devtools.findings import Finding, SourceModule, collect_modules

RULE_DEAD_CODE = "dead-code"

#: Names that frameworks or the import system call implicitly.
_IMPLICIT = frozenset({"main"})


def _referenced_names(tree: ast.Module) -> set[str]:
    """Every simple name this module mentions (``__all__`` entries are
    strings, not names, so a re-export list keeps nothing alive)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.name.rsplit(".", 1)[-1])
                if alias.asname:
                    names.add(alias.asname)
    return names


def check_dead_code(
    table: SymbolTable,
    modules: list[SourceModule],
    repo_root: Path | None = None,
) -> list[Finding]:
    """``dead-code`` findings for unreferenced public top-level symbols."""
    # Name -> referencing module rel_paths (the defining module's own
    # references are filtered per symbol below).
    references: dict[str, set[str]] = {}
    reference_modules: list[SourceModule] = list(modules)
    if repo_root is not None:
        examples = repo_root / "examples"
        if examples.is_dir():
            reference_modules += collect_modules(examples, repo_root=repo_root)
    for module in reference_modules:
        for name in _referenced_names(module.tree):
            references.setdefault(name, set()).add(module.rel_path)

    by_rel: dict[str, SourceModule] = {m.rel_path: m for m in modules}
    findings: list[Finding] = []
    for qualname, symbol in sorted(table.symbols.items()):
        if symbol.kind == "method":
            continue  # methods live and die with their class
        if not symbol.is_public or symbol.name in _IMPLICIT:
            continue
        if symbol.name.startswith("__"):
            continue
        referencing = references.get(symbol.name, set()) - {symbol.path}
        if referencing:
            continue
        module = by_rel[symbol.path]
        # The defining module may legitimately use its own symbol
        # (decorator application, registry append); those uses are
        # internal wiring, not API consumption — but a symbol the
        # defining module itself calls is not dead either.
        if _used_in(module.tree, symbol.name):
            continue
        module.report(
            findings,
            RULE_DEAD_CODE,
            symbol.line,
            f"public {symbol.kind} {qualname} is never referenced from "
            f"src or examples — delete it, underscore it, or mark "
            f"intentional API with an allow comment",
            scope=qualname,
        )
    return findings


def _used_in(tree: ast.Module, name: str) -> bool:
    """Is ``name`` loaded or accessed as an attribute anywhere in its
    own module (the ``def``/``class`` statement itself is neither)?"""
    return any(
        (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Attribute) and node.attr == name)
        for node in ast.walk(tree)
    )
