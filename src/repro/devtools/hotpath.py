"""Hot-path cost pass: per-item work on the query execution paths.

The six query families run at catalog scale, so per-item Python work
inside their reachable closure is exactly what Spatialyze-style pruning
and vectorisation must eliminate.  This pass walks the callgraph from
the data-plane roots (default: ``TVDP.execute``) and flags, inside that
closure:

* NumPy calls inside per-item loops (one vectorised call over the
  collection is the fix),
* repeated ``sorted()`` / ``.sort()`` calls inside loops,
* full-collection scans (``.all_rows()`` / ``.scan()``) inside loops,
* per-item keyed table lookups in loops (the classic N+1 shape
  ``table(...).get(item)``), and
* loops driven directly by a full-table scan (an O(n) access path).

Sanctioning is *centralised*: the pass reads ``COST_MODEL`` — a pure
literal in ``core/costmodel.py``, parsed straight out of the scanned
AST with ``ast.literal_eval`` because the layer DAG keeps devtools
import-isolated — and suppresses findings inside functions listed as
``hot_sites``.  Those are the loops the model *documents* (and
``explain()`` annotates with the model's cost strings and dominant
probe counters, cross-checkable against measured ``counter_deltas``).
A listed hot site that no longer exists is itself a finding, so the
model cannot go stale; an un-listed hot loop fails the lint until it is
vectorised, modelled, or allowed inline.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from typing import Iterator

from repro.devtools.callgraph import (
    CallGraph,
    ModuleInfo,
    SymbolTable,
    dotted_name,
    expand_roots,
)
from repro.devtools.findings import Finding, SourceModule

RULE = "hot-path"

#: Qualname patterns whose reachable closure is "the data plane".
#: A query runs through its family's leaf, picked from a table and
#: called through the ``run`` a caller hands ``TVDP._answer`` — indirect
#: calls the callgraph cannot follow — so the serial and sharded runners,
#: the shard router's entry and every function of the family module are
#: roots in their own right.
DEFAULT_DATA_PLANE_ROOTS: tuple[str, ...] = (
    "*.core.platform.TVDP.execute",
    "*.core.platform.TVDP._run",
    "*.core.platform.TVDP._run_sharded",
    "*.core.families.*",
    "*.shard.router.ShardRouter.answer",
)

#: Where the cost model literal lives in a scanned tree.
COST_MODEL_GLOB = "*/core/costmodel.py"

_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def load_cost_model(
    modules: list[SourceModule],
) -> tuple[dict, SourceModule | None, int]:
    """``(COST_MODEL literal, defining module, assign line)`` from the
    scanned tree — ``({}, None, 0)`` when no model module exists."""
    for module in modules:
        if not fnmatch(module.rel_path, COST_MODEL_GLOB):
            continue
        for node in module.tree.body:
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            if not any(
                isinstance(t, ast.Name) and t.id == "COST_MODEL" for t in targets
            ):
                continue
            value = node.value
            if value is None:
                continue
            try:
                model = ast.literal_eval(value)
            except (ValueError, SyntaxError):
                continue
            if isinstance(model, dict):
                return model, module, node.lineno
    return {}, None, 0


def model_hot_sites(cost_model: dict) -> frozenset[str]:
    """Every qualname the model sanctions as a documented hot loop."""
    sites: set[str] = set()
    for entry in cost_model.values():
        if isinstance(entry, dict):
            sites.update(str(site) for site in entry.get("hot_sites", []))
    return frozenset(sites)


def _repeated_nodes(loop: ast.AST) -> Iterator[ast.AST]:
    """AST nodes that execute once *per iteration* of ``loop`` (the
    ``for``'s iterable and a comprehension's first source run once)."""
    regions: list[ast.AST] = []
    if isinstance(loop, (ast.For, ast.AsyncFor)):
        regions = [*loop.body, *loop.orelse]
    elif isinstance(loop, ast.While):
        regions = [loop.test, *loop.body, *loop.orelse]
    elif isinstance(loop, ast.DictComp):
        regions = [loop.key, loop.value]
    elif isinstance(loop, _COMPREHENSIONS):
        regions = [loop.elt]
    if isinstance(loop, _COMPREHENSIONS):
        for index, gen in enumerate(loop.generators):
            if index > 0:
                regions.append(gen.iter)
            regions.extend(gen.ifs)
    for region in regions:
        yield from ast.walk(region)


def _numpy_aliases(info: ModuleInfo) -> frozenset[str]:
    return frozenset(
        local for local, target in info.imports.items() if target == "numpy"
    )


def _loop_findings(
    info: ModuleInfo, fn: ast.FunctionDef | ast.AsyncFunctionDef
) -> list[tuple[int, str]]:
    """``(line, message)`` for per-item work inside ``fn``'s loops."""
    np_aliases = _numpy_aliases(info)
    hits: set[tuple[int, str]] = set()
    for loop in ast.walk(fn):
        if not isinstance(loop, (*_LOOPS, *_COMPREHENSIONS)):
            continue
        if isinstance(loop, (ast.For, ast.AsyncFor)):
            iter_dotted = dotted_name(
                loop.iter.func if isinstance(loop.iter, ast.Call) else loop.iter
            )
            if iter_dotted.endswith(("all_rows", "scan")):
                hits.add(
                    (
                        loop.lineno,
                        f"O(n) access path: loop driven by {iter_dotted}() scans "
                        f"the full collection — index it or document the cost in "
                        f"COST_MODEL",
                    )
                )
        for node in _repeated_nodes(loop):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            dotted = dotted_name(func)
            head = dotted.split(".", 1)[0]
            if head in np_aliases:
                hits.add(
                    (
                        node.lineno,
                        f"NumPy call {dotted}() inside a per-item loop — hoist it "
                        f"into one vectorised call over the collection, or list "
                        f"the function in COST_MODEL hot_sites",
                    )
                )
            elif isinstance(func, ast.Name) and func.id == "sorted":
                hits.add(
                    (node.lineno, "repeated sorted() inside a loop — sort once outside")
                )
            elif isinstance(func, ast.Attribute) and func.attr == "sort":
                hits.add(
                    (node.lineno, "repeated .sort() inside a loop — sort once outside")
                )
            elif isinstance(func, ast.Attribute) and func.attr in ("all_rows", "scan"):
                hits.add(
                    (
                        node.lineno,
                        f"full-collection {func.attr}() inside a loop — O(n*m); "
                        f"hoist the scan or index the access",
                    )
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "get"
                and isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Attribute)
                and func.value.func.attr == "table"
            ):
                hits.add(
                    (
                        node.lineno,
                        "per-item table(...).get(...) inside a loop (N+1 lookups) — "
                        "batch the fetch or join before iterating",
                    )
                )
    return sorted(hits)


def _scan_findings(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, taken_lines: set[int]
) -> list[tuple[int, str]]:
    """Full-collection scans *anywhere* in a data-plane function — the
    O(n) access paths (a predicate scan over a whole table) that must be
    documented in COST_MODEL even when not nested in a loop."""
    hits: set[tuple[int, str]] = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("all_rows", "scan")
            and node.lineno not in taken_lines
        ):
            hits.add(
                (
                    node.lineno,
                    f"O(n) access path: {func.attr}() scans the full collection "
                    f"on a query path — index it or document the cost in "
                    f"COST_MODEL",
                )
            )
    return sorted(hits)


def check_hot_path(
    modules: list[SourceModule],
    table: SymbolTable,
    graph: CallGraph,
    cost_model: dict | None = None,
) -> list[Finding]:
    """Per-item-work findings on the data-plane closure, minus the
    sites the cost model documents; stale model sites are findings."""
    loaded_model, model_module, model_line = load_cost_model(modules)
    if cost_model is None:
        cost_model = loaded_model
    sanctioned = model_hot_sites(cost_model)
    reachable = graph.reachable(expand_roots(table, DEFAULT_DATA_PLANE_ROOTS))

    findings: list[Finding] = []
    for function in graph.functions:
        if function.qualname not in reachable or function.qualname in sanctioned:
            continue
        module, fn = function.module, function.node
        loop_hits = _loop_findings(function.info, fn)
        scan_hits = _scan_findings(fn, {line for line, _ in loop_hits})
        for line, message in [*loop_hits, *scan_hits]:
            module.report(
                findings, RULE, line, message, module.scope_at(line), also=(fn.lineno,)
            )

    for site in sorted(sanctioned):
        if site in table.symbols:
            continue
        message = (
            f"COST_MODEL lists hot site {site!r} but no such function "
            f"exists — the cost model is stale"
        )
        if model_module is not None:
            model_module.report(findings, RULE, model_line, message, scope=site)
        else:
            findings.append(Finding(RULE, "<model>", 1, message, scope=site))
    return findings
