"""Layer-boundary checker: the package-dependency DAG, machine-checked.

The platform is layered so knowledge flows one way — storage and
geometry at the bottom, the ``core`` facade above them, user-facing
services on top (see ``docs/static_analysis.md`` for the picture):

* **bottom**    ``errors``, ``geo``, ``imaging``, ``ml``, ``db``
* **mid**       ``features``, ``index``, ``datasets``, ``crowd``
* **facade**    ``core``
* **top**       ``api``, ``edge``, ``analysis``
* **anywhere**  ``obs`` (observability is deliberately layer-free;
  this covers all of its submodules — ``metrics``, ``tracing``,
  ``logging``, ``record``, ``slo`` — since the DAG is
  package-granular)

``check_layers`` extracts *every* import edge — including lazy
function-local imports — and fails any edge not implied by the declared
DAG (direct dependencies, transitively closed).  The root facade
modules (``repro/__init__.py``, ``repro/__main__.py``) re-export from
everywhere by design and are exempt.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from repro.devtools.findings import Finding, SourceModule

RULE_LAYER = "layer-boundary"


@dataclass(frozen=True)
class LayerConfig:
    """The allowed package-dependency DAG for one top-level package."""

    top_package: str
    deps: dict[str, frozenset[str]]
    universal: frozenset[str] = frozenset()
    facade_modules: frozenset[str] = frozenset({"__init__", "__main__"})

    def closure(self) -> dict[str, frozenset[str]]:
        """Transitive closure of :attr:`deps` — a package may import
        anything beneath it, not just its direct dependencies."""
        closed: dict[str, frozenset[str]] = {}

        def resolve(pkg: str, trail: tuple[str, ...]) -> frozenset[str]:
            if pkg in closed:
                return closed[pkg]
            if pkg in trail:
                cycle = " -> ".join((*trail[trail.index(pkg):], pkg))
                raise ValueError(f"layer DAG has a cycle: {cycle}")
            reachable = set(self.deps.get(pkg, frozenset()))
            for dep in tuple(reachable):
                reachable |= resolve(dep, (*trail, pkg))
            closed[pkg] = frozenset(reachable)
            return closed[pkg]

        for pkg in self.deps:
            resolve(pkg, ())
        return closed


#: The shipped platform's DAG.  ``crowd`` sits mid-layer (campaign and
#: coverage logic over geometry only) so the ``api`` top layer may
#: consume it; ``resilience`` sits just above ``errors`` so every
#: failure surface (db persistence, edge transfers, the API client) can
#: wrap itself in policies; ``devtools`` is intentionally isolated.
DEFAULT_LAYER_CONFIG = LayerConfig(
    top_package="repro",
    deps={
        "errors": frozenset(),
        "obs": frozenset(),
        "devtools": frozenset(),
        "resilience": frozenset({"errors"}),
        "geo": frozenset({"errors"}),
        "imaging": frozenset({"errors"}),
        "ml": frozenset({"errors"}),
        "db": frozenset({"errors", "resilience"}),
        "index": frozenset({"errors", "geo"}),
        "datasets": frozenset({"errors", "geo", "imaging"}),
        "features": frozenset({"errors", "imaging", "ml"}),
        "crowd": frozenset({"errors", "geo"}),
        "core": frozenset(
            {"errors", "db", "index", "datasets", "features", "geo", "imaging", "ml"}
        ),
        "api": frozenset(
            {"errors", "core", "crowd", "db", "geo", "imaging", "ml", "resilience"}
        ),
        "edge": frozenset({"errors", "ml", "resilience"}),
        "shard": frozenset(
            {"errors", "core", "db", "geo", "index", "resilience"}
        ),
        "analysis": frozenset(
            {"errors", "core", "datasets", "features", "geo", "imaging", "ml"}
        ),
    },
    universal=frozenset({"obs"}),
)


@dataclass(frozen=True, slots=True)
class ImportEdge:
    """One import statement crossing package boundaries."""

    target_pkg: str
    imported: str  # dotted module/name as written
    line: int


def _package_of(rel_to_root: tuple[str, ...]) -> str | None:
    """Package name of a module path relative to the scanned root;
    ``None`` for root facade modules (handled by the caller)."""
    if len(rel_to_root) == 1:
        return rel_to_root[0].removesuffix(".py")
    return rel_to_root[0]


def _module_dotted(config: LayerConfig, rel_to_root: tuple[str, ...]) -> str:
    parts = [config.top_package, *rel_to_root]
    parts[-1] = parts[-1].removesuffix(".py")
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def iter_import_edges(
    module: SourceModule,
    config: LayerConfig,
    rel_to_root: tuple[str, ...],
) -> list[ImportEdge]:
    """Every cross-package import edge in one module, lazy imports
    included (``ast.walk`` descends into function bodies)."""
    top = config.top_package
    prefix = f"{top}."
    own_dotted = _module_dotted(config, rel_to_root)
    known = set(config.deps) | set(config.universal)
    edges: list[ImportEdge] = []

    def add(dotted: str, line: int) -> None:
        if dotted == top:
            edges.append(ImportEdge("<root>", dotted, line))
            return
        if not dotted.startswith(prefix):
            return  # stdlib / third-party: out of scope
        target = dotted[len(prefix):].split(".", 1)[0]
        edges.append(ImportEdge(target, dotted, line))

    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                add(alias.name, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = own_dotted.split(".")
                # "from . import x" drops 1 segment, "from .. import x" 2, ...
                if node.level > len(base_parts):
                    continue
                base = base_parts[: len(base_parts) - node.level]
                stem = ".".join(base + ([node.module] if node.module else []))
            else:
                stem = node.module or ""
            if not stem:
                continue
            if stem == top:
                # "from repro import X": X may be a subpackage (edge to
                # X) or a facade attribute (edge to the root facade).
                for alias in node.names:
                    if alias.name in known:
                        add(f"{prefix}{alias.name}", node.lineno)
                    else:
                        edges.append(ImportEdge("<root>", f"{top}.{alias.name}", node.lineno))
            else:
                add(stem, node.lineno)
    return edges


def check_layers(
    modules: list[SourceModule],
    root: Path,
    config: LayerConfig = DEFAULT_LAYER_CONFIG,
) -> list[Finding]:
    """Layer-boundary findings for every module under ``root``."""
    closure = config.closure()
    findings: list[Finding] = []
    for module in modules:
        try:
            rel = module.path.relative_to(root).parts
        except ValueError:
            continue
        if len(rel) == 1 and rel[0].removesuffix(".py") in config.facade_modules:
            continue  # the root facade re-exports everything by design
        src_pkg = _package_of(rel)
        if src_pkg is None:
            continue
        if src_pkg not in config.deps:
            findings.append(
                Finding(
                    rule=RULE_LAYER,
                    path=module.rel_path,
                    line=1,
                    message=(
                        f"package {src_pkg!r} is not declared in the layer DAG; "
                        f"add it to repro.devtools.layers.DEFAULT_LAYER_CONFIG"
                    ),
                    scope="<undeclared>",
                )
            )
            continue
        allowed = closure[src_pkg] | config.universal | {src_pkg}
        for edge in iter_import_edges(module, config, rel):
            if edge.target_pkg == "<root>":
                message = (
                    f"{src_pkg} imports the {config.top_package} root facade "
                    f"({edge.imported}); import the concrete subpackage instead"
                )
            elif edge.target_pkg not in allowed:
                ordered = ", ".join(sorted(allowed - {src_pkg})) or "nothing"
                message = (
                    f"layer violation: {src_pkg} -> {edge.target_pkg} "
                    f"({edge.imported}); {src_pkg} may only import {ordered}"
                )
            else:
                continue
            module.report(findings, RULE_LAYER, edge.line, message, scope=edge.target_pkg)
    return findings
