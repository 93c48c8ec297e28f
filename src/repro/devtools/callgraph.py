"""Whole-program symbol table, call graph, and the shared analysis kit.

Lock-order inversions, blocking calls
behind a handler, state shared across threads — these are
*whole-program* facts.  This module is the one substrate every
whole-program pass stands on, so a pass is its predicate plus a table
entry in :mod:`repro.devtools.check`, never a fresh copy of the walker:

* :class:`SymbolTable` — every module-level function, class, and method
  under the scanned root, keyed by dotted qualname
  (``repro.index.rtree.RTree.insert``), plus each module's import map
  (local alias -> dotted target) with package re-exports resolved
  through ``__init__`` chains.
* :class:`CallGraph` — resolved call edges between those symbols,
  built from a deliberately *modest* type inference: local defs,
  import aliases, ``self``/``cls`` dispatch (base classes included),
  constructor results, parameter/variable annotations, and
  return-annotation chaining (``obs.metrics().counter(...)`` resolves
  through ``metrics() -> MetricsRegistry`` to
  ``MetricsRegistry.counter``).  Unresolvable calls are kept as
  :class:`CallSite` records with ``callee=None`` so passes can still
  pattern-match external calls (file IO, ``time.sleep``).  Each
  function body is walked **once**, here: its :class:`Function` record
  keeps the inferred local types, every node with the locks lexically
  held around it, and its call sites, so no pass re-resolves a call.
* the kit — :func:`dotted_name` (the one name renderer),
  :func:`expand_roots` + :meth:`CallGraph.reachable` (root patterns to
  a reachable closure), :func:`propagate` + :func:`witness_chain` (the
  one fixpoint over call sites, with the call chain that justifies
  each fact), :func:`blocking_sites` (the one classification of calls
  that can block a thread), and :class:`LockIndex` (the one resolver of
  ``with`` expressions to lock creation sites).

Resolution is best-effort by design: a missed edge weakens an analysis
but never crashes it, which is the right trade for a lint suite that
must stay fast and dependency-free.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Mapping, NamedTuple

from repro.devtools.findings import SourceModule

#: Symbol kinds recorded in the table.
KIND_FUNCTION = "function"
KIND_METHOD = "method"
KIND_CLASS = "class"

#: Method calls that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append", "appendleft", "add", "insert", "extend", "extendleft",
        "update", "setdefault", "pop", "popitem", "popleft", "remove",
        "discard", "clear", "sort", "reverse",
    }
)

#: Decorators that turn a method into an attribute access.
_PROPERTY_DECORATORS = frozenset(
    {"property", "cached_property", "functools.cached_property"}
)


@dataclass(frozen=True, slots=True)
class Symbol:
    """One module-level function, class, or method."""

    qualname: str  # dotted: <module>.<Class>.<name> / <module>.<name>
    name: str
    kind: str  # function | class | method
    module: str  # dotted module the symbol is defined in
    path: str  # repo-relative path of the defining file
    line: int
    is_public: bool
    #: For methods/functions: the return annotation as written (best
    #: effort, dotted), or "".  For classes: "".
    returns: str = ""
    #: For classes: base-class names as written (dotted, unresolved).
    bases: tuple[str, ...] = ()
    #: Decorator expressions as written (dotted, best effort).
    decorators: tuple[str, ...] = ()

    @property
    def is_property(self) -> bool:
        """True for ``@property`` / ``@cached_property`` accessors —
        attribute *reads* whose type is the return annotation."""
        return any(dec in _PROPERTY_DECORATORS for dec in self.decorators)


@dataclass(slots=True)
class ModuleInfo:
    """Per-module facts the resolver needs."""

    dotted: str
    module: SourceModule
    #: local alias -> dotted target ("repro.obs", "repro.obs.metrics.Counter", ...)
    imports: dict[str, str] = field(default_factory=dict)
    #: names defined at module top level (functions/classes/assignments)
    local_names: set[str] = field(default_factory=set)
    #: module-level variable -> inferred class qualname (``_tracer = Tracer()``)
    var_types: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class CallSite:
    """One call expression, resolved or not."""

    caller: str  # qualname of the enclosing function/method
    callee: str | None  # resolved qualname (``__init__`` for a constructor), or None
    #: dotted rendering of the call target as written (``self._file.write``)
    raw: str
    path: str
    line: int
    #: the call expression (the enclosing call, for an indirect site)
    node: ast.Call
    #: locks lexically held around the call, outermost first
    held: tuple[str, ...] = ()
    #: the target is a class: the call constructs a fresh object
    constructs: bool = False
    #: the callee is only *referenced* here — passed as a callback or
    #: bound by ``functools.partial`` — and may run later, not at this
    #: line.  Such sites are graph edges but not calls made here.
    indirect: bool = False


class SymbolTable:
    """Symbols, modules, and the name-resolution machinery."""

    def __init__(self, top_package: str) -> None:
        self.top_package = top_package
        self.symbols: dict[str, Symbol] = {}
        self.modules: dict[str, ModuleInfo] = {}
        #: class qualname -> resolved base-class qualnames (best effort)
        self.class_bases: dict[str, tuple[str, ...]] = {}
        #: class qualname -> {method name -> method qualname}
        self.methods: dict[str, dict[str, str]] = {}
        #: class qualname -> {attr name -> inferred class qualname}
        self.attr_types: dict[str, dict[str, str]] = {}
        #: class qualname -> {container attr -> element class qualname}
        #: (``self._lsh: dict[str, LSHIndex]`` maps ``_lsh -> LSHIndex``,
        #: so ``self._lsh[key].query(...)`` dispatches correctly).
        self.attr_elem_types: dict[str, dict[str, str]] = {}

    # -- construction --------------------------------------------------------

    def module_for(self, dotted: str) -> ModuleInfo | None:
        return self.modules.get(dotted)

    def add_symbol(self, symbol: Symbol) -> None:
        # A package __init__ may define a function shadowing a submodule
        # name (repro.obs.metrics is both).  Symbols win at resolution
        # time, matching Python's own shadowing in that pattern.
        self.symbols[symbol.qualname] = symbol

    # -- resolution ----------------------------------------------------------

    def resolve_export(self, dotted: str, _seen: frozenset[str] = frozenset()) -> str | None:
        """Resolve ``dotted`` to a symbol qualname, chasing re-exports.

        ``repro.resilience.Retry`` resolves through the package
        ``__init__``'s import of ``repro.resilience.policies.Retry``.
        Returns ``None`` for plain modules and unknown names.
        """
        if dotted in _seen:
            return None
        if dotted in self.symbols:
            return dotted
        head, _, tail = dotted.rpartition(".")
        if not head or not tail:
            return None
        info = self.modules.get(head)
        if info is not None and tail in info.imports:
            return self.resolve_export(info.imports[tail], _seen | {dotted})
        return None

    def method_on(self, class_qualname: str, name: str, _seen: frozenset[str] = frozenset()) -> str | None:
        """Find ``name`` on a class or its (resolved) bases."""
        if class_qualname in _seen:
            return None
        methods = self.methods.get(class_qualname, {})
        if name in methods:
            return methods[name]
        for base in self.class_bases.get(class_qualname, ()):
            found = self.method_on(base, name, _seen | {class_qualname})
            if found is not None:
                return found
        return None

    def is_class(self, qualname: str) -> bool:
        symbol = self.symbols.get(qualname)
        return symbol is not None and symbol.kind == KIND_CLASS


@dataclass(slots=True)
class LockIndex:
    """Where every lock in the project is created, and the resolver
    from a ``with`` context expression to that creation site.  Lock
    identity is the creation site (``repro.obs.metrics.Gauge._lock``):
    every instance of a class shares one id."""

    table: SymbolTable
    #: class qualname -> {attr name} holding a lock
    class_attrs: dict[str, set[str]] = field(default_factory=dict)
    #: module dotted -> {global name} holding a lock
    module_globals: dict[str, set[str]] = field(default_factory=dict)

    def all_locks(self) -> set[str]:
        locks = {f"{mod}.{name}" for mod, names in self.module_globals.items() for name in names}
        locks.update(f"{cls}.{attr}" for cls, attrs in self.class_attrs.items() for attr in attrs)
        return locks

    def _class_lock(self, class_qualname: str, attr: str) -> str | None:
        """Resolve ``self.<attr>`` to the (base-)class that defines it."""
        seen: set[str] = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            if attr in self.class_attrs.get(current, ()):
                return f"{current}.{attr}"
            stack.extend(self.table.class_bases.get(current, ()))
        return None

    def resolve(
        self, info: ModuleInfo, class_context: str | None, expr: ast.expr
    ) -> str | None:
        """Lock identity of a ``with`` context expression, or None."""
        parts: list[str] = []
        node: ast.expr = expr
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        parts.reverse()
        if not isinstance(node, ast.Name):
            return None
        base = node.id
        if base in ("self", "cls") and class_context is not None and len(parts) == 1:
            found = self._class_lock(class_context, parts[0])
            if found is not None:
                return found
            if "lock" in parts[0].lower():
                return f"{class_context}.{parts[0]}"
            return None
        if not parts:
            if base in self.module_globals.get(info.dotted, ()):
                return f"{info.dotted}.{base}"
            target = info.imports.get(base, "")
            head, _, name = target.rpartition(".")
            if name in self.module_globals.get(head, ()):
                return target
            return None
        if base in info.imports and len(parts) == 1:
            target_module = info.imports[base]
            if parts[0] in self.module_globals.get(target_module, ()):
                return f"{target_module}.{parts[0]}"
        return None


#: Call constructors that create a lock object.
_LOCK_CTORS = frozenset({"threading.Lock", "threading.RLock", "Lock", "RLock"})


def self_attr_assigns(
    node: ast.AST,
) -> Iterable[tuple[str, str, ast.expr | None, ast.expr | None, int]]:
    """``(receiver, attr, value, annotation, line)`` for every plain or
    annotated single-target assignment to ``self.<attr>`` /
    ``cls.<attr>`` anywhere under ``node`` (a class or method body)."""
    for stmt in ast.walk(node):
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value, annotation = stmt.targets[0], stmt.value, None
        elif isinstance(stmt, ast.AnnAssign):
            target, value, annotation = stmt.target, stmt.value, stmt.annotation
        else:
            continue
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id in ("self", "cls")
        ):
            yield target.value.id, target.attr, value, annotation, stmt.lineno


def index_locks(table: SymbolTable) -> LockIndex:
    """Every ``threading.Lock``/``RLock`` assigned to a module global or
    a ``self`` attribute."""
    index = LockIndex(table)
    for dotted, info in table.modules.items():
        for node in info.module.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if (
                    isinstance(target, ast.Name)
                    and isinstance(node.value, ast.Call)
                    and dotted_name(node.value.func) in _LOCK_CTORS
                ):
                    index.module_globals.setdefault(dotted, set()).add(target.id)
            elif isinstance(node, ast.ClassDef):
                for _receiver, attr, value, _annotation, _line in self_attr_assigns(node):
                    if isinstance(value, ast.Call) and dotted_name(value.func) in _LOCK_CTORS:
                        index.class_attrs.setdefault(f"{dotted}.{node.name}", set()).add(attr)
    return index


@dataclass(slots=True)
class Function:
    """One function/method body, walked once for every pass."""

    info: ModuleInfo
    cls: str | None  # enclosing class qualname
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: variable/parameter name -> inferred class qualname
    local_types: dict[str, str]
    #: every node under the body in source order, with the locks
    #: lexically held around it (outermost first)
    nodes: list[tuple[ast.AST, tuple[str, ...]]]
    #: ``(lock, locks already held, line)`` per ``with`` acquisition
    acquires: list[tuple[str, tuple[str, ...], int]]
    #: calls made here, in source order (indirect references excluded)
    calls: list[CallSite] = field(default_factory=list)
    #: locals bound to a freshly constructed object
    fresh: frozenset[str] = frozenset()

    @property
    def module(self) -> SourceModule:
        return self.info.module


class CallGraph:
    """Resolved call edges, every raw call site, and every walked body."""

    def __init__(self, table: SymbolTable, locks: LockIndex) -> None:
        self.table = table
        self.locks = locks
        self.edges: dict[str, set[str]] = {}
        self.sites: list[CallSite] = []
        #: caller -> its call sites (resolved and not)
        self.sites_by_caller: dict[str, list[CallSite]] = {}
        #: every walked body, in :func:`iter_functions` order
        self.functions: list[Function] = []
        #: qualname -> walked body (the last def wins, as at runtime)
        self.function: dict[str, Function] = {}
        #: id(call expression) -> the site for the call made there
        self.site_of: dict[int, CallSite] = {}
        #: per-graph memo for analyses several passes share
        self.memo: dict[Hashable, Any] = {}

    def add(self, site: CallSite) -> None:
        self.sites.append(site)
        self.sites_by_caller.setdefault(site.caller, []).append(site)
        if site.callee is not None:
            self.edges.setdefault(site.caller, set()).add(site.callee)

    def callees(self, qualname: str) -> frozenset[str]:
        return frozenset(self.edges.get(qualname, set()))

    def reachable(self, roots: Iterable[str]) -> frozenset[str]:
        """Every qualname reachable from ``roots`` along call edges."""
        seen: set[str] = set()
        stack = list(roots)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.edges.get(current, ()))
        return frozenset(seen)


def expand_roots(table: SymbolTable, patterns: Iterable[str]) -> tuple[str, ...]:
    """Qualnames in ``table`` matching any root pattern, sorted."""
    patterns = tuple(patterns)
    return tuple(
        sorted(
            qualname
            for qualname in table.symbols
            if any(fnmatch(qualname, pattern) for pattern in patterns)
        )
    )


class Fact(NamedTuple):
    """Why a propagated fact holds at a function."""

    source: str | None  # the neighbouring function it arrived from; None where seeded
    site: Any  # the call site it crossed; None where seeded


def propagate(
    sites: Iterable[Any],
    seeds: Mapping[str, Iterable[Hashable]],
    keep: Callable[[Any, Any], bool] | None = None,
    *,
    down: bool = False,
) -> dict[str, dict[Any, Fact]]:
    """The one fixpoint over call sites: ``facts[function][key]``.

    Every ``key`` seeded at a function also holds at each function that
    calls it (``down=False``: may-acquire, may-block, may-raise) or that
    it calls (``down=True``: what a root's context implies for its
    callees), transitively, unless ``keep(site, key)`` rejects the call
    site it would cross (a ``try`` that catches it, a lock that covers
    it).  ``sites`` is anything with ``caller``/``callee`` attributes.
    First arrival wins and the worklist is FIFO, so the :class:`Fact`
    links form a shortest justification (see :func:`witness_chain`).
    """
    step: dict[str, list[tuple[str, Any]]] = {}
    for site in sites:
        if site.callee is None:
            continue
        src, dst = (site.caller, site.callee) if down else (site.callee, site.caller)
        step.setdefault(src, []).append((dst, site))
    facts: dict[str, dict[Any, Fact]] = {}
    for function, keys in seeds.items():
        seeded = {key: Fact(None, None) for key in keys}
        if seeded:
            facts[function] = seeded
    queue = deque(facts)
    queued = set(queue)
    while queue:
        src = queue.popleft()
        queued.discard(src)
        have = facts[src]
        for dst, site in step.get(src, ()):
            into = facts.setdefault(dst, {})
            grew = False
            for key in have:
                if key in into or (keep is not None and not keep(site, key)):
                    continue
                into[key] = Fact(src, site)
                grew = True
            if grew and dst not in queued:
                queue.append(dst)
                queued.add(dst)
    return facts


def witness_chain(
    facts: Mapping[str, Mapping[Any, Fact]], function: str, key: Hashable
) -> list[str]:
    """The functions a fact travelled through, from ``function`` back
    to the one that seeded it."""
    chain = [function]
    while (source := facts[chain[-1]][key].source) is not None:
        chain.append(source)
    return chain


def dotted_name(node: ast.AST) -> str:
    """Best-effort dotted rendering of a Name/Attribute/Call chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif isinstance(node, ast.Call):
        inner = dotted_name(node.func)
        if inner:
            parts.append(f"{inner}()")
    return ".".join(reversed(parts))


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    """Dotted renderings of a def's decorators (``@router.route(...)``
    renders its callee, ``router.route``)."""
    names = []
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        dotted = dotted_name(target)
        if dotted:
            names.append(dotted)
    return tuple(names)


def _annotation_name(node: ast.AST | None) -> str:
    """The class name an annotation points at, stripped of Optional /
    union noise (``Clock | None`` -> ``Clock``); "" when unusable."""
    if node is None:
        return ""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return ""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_name(node.left)
        if left and left != "None":
            return left
        return _annotation_name(node.right)
    if isinstance(node, (ast.Name, ast.Attribute)):
        dotted = dotted_name(node)
        return "" if dotted == "None" else dotted
    if isinstance(node, ast.Subscript):
        return ""  # containers: not a class we can dispatch on
    return ""


_SEQUENCE_CONTAINERS = frozenset(
    {"list", "List", "set", "Set", "frozenset", "FrozenSet", "deque", "Deque"}
)
_MAPPING_CONTAINERS = frozenset({"dict", "Dict", "defaultdict", "DefaultDict"})


def _container_elem_annotation(node: ast.AST | None) -> str:
    """The element/value class of a container annotation:
    ``dict[str, LSHIndex]`` -> ``LSHIndex``, ``list[Foo]`` -> ``Foo``."""
    if not isinstance(node, ast.Subscript):
        return ""
    base = dotted_name(node.value).rpartition(".")[2]
    inner = node.slice
    if base in _MAPPING_CONTAINERS:
        if isinstance(inner, ast.Tuple) and len(inner.elts) == 2:
            return _annotation_name(inner.elts[1])
        return ""
    if base in _SEQUENCE_CONTAINERS:
        return _annotation_name(inner)
    return ""


def module_dotted(root: Path, top_package: str, path: Path) -> str | None:
    """Dotted module name of ``path`` under ``root`` (None if outside)."""
    try:
        rel = path.relative_to(root).parts
    except ValueError:
        return None
    parts = [top_package, *rel]
    parts[-1] = parts[-1].removesuffix(".py")
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _collect_imports(info: ModuleInfo, top_package: str) -> None:
    """Fill ``info.imports`` from the module's import statements
    (function-local imports included — lazy imports resolve too)."""
    own_parts = info.dotted.split(".")
    for node in ast.walk(info.module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                info.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                if node.level > len(own_parts):
                    continue
                # For a module repro.a.b, "from . import x" means repro.a.x;
                # for the package repro.a (__init__), it means repro.a.x too.
                keep = len(own_parts) - node.level + (1 if _is_package(info) else 0)
                base = own_parts[:keep]
                stem = ".".join(base + ([node.module] if node.module else []))
            else:
                stem = node.module or ""
            if not stem:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                info.imports[local] = f"{stem}.{alias.name}"


def _is_package(info: ModuleInfo) -> bool:
    return info.module.rel_path.endswith("__init__.py")


def build_symbol_table(
    modules: list[SourceModule], root: Path, top_package: str | None = None
) -> SymbolTable:
    """Index every def/class under ``root`` and each module's imports."""
    top = top_package if top_package is not None else root.name
    table = SymbolTable(top)

    for module in modules:
        dotted = module_dotted(root, top, module.path)
        if dotted is None:
            continue
        info = ModuleInfo(dotted=dotted, module=module)
        table.modules[dotted] = info
        _collect_imports(info, top)

        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.local_names.add(node.name)
                table.add_symbol(
                    Symbol(
                        qualname=f"{dotted}.{node.name}",
                        name=node.name,
                        kind=KIND_FUNCTION,
                        module=dotted,
                        path=module.rel_path,
                        line=node.lineno,
                        is_public=not node.name.startswith("_"),
                        returns=_annotation_name(node.returns),
                        decorators=_decorator_names(node),
                    )
                )
            elif isinstance(node, ast.ClassDef):
                info.local_names.add(node.name)
                class_qualname = f"{dotted}.{node.name}"
                table.add_symbol(
                    Symbol(
                        qualname=class_qualname,
                        name=node.name,
                        kind=KIND_CLASS,
                        module=dotted,
                        path=module.rel_path,
                        line=node.lineno,
                        is_public=not node.name.startswith("_"),
                        bases=tuple(
                            b for b in (dotted_name(base) for base in node.bases) if b
                        ),
                    )
                )
                methods: dict[str, str] = {}
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method_qualname = f"{class_qualname}.{item.name}"
                        methods[item.name] = method_qualname
                        table.add_symbol(
                            Symbol(
                                qualname=method_qualname,
                                name=item.name,
                                kind=KIND_METHOD,
                                module=dotted,
                                path=module.rel_path,
                                line=item.lineno,
                                is_public=not item.name.startswith("_"),
                                returns=_annotation_name(item.returns),
                                decorators=_decorator_names(item),
                            )
                        )
                table.methods[class_qualname] = methods
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        info.local_names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                info.local_names.add(node.target.id)

    # Second pass: resolve class bases and infer self-attribute and
    # module-variable types, now that every module's symbols and
    # imports exist.
    for dotted, info in table.modules.items():
        for node in info.module.tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                owner = _callee_class(table, info, None, node.value)
                if owner is not None:
                    info.var_types.setdefault(node.targets[0].id, owner)
                continue
            if not isinstance(node, ast.ClassDef):
                continue
            class_qualname = f"{dotted}.{node.name}"
            resolved_bases: list[str] = []
            for base in table.symbols[class_qualname].bases:
                target = _resolve_name(table, info, base)
                if target is not None and table.is_class(target):
                    resolved_bases.append(target)
            table.class_bases[class_qualname] = tuple(resolved_bases)
            attr_types, elem_types = _infer_attr_types(
                table, info, class_qualname, node
            )
            table.attr_types[class_qualname] = attr_types
            table.attr_elem_types[class_qualname] = elem_types
    return table


def _resolve_name(table: SymbolTable, info: ModuleInfo, dotted: str) -> str | None:
    """Resolve a dotted name written in ``info``'s namespace to a symbol
    qualname (local def > import alias > absolute)."""
    if not dotted:
        return None
    head, _, rest = dotted.partition(".")
    if head in info.local_names:
        candidate = f"{info.dotted}.{dotted}"
        return table.resolve_export(candidate)
    if head in info.imports:
        target = info.imports[head]
        candidate = f"{target}.{rest}" if rest else target
        return table.resolve_export(candidate)
    if dotted.startswith(f"{table.top_package}."):
        return table.resolve_export(dotted)
    return None


def _infer_attr_types(
    table: SymbolTable, info: ModuleInfo, class_qualname: str, node: ast.ClassDef
) -> tuple[dict[str, str], dict[str, str]]:
    """``(self.<attr> -> class qualname, container attr -> element class
    qualname)`` from annotated assigns and constructor-call assigns
    anywhere in the class body."""
    types: dict[str, str] = {}
    elem_types: dict[str, str] = {}

    def note(attr: str, value: ast.expr | None, annotation: ast.expr | None) -> None:
        target = None
        if annotation is not None:
            name = _annotation_name(annotation)
            if name:
                target = _resolve_name(table, info, name)
            elem_name = _container_elem_annotation(annotation)
            if elem_name:
                elem = _resolve_name(table, info, elem_name)
                if elem is not None and table.is_class(elem):
                    elem_types.setdefault(attr, elem)
        if target is None and isinstance(value, ast.Call):
            target = _callee_class(table, info, class_qualname, value)
        if target is not None and table.is_class(target):
            types.setdefault(attr, target)

    for receiver, attr, value, annotation, _line in self_attr_assigns(node):
        if receiver == "self":
            note(attr, value, annotation)
    # Annotated-parameter assigns: ``self.platform = platform`` where
    # the enclosing method declares ``platform: TVDP``.  Plain-name
    # assigns carry no annotation of their own, so without this the
    # service -> platform edge (and every guard inferred through it)
    # would be invisible to the whole-program passes.
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        arguments = method.args
        params: dict[str, ast.expr] = {
            arg.arg: arg.annotation
            for arg in [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs]
            if arg.annotation is not None
        }
        if not params:
            continue
        for stmt in ast.walk(method):
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Attribute)
                and isinstance(stmt.targets[0].value, ast.Name)
                and stmt.targets[0].value.id == "self"
                and isinstance(stmt.value, ast.Name)
                and stmt.value.id in params
            ):
                note(stmt.targets[0].attr, None, params[stmt.value.id])
    return types, elem_types


def _callee_class(
    table: SymbolTable, info: ModuleInfo, class_context: str | None, call: ast.Call
) -> str | None:
    """The class qualname a call expression evaluates to: either the
    constructed class, or the resolved return annotation of the callee."""
    callee = _resolve_call_target(table, info, class_context, call.func, locals_map=None)
    if callee is None:
        return None
    symbol = table.symbols.get(callee)
    if symbol is None:
        return None
    if symbol.kind == KIND_CLASS:
        return callee
    if symbol.returns:
        defining = table.modules.get(symbol.module)
        if defining is not None:
            returned = _resolve_name(table, defining, symbol.returns)
            if returned is not None and table.is_class(returned):
                return returned
    return None


def attr_type_on(table: SymbolTable, owner: str, attr: str) -> str | None:
    """The class qualname of ``<owner instance>.<attr>`` — inferred
    instance attributes first, then ``@property`` accessors whose return
    annotation resolves to a known class."""
    inferred = table.attr_types.get(owner, {}).get(attr)
    if inferred is not None:
        return inferred
    method = table.method_on(owner, attr)
    if method is None:
        return None
    symbol = table.symbols.get(method)
    if symbol is None or not symbol.is_property or not symbol.returns:
        return None
    defining = table.modules.get(symbol.module)
    if defining is None:
        return None
    returned = _resolve_name(table, defining, symbol.returns)
    if returned is not None and table.is_class(returned):
        return returned
    return None


def _resolve_call_target(
    table: SymbolTable,
    info: ModuleInfo,
    class_context: str | None,
    func: ast.expr,
    locals_map: dict[str, str] | None,
) -> str | None:
    """Resolve one call's target expression to a symbol qualname."""
    if isinstance(func, ast.Name):
        if locals_map and func.id in locals_map:
            return table.method_on(locals_map[func.id], "__call__")
        return _resolve_name(table, info, func.id)

    if not isinstance(func, ast.Attribute):
        return None

    # Walk the attribute chain down to its base expression.
    chain: list[str] = []
    base: ast.expr = func
    while isinstance(base, ast.Attribute):
        chain.append(base.attr)
        base = base.value
    chain.reverse()  # attr access order, excluding the base

    owner: str | None = None  # class qualname the chain is being applied to
    start = 0
    if isinstance(base, ast.Name):
        if base.id in ("self", "cls") and class_context is not None:
            owner = class_context
        elif locals_map is not None and base.id in locals_map:
            owner = locals_map[base.id]
        elif base.id in info.var_types and chain:
            owner = info.var_types[base.id]
        else:
            # Module alias / local symbol: fold leading attrs into a
            # dotted name until something resolves.
            dotted = base.id
            resolved = _resolve_name(table, info, dotted)
            while resolved is None and start < len(chain) - 1:
                dotted = f"{dotted}.{chain[start]}"
                start += 1
                resolved = _resolve_name(table, info, dotted)
            if resolved is None:
                # Maybe the full chain is a module attr (mod.sub.fn).
                full = ".".join([base.id, *chain])
                return _resolve_name(table, info, full)
            symbol = table.symbols.get(resolved)
            if symbol is None:
                return None
            if start == len(chain):
                return resolved
            if symbol.kind == KIND_CLASS:
                owner = resolved
            else:
                return None
    elif isinstance(base, ast.Call):
        owner = _callee_class(table, info, class_context, base)
    else:
        return None

    if owner is None:
        return None

    # Apply the remaining attribute chain via attr types, @property
    # return annotations, and methods.
    for i, attr in enumerate(chain[start:]):
        last = i == len(chain[start:]) - 1
        if last:
            return table.method_on(owner, attr)
        next_owner = attr_type_on(table, owner, attr)
        if next_owner is None:
            return None
        owner = next_owner
    return None


def _local_types(
    table: SymbolTable,
    info: ModuleInfo,
    class_context: str | None,
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[str, str]:
    """variable/parameter name -> class qualname, best effort."""
    types: dict[str, str] = {}
    args = fn.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        name = _annotation_name(arg.annotation)
        if name:
            resolved = _resolve_name(table, info, name)
            if resolved is not None and table.is_class(resolved):
                types[arg.arg] = resolved
    for stmt in ast.walk(fn):
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name) and isinstance(stmt.value, ast.Call):
                owner = _callee_class(table, info, class_context, stmt.value)
                if owner is not None:
                    types.setdefault(target.id, owner)
            elif (
                isinstance(target, ast.Name)
                and isinstance(stmt.value, ast.Subscript)
                and class_context is not None
            ):
                # ``lsh = self._lsh[key]``: the annotated container's
                # element type is the variable's type.
                base = stmt.value.value
                if (
                    isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id == "self"
                ):
                    elem = table.attr_elem_types.get(class_context, {}).get(base.attr)
                    if elem is not None:
                        types.setdefault(target.id, elem)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            name = _annotation_name(stmt.annotation)
            if name:
                resolved = _resolve_name(table, info, name)
                if resolved is not None and table.is_class(resolved):
                    types.setdefault(stmt.target.id, resolved)
    return types


def iter_functions(
    table: SymbolTable,
) -> list[tuple[ModuleInfo, str | None, str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Every function/method in the table with its context:
    ``(module info, enclosing class qualname or None, qualname, node)``.

    Nested functions (closures) are attributed to their enclosing
    def's qualname — their calls happen on behalf of the outer scope.
    """
    out: list[tuple[ModuleInfo, str | None, str, ast.FunctionDef | ast.AsyncFunctionDef]] = []
    for dotted, info in table.modules.items():
        for node in info.module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((info, None, f"{dotted}.{node.name}", node))
            elif isinstance(node, ast.ClassDef):
                class_qualname = f"{dotted}.{node.name}"
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        out.append(
                            (info, class_qualname, f"{class_qualname}.{item.name}", item)
                        )
    return out


def _callable_arg_target(
    table: SymbolTable,
    info: ModuleInfo,
    class_context: str | None,
    arg: ast.expr,
    locals_map: dict[str, str] | None,
) -> str | None:
    """A function/method qualname an *argument expression* references
    without calling — ``self._execute(query, self._run_sharded)`` passes
    the bound method ``_run_sharded`` to be invoked by the callee (and
    ``functools.partial(fn, ...)`` binds ``fn`` to be called later), so
    the address-taken reference belongs in the graph as a may-call edge."""
    if isinstance(arg, ast.Attribute):
        resolved = _resolve_call_target(table, info, class_context, arg, locals_map)
    elif isinstance(arg, ast.Name):
        resolved = _resolve_name(table, info, arg.id)
    else:
        return None
    if resolved is None:
        return None
    symbol = table.symbols.get(resolved)
    if symbol is None or symbol.kind not in (KIND_FUNCTION, KIND_METHOD):
        return None
    return resolved


def _walk_held(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    resolve: Callable[[ast.expr], str | None],
) -> tuple[list[tuple[ast.AST, tuple[str, ...]]], list[tuple[str, tuple[str, ...], int]]]:
    """``(nodes, acquires)`` for one def: every node in source order
    (decorators and argument defaults first — their calls run on the
    def's behalf) with the locks lexically held around it, and every
    ``with`` acquisition with the locks already held when it happens."""
    nodes: list[tuple[ast.AST, tuple[str, ...]]] = []
    acquires: list[tuple[str, tuple[str, ...], int]] = []
    stack: list[tuple[ast.AST, tuple[str, ...]]] = [
        (part, ()) for part in reversed([*fn.decorator_list, fn.args, *fn.body])
    ]
    while stack:
        node, held = stack.pop()
        nodes.append((node, held))
        children: list[tuple[ast.AST, tuple[str, ...]]]
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = held
            children = []
            for item in node.items:
                children.append((item.context_expr, inner))
                lock = resolve(item.context_expr)
                if lock is not None:
                    acquires.append((lock, inner, item.context_expr.lineno))
                    inner = inner + (lock,)
            children.extend((stmt, inner) for stmt in node.body)
        else:
            children = [(child, held) for child in ast.iter_child_nodes(node)]
        stack.extend(reversed(children))
    return nodes, acquires


def build_call_graph(table: SymbolTable) -> CallGraph:
    """Walk every function/method body once: resolve each call
    expression and record the locks held around every node."""
    locks = index_locks(table)
    graph = CallGraph(table, locks)
    for info, class_context, qualname, fn in iter_functions(table):
        locals_map = _local_types(table, info, class_context, fn)
        nodes, acquires = _walk_held(
            fn, lambda expr: locks.resolve(info, class_context, expr)
        )
        function = Function(info, class_context, qualname, fn, locals_map, nodes, acquires)
        graph.functions.append(function)
        graph.function[qualname] = function
        path = info.module.rel_path
        for node, held in nodes:
            if not isinstance(node, ast.Call):
                continue
            callee = _resolve_call_target(
                table, info, class_context, node.func, locals_map
            )
            # Constructor call: the work happens in __init__.
            constructs = False
            if callee is not None and table.is_class(callee):
                constructs = True
                callee = table.method_on(callee, "__init__") or callee
            site = CallSite(
                caller=qualname,
                callee=callee,
                raw=dotted_name(node.func),
                path=path,
                line=node.lineno,
                node=node,
                held=held,
                constructs=constructs,
            )
            graph.add(site)
            function.calls.append(site)
            graph.site_of[id(node)] = site
            # Higher-order: callable references passed as arguments may
            # be invoked by the callee (callbacks, merge fns, handlers).
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                taken = _callable_arg_target(
                    table, info, class_context, arg, locals_map
                )
                if taken is not None and taken != callee:
                    graph.add(
                        CallSite(
                            caller=qualname,
                            callee=taken,
                            raw=dotted_name(arg),
                            path=path,
                            line=node.lineno,
                            node=node,
                            held=held,
                            indirect=True,
                        )
                    )
        function.fresh = frozenset(
            stmt.targets[0].id
            for stmt, _held in nodes
            if isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Call)
            and graph.site_of[id(stmt.value)].constructs
        )
    return graph


# -- blocking calls -------------------------------------------------------------

#: Attribute names whose call is blocking regardless of receiver.
_BLOCKING_ATTRS = frozenset(
    {
        "sleep", "write", "flush", "write_text", "write_bytes", "read_text",
        "read_bytes", "replace", "unlink", "rename", "urlopen", "sendall",
        "recv", "connect", "join",
    }
)
_SUBPROCESS_CALLS = frozenset(
    {"run", "Popen", "call", "check_call", "check_output", "communicate", "wait"}
)
_SOCKET_ATTRS = frozenset({"accept", "makefile", "recv_into", "recvfrom"})

#: Resilience-policy entry points: they run a callable handed to them,
#: re-raise what it throws, and may retry/back off for seconds.
POLICY_CALL_SUFFIXES = (
    ".resilience.policies.execute",
    ".resilience.policies.Retry.call",
    ".resilience.policies.CircuitBreaker.call",
    ".resilience.policies.Fallback.call",
)
#: Project symbols whose call blocks.
_BLOCKING_SYMBOL_SUFFIXES = (*POLICY_CALL_SUFFIXES, ".resilience.clock.SystemClock.sleep")


def _is_string_op(node: ast.Call) -> bool:
    """String manipulation that shares a name with a blocking call:
    ``", ".join(...)`` (vs ``Thread.join``), ``s.replace("a", "b")``
    (vs the ``Path.replace`` rename), and ``os.path.join``."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr == "join":
        return dotted_name(func) == "os.path.join" or (
            isinstance(func.value, ast.Constant) and isinstance(func.value.value, str)
        )
    return func.attr == "replace" and any(
        isinstance(arg, ast.Constant) and isinstance(arg.value, str)
        for arg in node.args
    )


def _names_timeout(node: ast.Call) -> bool:
    """True when any argument of a resilience ``execute(...)`` call
    names a Timeout policy."""
    return any(
        "timeout" in dotted_name(sub).lower()
        for arg in [*node.args, *(kw.value for kw in node.keywords)]
        for sub in ast.walk(arg)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def blocking_reason(site: CallSite) -> str:
    """Why the call at ``site`` can block its thread for an unbounded
    time ("" when it cannot) — the one classification ``lock-order``
    and ``blocking-in-handler`` share."""
    node = site.node
    attr = site.raw.rsplit(".", 1)[-1]
    if site.raw == "open" or attr in _BLOCKING_ATTRS:
        return "" if _is_string_op(node) else "file/socket IO or sleep"
    if attr == "result":
        timed = node.args or any(kw.arg == "timeout" for kw in node.keywords)
        return "" if timed else "Future.result() without a timeout"
    if site.raw.startswith("subprocess.") and attr in _SUBPROCESS_CALLS:
        return "subprocess call"
    if attr in _SOCKET_ATTRS:
        return "socket operation"
    callee = site.callee or ""
    if callee.endswith(_BLOCKING_SYMBOL_SUFFIXES):
        if callee.endswith(".resilience.policies.execute") and _names_timeout(node):
            return ""
        return "resilience policy that can sleep"
    return ""


def blocking_sites(graph: CallGraph) -> dict[str, list[tuple[CallSite, str]]]:
    """``function -> [(call site, why it blocks), ...]`` in source
    order, for every function making at least one blocking call."""
    cached = graph.memo.get("blocking")
    if cached is None:
        cached = {}
        for function in graph.functions:
            hits = [(site, why) for site in function.calls if (why := blocking_reason(site))]
            if hits:
                cached.setdefault(function.qualname, []).extend(hits)
        graph.memo["blocking"] = cached
    return cached
