"""Exception-flow analysis: entry points raise only taxonomy errors.

The platform's contract (``repro.errors``) is that every failure
crossing a public API/edge/db boundary is a :class:`TVDPError`
subclass — callers catch one root, the HTTP router maps one hierarchy,
and the resilience policies declare their retryable sets against it.
A bare ``OSError`` escaping ``db.persistence`` silently breaks all
three.

This pass infers, for every *public* entry point in the configured
entry packages, the set of exception types it can propagate:

* direct ``raise X(...)`` statements (bare ``raise`` re-raises the
  types of its enclosing ``except`` clause);
* a table of known external raisers (file IO raises ``OSError``,
  ``json.loads`` raises ``ValueError``);
* transitive propagation along the call graph, filtered by the
  ``try/except`` structure around each call site with real subclass
  checks (an ``except TVDPError`` absorbs ``QueryError``);
* higher-order propagation: a callable argument handed to a resilience
  policy ``call``/``execute`` contributes its own raises (the policy
  re-raises what the wrapped callable throws).

An exception may escape when it is a taxonomy member, appears in a
declared retryable set (``DEFAULT_TRANSIENT``-style tuples), or is one
of the sanctioned programmer-contract builtins (``ValueError``/
``TypeError``/``KeyError``/``AssertionError``/``NotImplementedError``
— misuse, not failure).  Anything else is a ``exception-flow``
finding at the entry point's definition.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field

from repro.devtools.callgraph import (
    CallGraph,
    POLICY_CALL_SUFFIXES,
    Function,
    SymbolTable,
    propagate,
    resolve_call,
)
from repro.devtools.findings import Finding, SourceModule

RULE_EXCEPTION_FLOW = "exception-flow"

#: Packages (relative to the top package) whose public callables are
#: boundary entry points.
DEFAULT_ENTRY_PACKAGES: tuple[str, ...] = ("api", "edge", "db")

#: Packages whose raises are internal programming guards, not flow.
DEFAULT_EXEMPT_PACKAGES: tuple[str, ...] = ("obs", "devtools")

#: Root class name of the project error taxonomy.
TAXONOMY_ROOT = "TVDPError"

#: Builtins that signal caller misuse rather than runtime failure.
SANCTIONED_BUILTINS = frozenset(
    {"ValueError", "TypeError", "KeyError", "AssertionError", "NotImplementedError",
     "StopIteration"}
)

#: attr / dotted-suffix of an external call -> exceptions it raises.
KNOWN_RAISERS: dict[str, tuple[str, ...]] = {
    "open": ("OSError",),
    "read_text": ("OSError",),
    "read_bytes": ("OSError",),
    "write_text": ("OSError",),
    "write_bytes": ("OSError",),
    "unlink": ("OSError",),
    "replace": ("OSError",),
    "rename": ("OSError",),
    "mkdir": ("OSError",),
    "json.loads": ("ValueError",),
    "json.dumps": ("TypeError", "ValueError"),
}



@dataclass(slots=True)
class ExceptionModel:
    """The taxonomy + builtin class hierarchy, by simple name."""

    #: taxonomy class name -> direct base names
    taxonomy_bases: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def is_taxonomy(self, name: str) -> bool:
        return self._reaches(name, TAXONOMY_ROOT)

    def _reaches(self, name: str, ancestor: str) -> bool:
        if name == ancestor:
            return True
        for base in self.taxonomy_bases.get(name, ()):
            if self._reaches(base, ancestor):
                return True
        return False

    def is_subclass(self, name: str, handler: str) -> bool:
        """Is exception ``name`` absorbed by ``except handler``?"""
        if handler in ("BaseException", "Exception"):
            return True
        if name == handler:
            return True
        if name in self.taxonomy_bases:
            return any(
                self.is_subclass(base, handler)
                for base in self.taxonomy_bases[name]
            ) or handler == TAXONOMY_ROOT and self.is_taxonomy(name)
        first = getattr(builtins, name, None)
        second = getattr(builtins, handler, None)
        if (
            isinstance(first, type)
            and isinstance(second, type)
            and issubclass(first, BaseException)
            and issubclass(second, BaseException)
        ):
            return issubclass(first, second)
        return False


def build_exception_model(table: SymbolTable) -> ExceptionModel:
    """Read the taxonomy hierarchy out of the symbol table."""
    model = ExceptionModel()
    roots = {
        qualname
        for qualname, symbol in table.symbols.items()
        if symbol.kind == "class" and symbol.name == TAXONOMY_ROOT
    }
    if not roots:
        return model
    # Walk every class whose base chain reaches the root, by name.
    for qualname, symbol in table.symbols.items():
        if symbol.kind != "class":
            continue
        base_names = tuple(base.rsplit(".", 1)[-1] for base in symbol.bases)
        model.taxonomy_bases.setdefault(symbol.name, base_names)
    # Keep only classes that actually reach the root (plus the root),
    # so unrelated same-named classes elsewhere don't pollute checks.
    reachable = {
        name for name in model.taxonomy_bases if model._reaches(name, TAXONOMY_ROOT)
    }
    model.taxonomy_bases = {
        name: bases for name, bases in model.taxonomy_bases.items() if name in reachable
    }
    return model


def _exception_name(node: ast.expr | None) -> str | None:
    """Simple class name of a raise/handler expression."""
    if node is None:
        return None
    if isinstance(node, ast.Call):
        node = node.func
    while isinstance(node, ast.Attribute):
        # repro.errors.QueryError / errors.QueryError -> QueryError
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _handler_names(handler: ast.ExceptHandler) -> tuple[str, ...] | None:
    """Names a handler catches; None means catch-everything."""
    if handler.type is None:
        return None
    if isinstance(handler.type, ast.Tuple):
        names = tuple(
            name
            for name in (_exception_name(el) for el in handler.type.elts)
            if name is not None
        )
        return names or None
    name = _exception_name(handler.type)
    # A dynamic handler expression (``except self._retryable``) catches
    # an unknowable set; treat as catch-everything so we do not invent
    # escapes the runtime filters out.
    if name is None:
        return None
    if name[0].islower():
        return None  # variable holding a tuple of types
    return (name,)


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    """A handler containing a bare ``raise`` is *transparent*: it logs
    or annotates, then re-raises — it neither absorbs its caught types
    nor originates new ones."""
    return any(
        isinstance(node, ast.Raise) and node.exc is None
        for node in ast.walk(handler)
    )


def _try_context(fn: ast.AST) -> dict[int, list[tuple[str, ...] | None]]:
    """Map each node id to the stack of handler-name-sets of the
    ``try`` bodies lexically enclosing it (innermost last).
    Transparent (re-raising) handlers are excluded — they don't
    protect the body."""
    context: dict[int, list[tuple[str, ...] | None]] = {}

    def visit(node: ast.AST, stack: list[tuple[str, ...] | None]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Try):
                handler_sets = [
                    _handler_names(h)
                    for h in child.handlers
                    if not _handler_reraises(h)
                ]
                body_stack = stack + handler_sets
                for stmt in child.body:
                    context[id(stmt)] = body_stack
                    visit(stmt, body_stack)
                # handlers / orelse / finalbody are outside this try's
                # own protection (a raise in a handler escapes it).
                for handler in child.handlers:
                    for stmt in handler.body:
                        context[id(stmt)] = stack
                        visit(stmt, stack)
                for stmt in [*child.orelse, *child.finalbody]:
                    context[id(stmt)] = stack
                    visit(stmt, stack)
            else:
                context[id(child)] = stack
                visit(child, stack)

    visit(fn, [])
    return context


def _caught(
    name: str, stack: list[tuple[str, ...] | None], model: ExceptionModel
) -> bool:
    for handler_set in stack:
        if handler_set is None:
            return True
        if any(model.is_subclass(name, handler) for handler in handler_set):
            return True
    return False


@dataclass(frozen=True, slots=True)
class _Call:
    """One way an exception can travel from ``callee`` into ``caller``:
    a call, or a callable handed to a policy that re-raises what it
    throws — filtered by the ``try`` stack around the site."""

    caller: str
    callee: str
    line: int
    stack: list[tuple[str, ...] | None]


def _collect_facts(
    table: SymbolTable, function: Function, model: ExceptionModel
) -> tuple[dict[str, int], list[_Call]]:
    """``({exception name: witness line}, calls)`` for one function
    before propagation: its uncaught direct raises and known external
    raisers, and the sites exceptions can arrive through."""
    direct: dict[str, int] = {}
    calls: list[_Call] = []
    context = _try_context(function.node)
    caller = function.qualname

    # Nested defs' bodies are walked with their lexical try context —
    # a fair stand-in for the enclosing function's protection, since
    # closures here are invoked from where they are defined (directly
    # or through a policy call we model higher-order).
    for node, _held in function.nodes:
        # A bare re-raise sits in a transparent handler: the try body's
        # raises already pass through (the handler was excluded from
        # the filter stack), so there is nothing to add.
        if isinstance(node, ast.Raise) and node.exc is not None:
            name = _exception_name(node.exc)
            if name is not None and not _caught(name, context.get(id(node), []), model):
                direct.setdefault(name, node.lineno)
    for site in function.calls:
        stack = context.get(id(site.node), [])
        if site.callee is None:
            for name in _external_raises(site.raw):
                if not _caught(name, stack, model):
                    direct.setdefault(name, site.line)
            continue
        calls.append(_Call(caller, site.callee, site.line, stack))
        if site.callee.endswith(POLICY_CALL_SUFFIXES):
            for arg in site.node.args:
                target = resolve_call(
                    table, function.info, function.cls, arg, function.local_types
                )
                if target is not None:
                    calls.append(_Call(caller, target, site.line, stack))
    return direct, calls


def _external_raises(raw: str) -> tuple[str, ...]:
    """What an unresolved (external) call is known to raise."""
    return KNOWN_RAISERS.get(raw) or KNOWN_RAISERS.get(raw.rsplit(".", 1)[-1], ())


@dataclass(slots=True)
class ExceptionFlow:
    """Propagated raise sets for every function in the project."""

    model: ExceptionModel
    #: qualname -> {exception name -> witness line in that function}
    raises: dict[str, dict[str, int]]


def analyze_exceptions(table: SymbolTable, graph: CallGraph) -> ExceptionFlow:
    model = build_exception_model(table)
    direct: dict[str, dict[str, int]] = {}
    calls: list[_Call] = []
    for function in graph.functions:
        direct[function.qualname], found = _collect_facts(table, function, model)
        calls.extend(found)
    # Propagate along the calls, filtering each site's contribution
    # through its try/except stack.
    reached = propagate(
        calls, direct, keep=lambda call, name: not _caught(name, call.stack, model)
    )
    raises = {
        qualname: {
            name: fact.site.line if fact.site is not None else direct[qualname][name]
            for name, fact in reached.get(qualname, {}).items()
        }
        for qualname in direct
    }
    return ExceptionFlow(model=model, raises=raises)


def _declared_retryable(table: SymbolTable) -> frozenset[str]:
    """Exception names appearing in ``*TRANSIENT*``/``*RETRYABLE*``
    module-level tuples — the policies' declared retryable sets."""
    names: set[str] = set()
    for info in table.modules.values():
        for node in info.module.tree.body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            upper = target.id.upper()
            if "TRANSIENT" not in upper and "RETRYABLE" not in upper:
                continue
            if isinstance(node.value, ast.Tuple):
                for el in node.value.elts:
                    name = _exception_name(el)
                    if name is not None:
                        names.add(name)
    return frozenset(names)


def check_exception_flow(
    table: SymbolTable,
    graph: CallGraph,
    modules: list[SourceModule],
    entry_packages: tuple[str, ...] = DEFAULT_ENTRY_PACKAGES,
    flow: ExceptionFlow | None = None,
) -> list[Finding]:
    """``exception-flow`` findings at boundary entry points."""
    facts = flow if flow is not None else analyze_exceptions(table, graph)
    model = facts.model
    retryable = _declared_retryable(table)
    by_rel: dict[str, SourceModule] = {m.rel_path: m for m in modules}
    top = table.top_package
    entry_prefixes = tuple(f"{top}.{pkg}." for pkg in entry_packages)

    findings: list[Finding] = []
    for qualname, symbol in sorted(table.symbols.items()):
        if symbol.kind == "class":
            continue
        if not qualname.startswith(entry_prefixes):
            continue
        if not symbol.is_public:
            continue
        # Dunder methods are internal protocol surface, not boundaries.
        if symbol.name.startswith("__"):
            continue
        # Methods of private classes are not public entry points.
        if symbol.kind == "method":
            class_qualname = qualname.rsplit(".", 1)[0]
            class_symbol = table.symbols.get(class_qualname)
            if class_symbol is not None and not class_symbol.is_public:
                continue
        module = by_rel[symbol.path]
        for name, line in sorted(facts.raises.get(qualname, {}).items()):
            if model.is_taxonomy(name) or name in retryable or name in SANCTIONED_BUILTINS:
                continue
            module.report(
                findings,
                RULE_EXCEPTION_FLOW,
                symbol.line,
                f"public entry point {qualname} can raise {name} "
                f"(witness near {symbol.path}:{line}) which escapes the "
                f"repro.errors taxonomy and every declared retryable set",
                scope=f"{qualname}:{name}",
                also=(line,),
            )
    return findings
