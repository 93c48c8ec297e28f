"""Per-file lints: one table, one walk per module.

A row of :data:`LINTS` is a rule id, the AST node types it reads, and a
predicate yielding ``(line, message, scope)`` per violation at a node
(``scope`` qualifies the enclosing ``Class.method`` in the fingerprint).
:func:`run_lints` walks each module once, handing every node to the rows
that read its type; the walk carries how deep it is inside ``with
<...lock...>:`` blocks (any context expression whose dotted name holds
``"lock"``) and the enclosing function's ``global`` names, and writes
nothing onto the shared ``SourceModule`` trees.

* ``module-mutable-state`` — a module-level container (or a name rebound
  through ``global``) mutated at runtime outside a lock, flagged at the
  write; registries filled once at import are fine.  State on
  *instances* is ``thread-escape``'s job: it resolves the real lock.
* ``broad-except`` — a bare ``except:`` / ``except Exception:`` whose
  handler neither re-raises, nor logs, nor counts the error.  Swallowed
  failures are invisible failures; the API boundary may translate
  exceptions *because* it logs and bumps ``api.errors``.
* ``mutable-default`` — ``def f(x=[])`` shares one list across calls.
* ``no-print`` — library code reports through ``repro.obs`` loggers.
* ``geo-range`` — literal latitudes outside [-90, 90] or longitudes
  outside [-180, 180] at geographic call sites; a transposed
  ``GeoPoint(lng, lat)`` fails at runtime only for |lng| > 90.
* ``no-sleep`` — ``time.sleep()`` (also through ``from time import
  sleep``) blocks a real thread; waits go through the injectable
  ``repro.resilience.Clock``, whose ``SystemClock.sleep`` is the one
  sanctioned site.
* ``determinism`` — wall-clock reads, a global or unseeded RNG, raw
  entropy, and iteration over an unordered set not wrapped in
  ``sorted(...)``: bench and chaos runs compare only because each is a
  pure function of its seeds.  :data:`DEFAULT_EXEMPT_GLOBS` read real
  clocks by design.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Any, Callable, Iterable, Iterator

from repro.devtools.callgraph import MUTATING_METHODS, dotted_name
from repro.devtools.findings import Finding, SourceModule

#: ``(line, message, scope)``: one finding before allow-comments apply.
Hit = tuple[int, str, str]

#: Paths where wall-clock use is the point, not a bug: the observability
#: layer, the Clock seam itself, and this suite.
DEFAULT_EXEMPT_GLOBS = ("*/repro/obs/*.py", "*/repro/resilience/clock.py", "*/repro/devtools/*.py")

#: Constructors that make a default argument shared mutable state.
_MUTABLE_DEFAULT_CALLS = frozenset({"list", "dict", "set", "bytearray", "deque", "defaultdict"})
#: Literals and constructors whose module-level result is mutable state.
_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_STATE_CALLS = _MUTABLE_DEFAULT_CALLS | {"OrderedDict", "Counter"}

_BROAD_NAMES = frozenset({"Exception", "BaseException"})
_LOG_METHODS = frozenset({"debug", "info", "warning", "error", "exception", "critical", "log"})

#: Positional argument meanings of the geographic constructors.
_GEO_POSITIONAL = {"GeoPoint": ("lat", "lng"), "BoundingBox": ("lat", "lng", "lat", "lng")}
_GEO_KEYWORDS = {
    **dict.fromkeys(("lat", "latitude", "min_lat", "max_lat", "center_lat"), "lat"),
    **dict.fromkeys(("lng", "lon", "longitude", "min_lng", "max_lng", "center_lng"), "lng"),
}
_GEO_BOUNDS = {"lat": ("latitude", 90.0), "lng": ("longitude", 180.0)}

_WALL_CLOCK = frozenset(
    {"time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns", "time.perf_counter",
     "time.perf_counter_ns", "datetime.now", "datetime.utcnow", "datetime.today", "date.today"}
)
_ENTROPY = frozenset({"os.urandom", "uuid.uuid4", "uuid.uuid1"})
#: random-module functions that hit the process-global RNG.
_GLOBAL_RANDOM = frozenset(
    {"random", "randint", "randrange", "uniform", "choice", "choices", "sample", "shuffle", "gauss",
     "normalvariate", "betavariate", "expovariate", "triangular", "seed", "getrandbits"}
)

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_COMPREHENSIONS = (ast.ListComp, ast.DictComp, ast.GeneratorExp)
_SET_ALGEBRA = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
_SORT_IT = "wrap in sorted(...) so result order is reproducible"
_SLEEP_MESSAGE = (
    "time.sleep() blocks a real thread: route waits through the injectable repro.resilience.Clock "
    "so simulated time can stand in (SystemClock.sleep is the one allowed site)"
)


@dataclass(frozen=True, slots=True)
class Lint:
    """One row of the per-file rule table."""

    rule: str
    reads: tuple[type[ast.AST], ...]
    check: Callable[[Any, Walk], Iterable[Hit]]


@dataclass(slots=True)
class Walk:
    """One module's walk: the rows that read each node type, what the
    pre-pass found, and the context at the node being visited."""

    module: SourceModule
    reads: dict[type, list[Lint]]
    findings: list[Finding]
    #: module-level mutable names -> defining line (read off ``tree.body``)
    mutables: dict[str, int]
    lock_depth: int = 0
    #: the enclosing function's ``global`` names (None at module level)
    global_names: set[str] | None = None
    #: names ``from time import sleep [as alias]`` bound so far
    sleep_aliases: set[str] = field(default_factory=set)

    def visit(self, node: ast.AST) -> None:
        for lint in self.reads.get(type(node), ()):
            for line, message, scope in lint.check(node, self):
                qualname = self.module.scope_at(line)
                scope = f"{qualname}:{scope}" if scope else qualname
                self.module.report(self.findings, lint.rule, line, message, scope)
        if isinstance(node, _FUNCTIONS):
            outer, self.global_names = self.global_names, set()
            for child in ast.iter_child_nodes(node):
                self.visit(child)
            self.global_names = outer
            return
        if isinstance(node, ast.Global) and self.global_names is not None:
            self.global_names.update(node.names)
        locked = isinstance(node, (ast.With, ast.AsyncWith)) and any(
            "lock" in dotted_name(item.context_expr).lower() for item in node.items
        )
        self.lock_depth += locked
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        self.lock_depth -= locked


def _module_mutables(tree: ast.Module) -> dict[str, int]:
    mutables: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        else:
            continue
        if isinstance(target, ast.Name) and not target.id.startswith("__") and (
            isinstance(value, _MUTABLE_LITERALS)
            or isinstance(value, ast.Call) and _type_name(value.func) in _MUTABLE_STATE_CALLS
        ):
            mutables[target.id] = node.lineno
    return mutables


def _type_name(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _base_name(node: ast.AST) -> str:
    """The name under any subscripts: ``x[k][j]`` -> ``"x"``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node.id if isinstance(node, ast.Name) else ""


def _mutations(node: ast.AST) -> Iterator[tuple[str, str]]:
    """``(name, verb)`` for each write into a named container."""
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
            if isinstance(target, ast.Subscript) or isinstance(node, ast.AugAssign):
                yield _base_name(target), "write"
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                yield _base_name(target), "del"
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in MUTATING_METHODS and isinstance(node.func.value, ast.Name):
            yield node.func.value.id, f".{node.func.attr}()"


def _module_state(node: ast.stmt | ast.Call, walk: Walk) -> Iterator[Hit]:
    if walk.lock_depth:
        return
    for name, verb in _mutations(node):
        defined = walk.mutables.get(name)
        if defined is not None and node.lineno != defined:  # not the initialiser
            message = f"module-level mutable {name!r} (defined line {defined}) is mutated here"
            yield node.lineno, f"{message} ({verb}) outside a lock", name
    if walk.global_names and isinstance(node, (ast.Assign, ast.AugAssign)):
        for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
            if isinstance(target, ast.Name) and target.id in walk.global_names:
                message = f"'global {target.id}' rebinding outside a lock"
                yield node.lineno, f"{message} — shared module state must be guarded", target.id
                break


def _broad_except(node: ast.ExceptHandler, walk: Walk) -> Iterator[Hit]:
    kind = node.type
    if kind is not None:
        caught = kind.elts if isinstance(kind, ast.Tuple) else [kind]
        if not any(_type_name(k) in _BROAD_NAMES for k in caught):
            return
    for inner in ast.walk(node):  # re-raised, logged, or counted (``.inc()``)?
        if isinstance(inner, ast.Raise) or (
            isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Attribute)
            and (inner.func.attr in _LOG_METHODS or inner.func.attr == "inc")
        ):
            return
    clause = "bare except" if kind is None else f"except {_type_name(kind) or '...'}"
    fix = "re-raise, log via repro.obs.get_logger, or count it — or narrow the clause"
    yield node.lineno, f"{clause} swallows the error: {fix}", ""


def _mutable_default(node: ast.FunctionDef | ast.AsyncFunctionDef, walk: Walk) -> Iterator[Hit]:
    for default in [*node.args.defaults, *(d for d in node.args.kw_defaults if d is not None)]:
        if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
            isinstance(default, ast.Call)
            and isinstance(default.func, ast.Name)
            and default.func.id in _MUTABLE_DEFAULT_CALLS
        ):
            why = "the object is shared across calls; default to None instead"
            yield default.lineno, f"mutable default argument in {node.name}(): {why}", ""


def _no_print(node: ast.Call, walk: Walk) -> Iterator[Hit]:
    if isinstance(node.func, ast.Name) and node.func.id == "print":
        instead = "use repro.obs.get_logger (or obs.console for CLI-facing output)"
        yield node.lineno, f"print() in library code: {instead}", ""


def _literal_number(node: ast.AST) -> float | None:
    sign = 1.0
    while isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        sign = -sign if isinstance(node.op, ast.USub) else sign
        node = node.operand
    value = node.value if isinstance(node, ast.Constant) else None
    return sign * value if isinstance(value, (int, float)) and not isinstance(value, bool) else None


def _geo_range(node: ast.Call, walk: Walk) -> Iterator[Hit]:
    func_name = _type_name(node.func)
    literals = [
        (kind, arg, f" in {func_name}(...) — lat/lng transposed?")
        for kind, arg in zip(_GEO_POSITIONAL.get(func_name, ()), node.args)
    ]
    literals += [
        (_GEO_KEYWORDS[kw.arg], kw.value, f" ({kw.arg}=...)")
        for kw in node.keywords
        if kw.arg is not None and kw.arg in _GEO_KEYWORDS
    ]
    for kind, arg, where in literals:
        value = _literal_number(arg)
        name, bound = _GEO_BOUNDS[kind]
        if value is not None and not -bound <= value <= bound:
            yield arg.lineno, f"{name} literal {value:g} outside [-{bound:g}, {bound:g}]{where}", ""


def _no_sleep(node: ast.ImportFrom | ast.Call, walk: Walk) -> Iterator[Hit]:
    if isinstance(node, ast.ImportFrom):
        if node.module == "time":
            walk.sleep_aliases.update(a.asname or a.name for a in node.names if a.name == "sleep")
        return
    func = node.func
    aliased = isinstance(func, ast.Name) and func.id in walk.sleep_aliases
    if aliased or dotted_name(func) == "time.sleep":
        yield node.lineno, _SLEEP_MESSAGE, ""


def _nondeterministic_call(node: ast.Call, dotted: str) -> str | None:
    """A human-readable reason this call is nondeterministic, or None."""
    if dotted in _WALL_CLOCK or dotted.endswith((".datetime.now", ".datetime.utcnow")):
        return f"wall-clock read {dotted}() — route timing through resilience.Clock"
    if dotted in _ENTROPY or dotted.startswith("secrets."):
        return f"raw entropy {dotted}() — derive values from a seeded RNG"
    head, _, tail = dotted.rpartition(".")
    if head == "random" and tail in _GLOBAL_RANDOM:
        seeded = "use an explicitly seeded random.Random(seed) instance"
        return f"process-global RNG {dotted}() — {seeded}"
    if head in ("np.random", "numpy.random") and tail != "default_rng":
        return f"process-global NumPy RNG {dotted}() — use np.random.default_rng(seed)"
    if tail == "default_rng" and not node.args and not node.keywords:
        return "default_rng() without a seed draws OS entropy — pass a seed"
    return None


def _is_unordered_iterable(node: ast.expr) -> bool:
    """Set literal / ``set(...)`` / set-comprehension / set algebra."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = node.func.id if isinstance(node.func, ast.Name) else ""
        if name in ("set", "frozenset"):
            return True
        if name in ("sorted", "list", "tuple", "min", "max", "sum", "len"):
            return False
        attr = node.func.attr if isinstance(node.func, ast.Attribute) else ""
        return attr in ("union", "intersection", "difference", "symmetric_difference")
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_ALGEBRA):
        # a | b, a & b, a - b, a ^ b: only when an operand is visibly a set
        return _is_unordered_iterable(node.left) or _is_unordered_iterable(node.right)
    return False


def _determinism(node: ast.AST, walk: Walk) -> Iterator[Hit]:
    if isinstance(node, ast.Call):
        dotted = dotted_name(node.func)
        reason = _nondeterministic_call(node, dotted) if dotted else None
        if reason is not None:
            yield node.lineno, reason, dotted
    elif isinstance(node, (ast.For, ast.AsyncFor)):
        if _is_unordered_iterable(node.iter):
            message = f"iteration over an unordered set — {_SORT_IT}"
            yield node.iter.lineno, message, "set-iteration"
    elif isinstance(node, _COMPREHENSIONS):  # a SetComp yields a set again: no order leaks
        for gen in node.generators:
            if _is_unordered_iterable(gen.iter):
                message = f"comprehension over an unordered set — {_SORT_IT}"
                yield gen.iter.lineno, message, "set-iteration"


#: The per-file rules, in report order.
LINTS: tuple[Lint, ...] = (
    Lint("module-mutable-state", (ast.Assign, ast.AugAssign, ast.Delete, ast.Call), _module_state),
    Lint("broad-except", (ast.ExceptHandler,), _broad_except),
    Lint("mutable-default", _FUNCTIONS, _mutable_default),
    Lint("no-print", (ast.Call,), _no_print),
    Lint("geo-range", (ast.Call,), _geo_range),
    Lint("no-sleep", (ast.ImportFrom, ast.Call), _no_sleep),
    Lint("determinism", (ast.Call, ast.For, ast.AsyncFor, *_COMPREHENSIONS), _determinism),
)


def run_lints(modules: list[SourceModule], rules: tuple[str, ...]) -> list[Finding]:
    """Findings of the ``rules`` rows over ``modules``, one walk each."""
    findings: list[Finding] = []
    for module in modules:
        exempt = any(fnmatch(module.path.as_posix(), glob) for glob in DEFAULT_EXEMPT_GLOBS)
        reads: dict[type, list[Lint]] = {}
        for lint in LINTS:
            if lint.rule in rules and not (exempt and lint.rule == "determinism"):
                for node_type in lint.reads:
                    reads.setdefault(node_type, []).append(lint)
        mutables = _module_mutables(module.tree) if "module-mutable-state" in rules else {}
        Walk(module, reads, findings, mutables).visit(module.tree)
    return findings
