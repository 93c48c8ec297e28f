"""Correctness lints: the mistakes this codebase has actually made.

* ``broad-except`` — a bare ``except:`` / ``except Exception:`` whose
  handler neither re-raises, nor logs, nor counts the error.  Swallowed
  failures are invisible failures; the API boundary is allowed to
  translate exceptions *because* it logs and bumps ``api.errors``.
* ``mutable-default`` — ``def f(x=[])`` shares one list across calls.
* ``no-print`` — library code reports through ``repro.obs`` loggers,
  never ``print()`` (this rule absorbed ``tools/check_no_print.py``).
* ``geo-range`` — literal latitudes outside [-90, 90] or longitudes
  outside [-180, 180] passed to geographic constructors or lat/lng
  keywords; a transposed ``GeoPoint(lng, lat)`` fails at runtime only
  for |lng| > 90, so the static check catches what tests may miss.
* ``no-sleep`` — ``time.sleep()`` in library code blocks a real thread
  and makes tests slow and flaky; time-shaped behaviour goes through
  the injectable ``repro.resilience.Clock`` instead.  The one
  sanctioned call site (``SystemClock.sleep``) carries an inline
  ``# devtools: allow[no-sleep]``.
"""

from __future__ import annotations

import ast

from repro.devtools.findings import Finding, SourceModule

RULE_BROAD_EXCEPT = "broad-except"
RULE_MUTABLE_DEFAULT = "mutable-default"
RULE_NO_PRINT = "no-print"
RULE_GEO_RANGE = "geo-range"
RULE_NO_SLEEP = "no-sleep"

_BROAD_NAMES = frozenset({"Exception", "BaseException"})
_LOG_METHODS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical", "log"}
)
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "deque", "defaultdict"})

_LAT_KEYWORDS = frozenset({"lat", "latitude", "min_lat", "max_lat", "center_lat"})
_LNG_KEYWORDS = frozenset(
    {"lng", "lon", "longitude", "min_lng", "max_lng", "center_lng"}
)


def _type_name(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    if _type_name(handler.type) in _BROAD_NAMES:
        return True
    if isinstance(handler.type, ast.Tuple):
        return any(_type_name(el) in _BROAD_NAMES for el in handler.type.elts)
    return False


def _handler_accounts_for_error(handler: ast.ExceptHandler) -> bool:
    """True when the handler re-raises, logs, or counts the failure."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _LOG_METHODS:
                return True
            if node.func.attr == "inc":  # error-counter bump
                return True
    return False


def check_broad_except(modules: list[SourceModule]) -> list[Finding]:
    findings: list[Finding] = []
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad(node) or _handler_accounts_for_error(node):
                continue
            caught = "bare except" if node.type is None else f"except {_type_name(node.type) or '...'}"
            module.report(
                findings,
                RULE_BROAD_EXCEPT,
                node.lineno,
                f"{caught} swallows the error: re-raise, log via "
                f"repro.obs.get_logger, or count it — or narrow the clause",
                module.scope_at(node.lineno),
            )
    return findings


def check_mutable_defaults(modules: list[SourceModule]) -> list[Finding]:
    findings: list[Finding] = []
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                bad = isinstance(default, (ast.List, ast.Dict, ast.Set))
                if isinstance(default, ast.Call) and isinstance(default.func, ast.Name):
                    bad = bad or default.func.id in _MUTABLE_CALLS
                if bad:
                    module.report(
                        findings,
                        RULE_MUTABLE_DEFAULT,
                        default.lineno,
                        f"mutable default argument in {node.name}(): the object "
                        f"is shared across calls; default to None instead",
                        module.scope_at(node.lineno),
                    )
    return findings


def check_no_print(modules: list[SourceModule]) -> list[Finding]:
    findings: list[Finding] = []
    for module in modules:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                module.report(
                    findings,
                    RULE_NO_PRINT,
                    node.lineno,
                    "print() in library code: use repro.obs.get_logger "
                    "(or obs.console for CLI-facing output)",
                    module.scope_at(node.lineno),
                )
    return findings


def check_no_sleep(modules: list[SourceModule]) -> list[Finding]:
    """Flag ``time.sleep(...)`` calls — including ones through a
    ``from time import sleep`` alias — anywhere in library code."""
    findings: list[Finding] = []
    for module in modules:
        # Names that ``from time import sleep [as alias]`` bound locally.
        sleep_aliases: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == "sleep":
                        sleep_aliases.add(alias.asname or alias.name)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_sleep = (
                isinstance(func, ast.Attribute)
                and func.attr == "sleep"
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
            ) or (isinstance(func, ast.Name) and func.id in sleep_aliases)
            if is_sleep:
                module.report(
                    findings,
                    RULE_NO_SLEEP,
                    node.lineno,
                    "time.sleep() blocks a real thread: route waits through "
                    "the injectable repro.resilience.Clock so simulated time "
                    "can stand in (SystemClock.sleep is the one allowed site)",
                    module.scope_at(node.lineno),
                )
    return findings


def _literal_number(node: ast.AST) -> float | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        if isinstance(node.value, bool):
            return None
        return float(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _literal_number(node.operand)
        if inner is None:
            return None
        return -inner if isinstance(node.op, ast.USub) else inner
    return None


def _geo_violation(kind: str, value: float) -> str | None:
    if kind == "lat" and not (-90.0 <= value <= 90.0):
        return f"latitude literal {value:g} outside [-90, 90]"
    if kind == "lng" and not (-180.0 <= value <= 180.0):
        return f"longitude literal {value:g} outside [-180, 180]"
    return None


def check_geo_literals(modules: list[SourceModule]) -> list[Finding]:
    """Out-of-range lat/lng literal heuristics at geo call sites."""
    # Positional argument meanings of the geographic constructors.
    positional = {
        "GeoPoint": ("lat", "lng"),
        "BoundingBox": ("lat", "lng", "lat", "lng"),
    }
    findings: list[Finding] = []

    def report(module: SourceModule, line: int, message: str) -> None:
        module.report(findings, RULE_GEO_RANGE, line, message, module.scope_at(line))

    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func_name = _type_name(node.func)
            kinds = positional.get(func_name)
            if kinds is not None:
                for kind, arg in zip(kinds, node.args):
                    value = _literal_number(arg)
                    if value is None:
                        continue
                    problem = _geo_violation(kind, value)
                    if problem:
                        report(
                            module,
                            arg.lineno,
                            f"{problem} in {func_name}(...) — lat/lng transposed?",
                        )
            for keyword in node.keywords:
                if keyword.arg is None:
                    continue
                kind = (
                    "lat"
                    if keyword.arg in _LAT_KEYWORDS
                    else "lng"
                    if keyword.arg in _LNG_KEYWORDS
                    else None
                )
                if kind is None:
                    continue
                value = _literal_number(keyword.value)
                if value is None:
                    continue
                problem = _geo_violation(kind, value)
                if problem:
                    report(module, keyword.value.lineno, f"{problem} ({keyword.arg}=...)")
    return findings
