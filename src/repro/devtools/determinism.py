"""Determinism lint: no unseeded entropy or wall-clock on result paths.

Bench trajectories (PR 3) and chaos campaigns (PR 4) are only
comparable because every run is a pure function of its seeds; the
platform funnels time through the ``resilience.Clock`` seam and
randomness through explicitly seeded ``random.Random``/
``numpy.random.default_rng(seed)`` instances.  This lint flags the
escape hatches:

* wall-clock reads — ``time.time``/``time.time_ns``/``time.monotonic``/
  ``time.perf_counter``, ``datetime.now``/``utcnow``/``today``;
* process-global or unseeded RNG — ``random.<fn>()`` on the module
  (``random.Random(seed)`` is the sanctioned form), ``np.random.<fn>``
  globals, ``default_rng()`` with no arguments;
* raw entropy — ``os.urandom``, ``uuid.uuid4``, anything ``secrets.*``;
* iteration over unordered sets — ``for x in {...}``, ``for x in
  set(...)``, and comprehensions over either, unless wrapped in
  ``sorted(...)`` (set *membership* is fine; set *order* is not).

Modules matching :data:`DEFAULT_EXEMPT_GLOBS` (the observability layer,
whose whole job is reading real clocks, and the Clock seam itself) are
skipped; elsewhere, ``# devtools: allow[determinism]`` marks the
sanctioned sites.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch

from repro.devtools.callgraph import dotted_name
from repro.devtools.findings import Finding, SourceModule

RULE_DETERMINISM = "determinism"

#: Paths where wall-clock use is the point, not a bug.
DEFAULT_EXEMPT_GLOBS: tuple[str, ...] = (
    "*/repro/obs/*.py",
    "*/repro/resilience/clock.py",
    "*/repro/devtools/*.py",
)

_WALL_CLOCK = frozenset(
    {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
    }
)

_ENTROPY = frozenset({"os.urandom", "uuid.uuid4", "uuid.uuid1"})

#: random-module functions that hit the process-global RNG.
_GLOBAL_RANDOM = frozenset(
    {
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "sample", "shuffle", "gauss", "normalvariate", "betavariate",
        "expovariate", "triangular", "seed", "getrandbits",
    }
)


def _classify_call(node: ast.Call) -> str | None:
    """A human-readable reason this call is nondeterministic, or None."""
    dotted = dotted_name(node.func)
    if not dotted:
        return None
    if dotted in _WALL_CLOCK or dotted.endswith((".datetime.now", ".datetime.utcnow")):
        return f"wall-clock read {dotted}() — route timing through resilience.Clock"
    if dotted in _ENTROPY or dotted.startswith("secrets."):
        return f"raw entropy {dotted}() — derive values from a seeded RNG"
    head, _, tail = dotted.rpartition(".")
    if head == "random" and tail in _GLOBAL_RANDOM:
        return (
            f"process-global RNG {dotted}() — use an explicitly seeded "
            f"random.Random(seed) instance"
        )
    if head in ("np.random", "numpy.random") and tail != "default_rng":
        return (
            f"process-global NumPy RNG {dotted}() — use "
            f"np.random.default_rng(seed)"
        )
    if tail == "default_rng" and not node.args and not node.keywords:
        return "default_rng() without a seed draws OS entropy — pass a seed"
    return None


def _is_unordered_iterable(node: ast.expr) -> bool:
    """Set literal / ``set(...)`` / set-comprehension — unordered."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else ""
        if name in ("set", "frozenset"):
            return True
        if name in ("sorted", "list", "tuple", "min", "max", "sum", "len"):
            return False
        attr = func.attr if isinstance(func, ast.Attribute) else ""
        if attr in ("union", "intersection", "difference", "symmetric_difference"):
            return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        # set algebra: a | b, a & b, a - b, a ^ b over set operands —
        # only flag when an operand is itself visibly a set.
        return _is_unordered_iterable(node.left) or _is_unordered_iterable(node.right)
    return False


def check_determinism(
    modules: list[SourceModule],
    exempt_globs: tuple[str, ...] = DEFAULT_EXEMPT_GLOBS,
) -> list[Finding]:
    """``determinism`` findings across ``modules``."""
    findings: list[Finding] = []
    for module in modules:
        posix = module.path.as_posix()
        if any(fnmatch(posix, glob) for glob in exempt_globs):
            continue

        def report(line: int, message: str, token: str) -> None:
            module.report(
                findings, RULE_DETERMINISM, line, message, f"{module.scope_at(line)}:{token}"
            )

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                reason = _classify_call(node)
                if reason is not None:
                    report(node.lineno, reason, dotted_name(node.func))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_unordered_iterable(node.iter):
                    report(
                        node.iter.lineno,
                        "iteration over an unordered set — wrap in sorted(...) "
                        "so result order is reproducible",
                        "set-iteration",
                    )
            elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
                # (a SetComp over a set yields a set again — no order leak)
                for gen in node.generators:
                    if _is_unordered_iterable(gen.iter):
                        report(
                            gen.iter.lineno,
                            "comprehension over an unordered set — wrap in "
                            "sorted(...) so result order is reproducible",
                            "set-iteration",
                        )
    return findings
