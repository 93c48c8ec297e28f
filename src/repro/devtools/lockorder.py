"""Static lock-order analysis: no cycles, no blocking calls under locks.

Deadlocks in this codebase would come from two shapes:

1. **Order inversion** — thread A acquires lock L then M, thread B
   acquires M then L.  We extract every lock the project creates
   (``threading.Lock``/``RLock`` assigned to a module global or a
   ``self`` attribute), walk each function recording which locks are
   held when another is acquired — including *interprocedurally*, via a
   may-acquire fixpoint over the call graph — and fail on any cycle in
   the resulting acquisition graph.  Lock identity is the *creation
   site* (``repro.obs.metrics.Gauge._lock``), so every instance of a
   class shares one node and instance-level self-nesting is ignored
   (that is reentrancy, RLock's job, not ordering).

2. **Lock held across blocking work** — holding any lock across file
   IO, a sleep, or a resilience-policy ``call``/``execute`` (which may
   retry and back off for seconds) turns a micro-critical-section into
   a system-wide stall.  We flag direct blocking calls under a lock and
   calls to project functions that (transitively) reach one.

Both shapes report under the single rule id ``lock-order`` and honour
``# devtools: allow[lock-order]`` for the rare deliberate case (e.g. a
lock whose entire purpose is serialising writes to one file handle).

The runtime companion is :mod:`repro.devtools.sanitizers`, which checks
the same two properties against *actual* acquisition orders under
``REPRO_SANITIZE=1 pytest``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.devtools.callgraph import (
    CallGraph,
    CallSite,
    Fact,
    SymbolTable,
    blocking_reason,
    blocking_sites,
    propagate,
    witness_chain,
)
from repro.devtools.findings import Finding, SourceModule

RULE_LOCK_ORDER = "lock-order"


@dataclass(frozen=True, slots=True)
class LockEdge:
    """``held`` was held while ``acquired`` was (or may be) acquired."""

    held: str
    acquired: str
    path: str
    line: int
    via: str  # "" for a direct nested ``with``; callee qualname otherwise


@dataclass(slots=True)
class LockGraph:
    """The whole-program acquisition graph, for passes/docs/tests."""

    locks: set[str] = field(default_factory=set)
    edges: dict[tuple[str, str], LockEdge] = field(default_factory=dict)

    def add(self, edge: LockEdge) -> None:
        if edge.held == edge.acquired:
            return  # reentrancy, not ordering
        self.edges.setdefault((edge.held, edge.acquired), edge)

    def successors(self, lock: str) -> list[str]:
        return sorted(dst for (src, dst) in self.edges if src == lock)

    def cycles(self) -> list[list[str]]:
        """Strongly connected components with more than one lock."""
        adjacency: dict[str, list[str]] = {lock: [] for lock in self.locks}
        for src, dst in self.edges:
            adjacency.setdefault(src, []).append(dst)
            adjacency.setdefault(dst, [])
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = 0
        sccs: list[list[str]] = []

        def strongconnect(start: str) -> None:
            nonlocal counter
            work: list[tuple[str, int]] = [(start, 0)]
            while work:
                node, child_index = work[-1]
                if child_index == 0:
                    index[node] = low[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack.add(node)
                advanced = False
                children = adjacency[node]
                while child_index < len(children):
                    child = children[child_index]
                    child_index += 1
                    if child not in index:
                        work[-1] = (node, child_index)
                        work.append((child, 0))
                        advanced = True
                        break
                    if child in on_stack:
                        low[node] = min(low[node], index[child])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        sccs.append(sorted(component))

        for node in sorted(adjacency):
            if node not in index:
                strongconnect(node)
        return sccs


@dataclass(slots=True)
class LockAnalysis:
    """Everything the static pass extracted, reusable by docs/tests."""

    graph: LockGraph
    #: function qualname -> {lock it may (transitively) acquire: why}
    may_acquire: dict[str, dict[str, Fact]]
    #: function qualname -> {"blocks": why}, for functions that may
    #: (transitively) make a blocking call
    may_block: dict[str, dict[str, Fact]]
    #: direct calls made while at least one lock was held
    held_calls: list[CallSite] = field(default_factory=list)


def analyze_locks(table: SymbolTable, graph: CallGraph) -> LockAnalysis:
    """Build the acquisition graph and blocking facts for the project."""
    lock_graph = LockGraph(locks=graph.locks.all_locks())
    acquires: dict[str, list[str]] = {}
    held_calls: list[CallSite] = []
    for function in graph.functions:
        for lock, held, line in function.acquires:
            acquires.setdefault(function.qualname, []).append(lock)
            for holder in held:
                lock_graph.add(
                    LockEdge(holder, lock, function.module.rel_path, line, via="")
                )
        held_calls.extend(site for site in function.calls if site.held)

    may_acquire = propagate(graph.sites, acquires)
    may_block = propagate(graph.sites, {fn: ("blocks",) for fn in blocking_sites(graph)})

    # Interprocedural edges: a call under lock L to a function that may
    # acquire M adds L -> M.
    for site in held_calls:
        for acquired in may_acquire.get(site.callee or "", ()):
            for holder in site.held:
                lock_graph.add(
                    LockEdge(holder, acquired, site.path, site.line, via=site.callee or "")
                )
    return LockAnalysis(lock_graph, may_acquire, may_block, held_calls)


def check_lock_order(
    table: SymbolTable,
    graph: CallGraph,
    modules: list[SourceModule],
    analysis: LockAnalysis | None = None,
) -> list[Finding]:
    """``lock-order`` findings: acquisition cycles and blocking-under-lock."""
    facts = analysis if analysis is not None else analyze_locks(table, graph)
    by_rel: dict[str, SourceModule] = {m.rel_path: m for m in modules}
    findings: list[Finding] = []

    for cycle in facts.graph.cycles():
        witnesses = [
            edge
            for (src, dst), edge in sorted(facts.graph.edges.items())
            if src in cycle and dst in cycle
        ]
        first = witnesses[0]
        detail = "; ".join(
            f"{e.held.rsplit('.', 1)[-1]} -> {e.acquired.rsplit('.', 1)[-1]} "
            f"at {e.path}:{e.line}" + (f" via {e.via}" if e.via else "")
            for e in witnesses[:4]
        )
        by_rel[first.path].report(
            findings,
            RULE_LOCK_ORDER,
            first.line,
            f"lock acquisition cycle between {', '.join(cycle)} — "
            f"threads taking these in different orders can deadlock "
            f"({detail})",
            scope="cycle:" + "|".join(cycle),
        )

    direct = blocking_sites(graph)
    seen: set[tuple[str, str, str]] = set()
    for site in facts.held_calls:
        if blocking_reason(site):
            blocking = site.raw or "<call>"
        elif "blocks" in facts.may_block.get(site.callee or "", ()):
            chain = witness_chain(facts.may_block, site.callee or "", "blocks")
            hops = [name.rsplit(".", 1)[-1] for name in chain[1:]]
            hops.append(direct[chain[-1]][0][0].raw or "<call>")
            blocking = f"{site.raw} ({' -> '.join(hops)})"
        else:
            continue
        key = (site.caller, site.held[-1], blocking)
        if key in seen:
            continue
        seen.add(key)
        owner, _, name = site.caller.rpartition(".")
        by_rel[site.path].report(
            findings,
            RULE_LOCK_ORDER,
            site.line,
            f"{owner.rsplit('.', 1)[-1]}.{name} "
            f"holds {site.held[-1]} across blocking call {blocking} — "
            f"release the lock before IO/sleep/policy calls",
            scope=f"{site.caller}:{blocking}",
        )
    return findings
