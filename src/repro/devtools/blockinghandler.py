"""Blocking calls reachable from HTTP handlers.

The serving arc will run every registered route on a bounded thread
pool; a handler that blocks — file IO, an untimed ``Future.result()``,
a subprocess, a socket operation, or a resilience policy that sleeps —
ties up a worker for an unbounded time and collapses throughput under
load.  This pass discovers handlers from ``Router`` registrations
(``route(method, template)(self._handler)`` / ``router.add(...)``),
propagates may-block facts over the call graph (the shared
:func:`~repro.devtools.callgraph.blocking_sites` classification and
:func:`~repro.devtools.callgraph.propagate`), and reports each
blocking *site* once, naming the handlers that reach it and the call
chain from one of them.

Findings anchor at the blocking call site (not the handler ``def``), so
a single justified ``# devtools: allow[blocking-in-handler]`` at a
deliberately-blocking site — e.g. the shard dispatch retry, whose
backoff is budget-bounded — covers every handler that reaches it.
"""

from __future__ import annotations

from repro.devtools.callgraph import (
    CallGraph,
    CallSite,
    SymbolTable,
    blocking_sites,
    propagate,
    witness_chain,
)
from repro.devtools.findings import Finding
from repro.devtools.threadescape import discover_handlers

RULE = "blocking-in-handler"


def check_blocking_in_handler(table: SymbolTable, graph: CallGraph) -> list[Finding]:
    handlers = discover_handlers(table)
    # First blocking call per function that is not sanctioned inline.
    blocking: dict[str, tuple[CallSite, str]] = {}
    for qualname, hits in blocking_sites(graph).items():
        module = graph.function[qualname].module
        for site, reason in hits:
            if not module.allows(RULE, site.line):
                blocking[qualname] = (site, reason)
                break
    reach = propagate(graph.sites, {qualname: ("blocks",) for qualname in blocking})

    # Per handler: the nearest blocking site and the chain to it.
    # Findings group by blocking site so one allow-comment at a
    # sanctioned site covers every handler reaching it.
    grouped: dict[tuple[str, str], tuple[CallSite, str, list[str], list[str]]] = {}
    for handler in handlers:
        if "blocks" not in reach.get(handler, ()):
            continue
        chain = witness_chain(reach, handler, "blocks")
        site, reason = blocking[chain[-1]]
        raw = site.raw or "<call>"
        entry = grouped.setdefault(
            (site.caller, raw),
            (site, reason, [], [name.rsplit(".", 1)[-1] for name in chain]),
        )
        entry[2].append(handler.rsplit(".", 1)[-1])

    findings: list[Finding] = []
    for (site_fn, raw), (site, reason, names, chain) in sorted(grouped.items()):
        unique = sorted(set(names))
        more = f" (+{len(unique) - 4} more)" if len(unique) > 4 else ""
        fn_short = ".".join(site_fn.rsplit(".", 2)[-2:])
        findings.append(
            Finding(
                rule=RULE,
                path=site.path,
                line=site.line,
                message=(
                    f"blocking call {raw}() ({reason}) is reachable from "
                    f"HTTP handler(s) {', '.join(unique[:4])}{more} via "
                    f"{' -> '.join(chain)}; move it off the request path, bound "
                    "it with a timeout, or justify it with an allow-comment"
                ),
                scope=f"{fn_short}:{raw}",
            )
        )
    findings.sort(key=lambda f: (f.path, f.line, f.scope))
    return findings
