"""Query planning / EXPLAIN support.

``explain`` reports the access path that serves a query — its family's
``path`` and ``details`` in :mod:`repro.core.families`, the table that
execution runs — and in ANALYZE mode the result count, wall-clock time,
probe-counter and charge deltas it produced, *per plan node*, so partners
can see *why* a query is fast or slow (the paper's "easy and effective
working environment").  ANALYZE executes the query as the platform
would, and a hybrid's children *additionally* stand-alone — roughly
the hybrid plus its parts, like re-running each arm of a join under its
own EXPLAIN.  Inside an active span (the ``/debug/explain`` route's
``http.request``) the analyzed plan is attached to it as ``plan``, so
slow-span exemplars carry the plan that produced them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import obs
from repro.obs import accounting
from repro.core.costmodel import cost_annotation
from repro.core.families import leaf_class
from repro.core.platform import TVDP
from repro.core.queries import query_family, query_shape


@dataclass(frozen=True)
class QueryPlan:
    """One node of an access-path description.

    ``rows`` / ``elapsed_ms`` / ``counter_deltas`` are filled only in
    ANALYZE mode; ``shape`` carries the normalized query signature
    (see :func:`repro.core.queries.query_shape`) on the root node.
    """

    query_type: str
    access_path: str
    details: dict = field(default_factory=dict)
    children: tuple["QueryPlan", ...] = ()
    rows: int | None = None
    elapsed_ms: float | None = None
    counter_deltas: dict = field(default_factory=dict)
    #: Ledger-charge deltas of executing this node (ANALYZE only) —
    #: unlike ``counter_deltas`` these are context-scoped, so they are
    #: exact even with concurrent traffic on the process.
    charges: dict = field(default_factory=dict)
    shape: str | None = None
    #: Static cost annotation from :mod:`repro.core.costmodel` —
    #: ``{cost, dominant_counters, note}`` — present on every node whose
    #: family the model covers, in plain EXPLAIN and ANALYZE alike.
    cost: dict | None = None

    def render(self, indent: int = 0) -> str:
        """Human-readable multi-line plan."""
        pad = "  " * indent
        extras = " ".join(f"{k}={v}" for k, v in self.details.items())
        timing = ""
        if self.rows is not None:
            timing = f"  [rows={self.rows}"
            if self.elapsed_ms is not None:
                timing += f" time={self.elapsed_ms:.2f}ms"
            timing += "]"
        lines = [f"{pad}{self.query_type}: {self.access_path} {extras}{timing}".rstrip()]
        if self.cost is not None:
            lines.append(f"{pad}  cost: {self.cost['cost']}")
        for label, values in (("probes", self.counter_deltas), ("charges", self.charges)):
            if values:
                pairs = " ".join(f"{name}={value:g}" for name, value in sorted(values.items()))
                lines.append(f"{pad}  {label}: {pairs}")
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-compatible nested plan (what ``/debug/explain`` serves
        and what ANALYZE attaches to the active span)."""
        return {
            "query_type": self.query_type,
            "access_path": self.access_path,
            "details": dict(self.details),
            "rows": self.rows,
            "elapsed_ms": self.elapsed_ms,
            "counter_deltas": dict(self.counter_deltas),
            "charges": dict(self.charges),
            "shape": self.shape,
            "cost": dict(self.cost) if self.cost is not None else None,
            "children": [child.to_dict() for child in self.children],
        }


def _plan_node(query: object) -> QueryPlan:
    """The static plan of ``query``: its family's access path and
    details, a hybrid's parts nested under it — nothing executed."""
    family, leaf = query_family(query), leaf_class(query)
    children = tuple(_plan_node(sub) for sub in leaf.children(query))
    return QueryPlan(
        family, leaf.path(query), leaf.details(query), children, cost=cost_annotation(family)
    )


def _measured_execute(
    platform: TVDP, query: object
) -> tuple[int, float, dict[str, float], dict[str, float], object]:
    """Execute ``query``, never from the answer cache and without
    filling it; (rows, elapsed_ms, probe-counter deltas, ledger-charge
    deltas, the ``lsh_fallback`` its span recorded or ``None``).

    The counter deltas are whole-registry increments during the run, in
    a unit of work of its own (``obs.Unit``) so what its record implies
    is among them; concurrent traffic can only over-attribute.  The
    charges are that unit's bill, exact under any traffic.  Inside
    billed work (an API request) the run is that work's: its record
    carries no bill and its charges are added to the open sheet, so the
    request's principal pays; outside, the run is billed ``local``, as a
    bare ``platform.execute`` would be — the analyze run *is* load.
    """
    registry = obs.metrics()
    outer = obs.current_unit()
    billed_above = outer is not None and outer.sheet is not None
    before = registry.counter_values()
    # analyze=True reports the real execution time; elapsed_ms is
    # display metadata, not result data.
    start = time.perf_counter()  # devtools: allow[determinism] — see above
    with obs.Unit(obs.records()) as unit:
        # Past the answer cache: what is measured is the query's work.
        answer = platform._answer(query, None)
        if billed_above:
            unit.principal = None
        charges = dict(unit.charges)  # an unbilled unit's record bills nothing
    elapsed_ms = (time.perf_counter() - start) * 1000.0  # devtools: allow[determinism] — see above
    after = registry.counter_values()
    deltas = {
        name: value - before.get(name, 0.0)
        for name, value in after.items()
        if value - before.get(name, 0.0)
    }
    if billed_above:
        for kind, amount in charges.items():
            accounting.charge(kind, amount)
    # The query's own span closed last; what execution decided is on it.
    fallback = unit.spans[-1].attrs.get("lsh_fallback")
    return len(answer), elapsed_ms, deltas, charges, fallback


def _analyze_node(platform: TVDP, query: object, plan: QueryPlan) -> QueryPlan:
    """Re-build ``plan`` with per-node rows/time/probe deltas filled."""
    children = tuple(
        _analyze_node(platform, sub, child)
        for sub, child in zip(leaf_class(query).children(query), plan.children)
    )
    rows, elapsed_ms, deltas, charges, fallback = _measured_execute(platform, query)
    details = plan.details if fallback is None else {**plan.details, "lsh_fallback": fallback}
    return QueryPlan(  # positionally, in field order
        plan.query_type, plan.access_path, details, children, rows, elapsed_ms,
        deltas, charges, query_shape(query), plan.cost,
    )


def explain(platform: TVDP, query: object, analyze: bool = False) -> QueryPlan:
    """Access-path plan for ``query``; ``analyze=True`` also executes it
    and fills in actual row counts, elapsed times, and probe-counter
    deltas on every node (hybrid children are executed stand-alone to
    attribute their cost — see the module docstring)."""
    plan = _plan_node(query)
    if analyze:
        plan = _analyze_node(platform, query, plan)
    preview = platform.shard_plan_preview(query)
    if preview is not None:
        # On a sharded platform the access-path plan executes inside a
        # scatter-gather: wrap it in the fan-out node so EXPLAIN shows
        # how many shards the pruning predicates eliminated.
        plan = QueryPlan(
            "scatter_gather",
            "shard.scatter_gather",
            details=dict(preview),
            children=(plan,),
        )
    if analyze:
        active = obs.current_span()
        if active is not None:
            active.set("plan", plan.to_dict())
    return plan
