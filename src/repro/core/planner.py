"""Query planning / EXPLAIN support.

``explain`` reports the access path that serves a query — its family's
``path`` and ``details`` in :mod:`repro.core.families`, the table that
execution runs — and in ANALYZE mode what one execution of it did, so
partners can see *why* a query is fast or slow (the paper's "easy and
effective working environment").  The plan tree is the runner's: a
general hybrid's children are its parts, each run in its own
``query.<family>`` span; the fused spatial-visual hybrid is one pass,
one node.  ANALYZE executes the query once, past the answer cache, and
reads every node's rows and time off that run's spans; the counter and
charge deltas are the whole query's, on its own node.  Inside an
active span (the ``/debug/explain`` route's ``http.request``) the
analyzed plan is attached to it as ``plan``, so slow-span exemplars
carry the plan that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.obs import accounting
from repro.core.costmodel import cost_annotation
from repro.core.families import leaf_class, prepare
from repro.core.platform import TVDP
from repro.core.queries import query_family, query_shape


@dataclass(frozen=True)
class QueryPlan:
    """One node of an access-path description.

    ``rows`` / ``elapsed_ms`` / ``shape`` (the normalized query
    signature, see :func:`repro.core.queries.query_shape`) are filled
    only in ANALYZE mode, on every node; ``counter_deltas`` and
    ``charges`` on the query's own node alone.
    """

    query_type: str
    access_path: str
    details: dict = field(default_factory=dict)
    children: tuple["QueryPlan", ...] = ()
    rows: int | None = None
    elapsed_ms: float | None = None
    counter_deltas: dict = field(default_factory=dict)
    #: Ledger-charge deltas of executing the query (its own node) —
    #: unlike ``counter_deltas`` these are context-scoped, so they are
    #: exact even with concurrent traffic on the process.
    charges: dict = field(default_factory=dict)
    shape: str | None = None
    #: Static cost annotation from :mod:`repro.core.costmodel` —
    #: ``{cost, dominant_counters}`` — present on every node whose
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


def _node(query: object, children: tuple = ()) -> QueryPlan:
    """The static plan of ``query``: its family's access path and
    details over ``children`` — nothing executed."""
    family, leaf = query_family(query), leaf_class(query)
    return QueryPlan(
        family, leaf.path(query), leaf.details(query), children, cost=cost_annotation(family)
    )


def _filled(
    plan: QueryPlan, span, query: object, children: tuple = (), deltas=None, charges=None
) -> QueryPlan:
    """``plan`` with the rows, time and ``lsh_fallback`` that the
    ``query.<family>`` span which ran ``query`` recorded."""
    fallback = span.attrs.get("lsh_fallback")
    details = plan.details if fallback is None else {**plan.details, "lsh_fallback": fallback}
    return QueryPlan(  # positionally, in field order
        plan.query_type, plan.access_path, details, children, span.attrs["results"],
        span.duration_ms, deltas or {}, charges or {}, query_shape(query), plan.cost,
    )


def _analyze(platform: TVDP, query: object, plan: QueryPlan, parts: tuple) -> QueryPlan:
    """``plan`` filled from one execution of ``query``, never from the
    answer cache and without filling it: every node's rows, time and
    ``lsh_fallback`` off its span — the query's own, or the child span
    of each of ``parts`` — and, on the query's own node, the run's
    probe-counter and ledger-charge deltas.

    The counter deltas are whole-registry increments during the run, in
    a unit of work of its own (``obs.Unit``) so what its record implies
    is among them; concurrent traffic can only over-attribute.  The
    charges are that unit's bill, exact under any traffic.  A part
    carries neither: its probes are the query's.  Inside billed work (an
    API request) the run is that work's: its record carries no bill and
    its charges are added to the open sheet, so the request's principal
    pays; outside, the run is billed ``local``, as a bare
    ``platform.execute`` would be — the analyze run *is* load.
    """
    registry = obs.metrics()
    outer = obs.current_unit()
    billed_above = outer is not None and outer.sheet is not None
    before = registry.counter_values()
    with obs.Unit(obs.records()) as unit:
        # Past the answer cache: what is measured is the query's work.
        platform._answer(query, None)
        if billed_above:
            unit.principal = None
        charges = dict(unit.charges)  # an unbilled unit's record bills nothing
    after = registry.counter_values()
    deltas = {
        name: value - before.get(name, 0.0)
        for name, value in after.items()
        if value - before.get(name, 0.0)
    }
    if billed_above:
        for kind, amount in charges.items():
            accounting.charge(kind, amount)
    # The query's own span closed last, after its parts' (hybrids do not nest).
    *inner, own = unit.spans
    spans = [span for span in inner if span.name.startswith("query.")]
    children = tuple(map(_filled, plan.children, spans, parts))
    return _filled(plan, own, query, children, deltas, charges)


def explain(platform: TVDP, query: object, analyze: bool = False) -> QueryPlan:
    """Access-path plan for ``query`` — a general hybrid's parts nested
    under it; ``analyze=True`` also executes it once and fills in actual
    row counts and elapsed times on every node, and the run's
    probe-counter and charge deltas on the query's own."""
    parts = tuple(part.query for part in prepare(query).parts)
    plan = _node(query, tuple(map(_node, parts)))
    if analyze:
        plan = _analyze(platform, query, plan, parts)
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
