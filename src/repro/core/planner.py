"""Query planning / EXPLAIN support.

``explain`` reports, for any query the platform executes, which access
path serves it (which index, what filter/refine steps), and — in
ANALYZE mode — the actual result count, wall-clock time, and the
observability probe-counter deltas (index node visits, bucket hits,
postings scanned, ...) the execution produced, *per plan node*.
Exposed so non-technical partners can see *why* a query is fast or
slow, in the spirit of the paper's "easy and effective working
environment" — and so the upcoming scale-out planner has per-operator
cost visibility to prune and fan out against.

ANALYZE semantics: the root node's numbers come from executing the
query exactly as the platform would.  A hybrid plan's children are
*additionally* executed stand-alone to attribute rows/time/probes to
each sub-path — EXPLAIN ANALYZE on a hybrid therefore costs roughly
the hybrid plus the sum of its parts, like re-running each arm of a
join under its own EXPLAIN.

When ANALYZE runs inside an active span (e.g. the ``/debug/explain``
route's ``http.request``), the analyzed plan is attached to that span
as its ``plan`` attribute, so slow-span exemplars carry the plan that
produced them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.obs import accounting
from repro.errors import QueryError
from repro.geo.point import BoundingBox
from repro.index.inverted import tokenize
from repro.core.costmodel import cost_annotation
from repro.core.platform import TVDP
from repro.core.queries import (
    CategoricalQuery,
    HybridQuery,
    SpatialQuery,
    TemporalQuery,
    TextualQuery,
    VisualQuery,
    query_family,
    query_shape,
)


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
        if self.counter_deltas:
            probes = " ".join(
                f"{name}={value:g}"
                for name, value in sorted(self.counter_deltas.items())
            )
            lines.append(f"{pad}  probes: {probes}")
        if self.charges:
            charged = " ".join(
                f"{name}={value:g}" for name, value in sorted(self.charges.items())
            )
            lines.append(f"{pad}  charges: {charged}")
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


@dataclass(frozen=True)
class ShardStats:
    """Pruning statistics one geo-tile shard publishes to the planner.

    Built once at partition time (see :mod:`repro.shard.partition`) and
    held by the coordinator; the scatter stage consults them to skip
    shards that *provably* contribute nothing to a query — the pruning
    predicates below are sound, never lossy, so pruning cannot change a
    result, only the fan-out width.  ``term_dfs`` and ``text_docs``
    additionally feed the distributed tf-idf merge: document frequency
    is summed over **all** shards (pruned ones included), so ranking
    scores stay bit-identical to serial regardless of pruning.
    """

    shard_id: int
    n_images: int
    #: Union MBR of every FOV *and* every camera point in the shard
    #: (augmented images have no FOV row but still carry a camera
    #: point); ``None`` for an empty shard.
    bounds: BoundingBox | None
    #: Documents in the shard's inverted index.
    text_docs: int
    #: term -> document frequency within this shard.
    term_dfs: dict
    #: temporal field -> (min, max) over the shard's images.
    time_ranges: dict
    #: annotation type_id -> annotation count within this shard.
    annotation_types: dict
    #: Extractor names with vectors indexed in this shard.
    extractors: tuple


def survival_test(query: object, type_ids_of=None) -> Callable[[ShardStats], bool]:
    """``query``'s pruning predicate over a non-empty shard's stats:
    could the query possibly match anything there?

    What depends on the query alone — its tokens, its bounding region,
    its resolved type ids — is worked out here, once, not per shard.
    ``type_ids_of`` maps a :class:`CategoricalQuery` to its resolved
    annotation type ids (resolution needs the catalog, which lives with
    the coordinator); without it categorical queries conservatively
    survive.  Every predicate is an over-approximation: ``False`` means
    *provably empty*, ``True`` merely *cannot rule out*.
    """
    if isinstance(query, SpatialQuery):
        region = query.bounding_region()
        return lambda s: s.bounds is not None and s.bounds.intersects(region)
    if isinstance(query, TemporalQuery):
        lo = query.start if query.start is not None else float("-inf")
        hi = query.end if query.end is not None else float("inf")

        def overlaps(s: ShardStats) -> bool:
            window = s.time_ranges.get(query.field)
            return window is not None and window[0] <= hi and lo <= window[1]

        return overlaps
    if isinstance(query, TextualQuery):
        terms = set(tokenize(query.text))
        if not terms:
            return lambda s: False
        every = all if query.match == "all" else any
        return lambda s: every(s.term_dfs.get(term, 0) > 0 for term in terms)
    if isinstance(query, CategoricalQuery):
        if type_ids_of is None:
            return lambda s: True
        type_ids = type_ids_of(query)
        return lambda s: any(s.annotation_types.get(t, 0) > 0 for t in type_ids)
    if isinstance(query, VisualQuery):
        return lambda s: query.extractor_name in s.extractors
    if isinstance(query, HybridQuery):
        fused = query.fused_pair()
        parts = [survival_test(sub, type_ids_of) for sub in fused or query.queries]
        # Fused path: one spatial_visual_topk scan per shard, so the
        # shard is needed only when both filters could match.  General
        # hybrids scatter each part independently (top-k parts are
        # order-sensitive to their full candidate pool, so per-part
        # pruning must not be narrowed by sibling parts): the shard is
        # needed when *any* part needs it.
        every = all if fused is not None else any
        return lambda s: every(part(s) for part in parts)
    raise QueryError(f"cannot prune for query type {type(query).__name__}")


def prune_shards(
    stats: list[ShardStats], query: object, type_ids_of=None
) -> list[ShardStats]:
    """The shards ``query`` must scatter to (ascending shard id): the
    non-empty ones its :func:`survival_test` cannot rule out."""
    survives = survival_test(query, type_ids_of)
    return sorted(
        (s for s in stats if s.n_images and survives(s)),
        key=lambda s: s.shard_id,
    )


def _plan_node(platform: TVDP, query: object) -> QueryPlan:
    if isinstance(query, SpatialQuery):
        details = {"mode": query.mode}
        if query.direction_deg is not None:
            details["direction_filter"] = (
                f"{query.direction_deg:.0f}deg +/- {query.direction_tolerance_deg:.0f}"
            )
        if query.mode == "camera":
            # A camera inside the region already makes the FOV intersect
            # it: the point columns answer without a refine.
            path = "columns.camera_scan"
            details["refine"] = "none"
        else:
            # MBR-overlaps-region on the columns, then the exact sector
            # predicate on the survivors.
            path = "columns.scene_scan"
            details["refine"] = "fov_sector"
        return QueryPlan("spatial", path, details, cost=cost_annotation("spatial"))
    if isinstance(query, VisualQuery):
        details = {"extractor": query.extractor_name, "k": query.k}
        if query.max_distance is not None:
            details["radius"] = query.max_distance
            return QueryPlan(
                "visual", "lsh.query_radius", details, cost=cost_annotation("visual")
            )
        return QueryPlan(
            "visual",
            "lsh.query_topk (exhaustive fallback)",
            details,
            cost=cost_annotation("visual"),
        )
    if isinstance(query, CategoricalQuery):
        return QueryPlan(
            "categorical",
            "columns.label_scan",
            {
                "classification": query.classification,
                "labels": ",".join(query.labels),
                "min_confidence": query.min_confidence,
            },
            cost=cost_annotation("categorical"),
        )
    if isinstance(query, TextualQuery):
        return QueryPlan(
            "textual",
            f"inverted_index.scores[{query.match}]",
            {"terms": query.text},
            cost=cost_annotation("textual"),
        )
    if isinstance(query, TemporalQuery):
        return QueryPlan(
            "temporal",
            f"images.ordered_index[{query.field}]",
            {"field": query.field, "start": query.start, "end": query.end},
            cost=cost_annotation("temporal"),
        )
    if isinstance(query, HybridQuery):
        children = tuple(_plan_node(platform, sub) for sub in _child_queries(query))
        fused = query.fused_pair()
        if fused is not None:
            return QueryPlan(
                "hybrid",
                "columns.filter_then_rank (region filter, then exact top-k)",
                {"extractor": fused[1].extractor_name, "k": fused[1].k},
                children=children,
                cost=cost_annotation("hybrid"),
            )
        return QueryPlan(
            "hybrid",
            "intersect(sub-results)",
            {"parts": len(children)},
            children=children,
            cost=cost_annotation("hybrid"),
        )
    raise QueryError(f"cannot plan query type {type(query).__name__}")


def _child_queries(query: HybridQuery) -> tuple:
    """Sub-queries in the order their plan-node children appear: the
    fused spatial-visual path normalizes to (spatial, visual)."""
    return query.fused_pair() or tuple(query.queries)


def _measured_execute(
    platform: TVDP, query: object
) -> tuple[int, float, dict[str, float], dict[str, float]]:
    """Execute ``query``, never from the answer cache and without
    filling it; (rows, elapsed_ms, probe-counter deltas, ledger-charge
    deltas).

    The counter deltas are whole-registry increments during the run —
    on a quiet process that is exactly the query's own probe work; the
    platform is single-writer per request, so concurrent traffic can
    only over-attribute, never crash.  The run is a unit of work of its
    own (``obs.Unit``), folded when it ends, so what a record
    implies — ``platform.queries``, ``spans.total`` — is among the
    deltas even under an API request whose own record folds later.  The
    charge deltas come from a ledger scoped to this one execution, so
    they are exact regardless of concurrent traffic.  Under an enclosing
    ledger that one is private and its charges are replayed into the
    enclosing one afterwards, so EXPLAIN ANALYZE under an API request
    still bills the requesting principal; with none it is the unit's
    bill (CLI tour, notebooks): ``local`` work, as a bare
    ``platform.execute`` would have billed it — the analyze run *is*
    load.
    """
    registry = obs.metrics()
    outer = accounting.active_ledger()
    before = registry.counter_values()
    # analyze=True reports the real execution time; elapsed_ms is
    # display metadata, not result data.
    start = time.perf_counter()  # devtools: allow[determinism] — see above
    with obs.Unit(obs.records()), accounting.ledger_scope(
        table=obs.usage() if outer is None else None,
        operation=f"execute.{query_family(query)}",
    ) as measured:
        # Past the answer cache: what is measured is the query's work.
        answer = platform._answer(query, None)
    elapsed_ms = (time.perf_counter() - start) * 1000.0  # devtools: allow[determinism] — see above
    after = registry.counter_values()
    deltas = {
        name: value - before.get(name, 0.0)
        for name, value in after.items()
        if value - before.get(name, 0.0)
    }
    charges = dict(measured.charges)
    if outer is not None:
        for kind, amount in charges.items():
            outer.add(kind, amount)
    return len(answer), elapsed_ms, deltas, charges


def _analyze_node(platform: TVDP, query: object, plan: QueryPlan) -> QueryPlan:
    """Re-build ``plan`` with per-node rows/time/probe deltas filled."""
    children = plan.children
    if isinstance(query, HybridQuery) and children:
        children = tuple(
            _analyze_node(platform, sub, child)
            for sub, child in zip(_child_queries(query), plan.children)
        )
    rows, elapsed_ms, deltas, charges = _measured_execute(platform, query)
    return QueryPlan(
        query_type=plan.query_type,
        access_path=plan.access_path,
        details=plan.details,
        children=children,
        rows=rows,
        elapsed_ms=elapsed_ms,
        counter_deltas=deltas,
        charges=charges,
        shape=query_shape(query),
        cost=plan.cost,
    )


def explain(platform: TVDP, query: object, analyze: bool = False) -> QueryPlan:
    """Access-path plan for ``query``; ``analyze=True`` also executes it
    and fills in actual row counts, elapsed times, and probe-counter
    deltas on every node (hybrid children are executed stand-alone to
    attribute their cost — see the module docstring)."""
    plan = _plan_node(platform, query)
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
