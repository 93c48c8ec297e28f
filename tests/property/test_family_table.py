"""The family table against the code it replaced, and against itself.

* Oracles: the serial runners each family had before execution became
  one table (``LSHIndex.query_topk``, ``query_radius(...)[:k]``,
  ``AnnotationService.best_confidence``, the inverted index's own idf)
  answer every drawn query as the table does, serially and on four
  shards — ids, order and bit-identical scores.  With serial and
  sharded execution sharing one leaf, the equivalence suite alone could
  no longer see a change to serial semantics.
* The visual top-k's exhaustive fallback is one rule: it is counted
  once and charged the same on one shard and on four.
* EXPLAIN ANALYZE reports what the request's spans recorded: the
  access path of the query and of a general hybrid's parts, serial and
  sharded, whether a visual top-k fell back, and each part's rows —
  those of the part's own answer.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import (
    HybridQuery,
    SpatialQuery,
    TemporalQuery,
    TextualQuery,
    VisualQuery,
    explain,
)
from repro.core.families import prepare_visual
from repro.core.queries import Answer, CategoricalQuery, combine_hybrid
from repro.geo import BoundingBox
from repro.index.inverted import tokenize
from repro.index.ordering import by_score
from repro.obs import accounting
from tests.shard.test_equivalence import (
    LATS,
    LNGS,
    build_platform,
    catalogs,
    make_queries,
    query_params,
)

EXTRACTOR = "pixel_probe"


def oracle(platform, query) -> Answer:
    """The serial runners as they were, one per family."""
    if isinstance(query, SpatialQuery):
        return Answer(platform.slice.spatial_ids(query).tolist())
    if isinstance(query, VisualQuery):
        vector = prepare_visual(query, platform)
        lsh = platform.slice.lsh(query.extractor_name)
        if query.max_distance is not None:
            pairs = lsh.query_radius(vector, query.max_distance)[: query.k]
        else:
            pairs = lsh.query_topk(vector, query.k)
        return Answer.nearest_first(pairs)
    if isinstance(query, CategoricalQuery):
        ids, best = platform.annotations.best_confidence(
            query.classification, query.labels, query.min_confidence, query.source
        )
        return Answer(ids.tolist(), best.tolist())
    if isinstance(query, TextualQuery):
        terms = tokenize(query.text)
        return Answer(*by_score(*platform.slice.text.scores(terms, query.match)))
    if isinstance(query, TemporalQuery):
        return Answer(platform.slice.temporal_ids(query).tolist())
    fused = query.fused_pair()
    if fused is not None:
        spatial, visual = fused
        vector = prepare_visual(visual, platform)
        pairs = platform.slice.spatial_visual_topk(
            visual.extractor_name, spatial.bounding_region(), vector, visual.k
        )
        if visual.max_distance is not None:
            pairs = [(i, d) for i, d in pairs if d <= visual.max_distance]
        return Answer.nearest_first(pairs)
    return combine_hybrid([oracle(platform, sub) for sub in query.queries])


def drawn_queries(params: dict, k: int) -> list:
    """The equivalence suite's queries with ``k`` for the visual ones —
    drawn past the catalog's size, so some top-ks fall back — plus
    general hybrids that hold a visual top-k, one of them two."""
    params = dict(params, k=k)
    vector = np.asarray(params["probe_levels"], dtype=np.float64)
    topk = VisualQuery(EXTRACTOR, vector=vector, k=k)
    window = TemporalQuery(start=float(min(params["t_window"])), end=20.0)
    everywhere = SpatialQuery(region=BoundingBox(34.0, -118.4, 34.2, -118.2))
    return make_queries(params) + [
        HybridQuery(queries=(window, topk)),
        HybridQuery(queries=(everywhere, topk, VisualQuery(EXTRACTOR, vector=vector[::-1], k=2))),
    ]


def serial_and_four_shards(platform):
    """The platform on one shard, then on four."""
    try:
        for shards in (1, 4):
            platform.set_shards(shards)
            yield shards
    finally:
        platform.close()


def same_answer(got: Answer, want: Answer) -> None:
    assert got.ids == want.ids
    assert [repr(s) for s in got.scores or ()] == [repr(s) for s in want.scores or ()]


@settings(max_examples=25, deadline=None)
@given(specs=catalogs, params=query_params, k=st.integers(1, 20))
def test_every_family_answers_as_its_old_serial_runner(specs, params, k):
    platform = build_platform(specs)
    queries = drawn_queries(params, k)
    expected = [oracle(platform, query) for query in queries]
    for _ in serial_and_four_shards(platform):
        for query, want in zip(queries, expected):
            same_answer(platform._answer(query, None), want)


def run_recorded(platform, query) -> tuple[Answer, list]:
    """``query`` answered as a request answers it, past the answer
    cache, and the spans the run recorded (its own last)."""
    with obs.Unit(obs.records()) as unit:
        answer = platform._answer(query, None)
    return answer, list(unit.spans)


@settings(max_examples=25, deadline=None)
@given(specs=catalogs, params=query_params, k=st.integers(1, 20))
def test_explain_analyze_reports_what_the_spans_recorded(specs, params, k):
    platform = build_platform(specs)
    queries = drawn_queries(params, k)
    for shards in serial_and_four_shards(platform):
        for query in queries:
            _, spans = run_recorded(platform, query)
            plan = explain(platform, query, analyze=True)
            if shards > 1:
                (plan,) = plan.children
            own, parts = spans[-1], [s for s in spans[:-1] if s.name.startswith("query.")]
            assert own.name == f"query.{plan.query_type}"
            # The query's own span, and a general hybrid's one child span
            # per part at any shard count, against the nodes EXPLAIN gives them.
            general = isinstance(query, HybridQuery) and query.fused_pair() is None
            assert bool(parts) == general
            pairs = [(own, plan)] + (list(zip(parts, plan.children, strict=True)) if parts else [])
            for span, node in pairs:
                assert span.attrs["path"] == node.access_path
                assert span.attrs.get("lsh_fallback") == node.details.get("lsh_fallback")
            # Who decides: a visual top-k, in its own span — a general
            # hybrid's in its part's span, never in the hybrid's.
            children = () if not isinstance(query, HybridQuery) else (
                query.fused_pair() or tuple(query.queries)
            )
            assert ("lsh_fallback" in own.attrs) == topk(query), (shards, query)
            for child, sub in zip(plan.children, children):
                assert ("lsh_fallback" in child.details) == topk(sub)


@settings(max_examples=25, deadline=None)
@given(specs=catalogs, params=query_params, k=st.integers(1, 20))
def test_each_analyzed_part_reads_the_rows_of_its_own_answer(specs, params, k):
    platform = build_platform(specs)
    queries = [
        query for query in drawn_queries(params, k)
        if isinstance(query, HybridQuery) and query.fused_pair() is None
    ]
    assert queries
    for shards in serial_and_four_shards(platform):
        for query in queries:
            plan = explain(platform, query, analyze=True)
            if shards > 1:
                (plan,) = plan.children
            assert [node.rows for node in plan.children] == [
                len(platform.answer(part)) for part in query.queries
            ], (shards, query)


def topk(query) -> bool:
    return isinstance(query, VisualQuery) and query.max_distance is None


def fallback_cost(platform, query) -> tuple[float, float, float, int]:
    """``(fallback_scans, candidates, probes.lsh, indexed rows)`` of one
    analyzed run of ``query``."""
    plan = explain(platform, query, analyze=True)
    node = plan.children[0] if plan.query_type == "scatter_gather" else plan
    deltas = node.counter_deltas
    return (
        deltas.get("index.lsh.fallback_scans", 0),
        deltas.get("index.lsh.candidates", 0),
        node.charges.get("probes.lsh", 0),
        len(platform.slice.lsh(EXTRACTOR)),
    )


def test_a_fallback_is_counted_and_charged_alike_on_one_shard_and_four():
    specs = [
        {
            "lat": lat, "lng": lng, "t": n, "direction": 0.0,
            "levels": (0.25 + 0.25 * (n % 3), 0.5, 0.25), "delta": 0.001 * n,
            "keywords": [], "annotation": None,
        }
        for n, (lat, lng) in enumerate(
            [(lat, lng) for lat in LATS for lng in LNGS] * 2
        )
    ]
    platform = build_platform(specs)
    assert len(platform.slice.lsh(EXTRACTOR)) == 40
    query = VisualQuery(EXTRACTOR, vector=np.array([0.5, 0.5, 0.5]), k=45)
    costs = {shards: fallback_cost(platform, query) for shards in serial_and_four_shards(platform)}
    for shards, (scans, candidates, probes, indexed) in costs.items():
        assert scans == 1, shards
        assert probes == candidates + indexed, shards
    assert costs[1] == costs[4]


def test_plain_explain_runs_nothing_and_renders_an_unknown_label():
    platform = build_platform(
        [
            {
                "lat": lat, "lng": lng, "t": n, "direction": 0.0, "levels": (0.5, 0.5, 0.5),
                "delta": 0.001 * n, "keywords": ["lamp"], "annotation": ("clean", 0.9, "human"),
            }
            for n, (lat, lng) in enumerate((lat, lng) for lat in LATS for lng in LNGS)
        ]
    )
    example = VisualQuery(EXTRACTOR, example=platform.image(1), k=3)
    unknown = CategoricalQuery("condition", ("no-such-label",))
    for shards in serial_and_four_shards(platform):
        platform.execute(TemporalQuery(start=0.0))  # the partition, built outside
        with accounting.ledger_scope() as ledger:
            plans = [explain(platform, query) for query in (example, unknown)]
        assert ledger.charges == {}, shards
        assert "labels=no-such-label" in plans[1].render()
