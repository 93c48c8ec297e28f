"""The ``repro.obs`` calls the pinned benchmark makes, made here.

``bench/`` may not change with the program (``BENCHMARK.json``), so a
refactor that renames or re-shapes one of these breaks the benchmark
silently — ``trace.dispatch`` swallowed the ``TypeError`` when
``set_shards(pool=...)`` went.  Each test makes one of
``bench/trace.py``'s calls exactly as it is written there and checks
what the benchmark reads off it.
"""

import contextlib
import os
import sys

import pytest

from repro import obs
from repro.core import explain
from tests.api import route_table

#: ``bench/trace.py::CANDIDATE_COUNTER``.
CANDIDATE_COUNTER = {
    "spatial": "index.oriented.candidates",
    "visual": "index.lsh.candidates",
    "textual": "index.inverted.postings_scanned",
    "hybrid": "index.visual_rtree.heap_pops",
}


@pytest.fixture(autouse=True)
def clean_metrics():
    obs.reset()
    yield
    obs.reset()


def _moved(before: dict, after: dict) -> dict:
    return {k: v - before.get(k, 0.0) for k, v in after.items() if v != before.get(k, 0.0)}


class TestUnitCosts:
    """``TracedRun.unit_costs``: one call of each primitive."""

    def test_one_span(self):
        registry = obs.metrics()
        before = registry.counter_values()
        with obs.span("bench.unit"):
            pass
        assert _moved(before, registry.counter_values()) == {
            'spans.total{span="bench.unit"}': 1.0
        }

    def test_one_ledger(self):
        with obs.ledger_scope(table=obs.usage(), principal="bench"):
            pass
        [row] = obs.usage().report()["by_principal"]
        assert (row["key"], row["count"]) == ("bench", 1)

    def test_one_counter(self):
        registry = obs.metrics()
        registry.counter("bench.unit", {"k": "v"}).inc()
        assert registry.counter_values()['bench.unit{k="v"}'] == 1.0

    def test_one_hot_record(self):
        obs.hot_queries().record("bench(unit)", 1.0)
        [row] = obs.hot_queries().top()
        assert (row["shape"], row["count"], row["total_ms"]) == ("bench(unit)", 1, 1.0)


@pytest.mark.parametrize("shards", [1, 4])
def test_a_search_is_two_spans_and_moves_the_counters_the_trace_reads(shards):
    """``obs.spans_per_request`` is the ``spans.total`` that moved over
    one ``POST /search``; ``api.errors`` is summed by prefix at the end."""
    h = route_table.harness(shards=shards)
    h.call("POST", "/search", route_table.query_body("temporal"))  # partition
    registry = obs.metrics()
    for family in ("spatial", "visual", "categorical", "textual", "temporal", "hybrid"):
        before = registry.counter_values()
        assert h.call("POST", "/search", route_table.query_body(family)).status == 200
        changed = _moved(before, registry.counter_values())
        spans = {k: v for k, v in changed.items() if k.startswith("spans.total")}
        assert spans == {
            'spans.total{span="http.request"}': 1.0,
            f'spans.total{{span="query.{family}"}}': 1.0,
        }
    assert h.call("POST", "/search", {"type": "warp"}).status == 400
    errors = {
        k: v for k, v in registry.counter_values().items()
        if k.startswith("api.errors") and v
    }
    assert errors == {'api.errors{exception="APIError",route="/search"}': 1.0}


@pytest.mark.parametrize("shards", [1, 4])
def test_explain_analyze_reads_as_the_counts_pass_reads_it(shards):
    """``TracedRun.counts``: ``rows`` / ``charges`` / ``elapsed_ms`` /
    ``counter_deltas`` of the analyzed node, under the scatter node on
    a sharded platform, and the counters ``moved()`` is asked for."""
    h = route_table.harness(shards=shards)
    platform = h.service.platform
    registry = obs.metrics()
    before = registry.counter_values()
    for family in ("spatial", "visual", "textual"):
        query = route_table.schema.QUERY(route_table.query_body(family))
        assert (platform.shard_plan_preview(query) is None) == (shards == 1)
        node = explain(platform, query, analyze=True)
        if node.query_type == "scatter_gather":
            node = node.children[0]
        assert shards == 1 or node is not None
        assert node.rows is not None and node.elapsed_ms >= 0.0
        assert isinstance(node.charges.get("rows_scanned", 0), (int, float))
        assert node.counter_deltas.get(CANDIDATE_COUNTER[family], 0) >= 0
        assert node.counter_deltas[f'platform.queries{{family="{family}"}}'] == 1
    after = registry.counter_values()
    assert set(CANDIDATE_COUNTER.values()) <= set(after)  # the names are live
    if shards > 1:
        assert after["shard.fanouts"] - before.get("shard.fanouts", 0.0) > 0
    for counter in ('resilience.retries{site="shard.dispatch"}', "shard.partial_results"):
        assert after.get(counter, 0.0) - before.get(counter, 0.0) == 0.0


# -- what a request's envelope does, counted -----------------------------------------
#
# A timing gate on the envelope would flap on a shared runner; these are
# counts of what one selective ``POST /search`` makes the interpreter do,
# which repeat exactly.  Each is pinned at what it is today, so a change
# that puts a route scan, a generator-based scope or a second float-state
# guard back on the request path fails here and not in a benchmark.

_FAMILIES = ("spatial", "visual", "categorical", "textual", "temporal", "hybrid")


def _counted(call) -> dict:
    """Run ``call`` and count, on this thread: plain-lock and re-entrant
    lock releases (one per acquisition), generator-based context
    managers entered, numpy float-error-state guards entered (``with
    np.errstate`` and its decorator form alike), ``_match`` calls."""
    from repro.api import http

    generator_enter = contextlib._GeneratorContextManager.__enter__.__code__
    match = http._match.__code__
    counts = dict.fromkeys(("locks", "rlocks", "generator_cms", "errstates", "matches"), 0)

    def profile(frame, event, arg):
        if event == "c_call":
            if arg.__name__ in ("release", "__exit__"):
                kind = type(arg.__self__).__name__
                if kind in ("lock", "RLock"):
                    counts["locks" if kind == "lock" else "rlocks"] += 1
        elif event == "call":
            code = frame.f_code
            if code is generator_enter:
                counts["generator_cms"] += 1
            elif code is match:
                counts["matches"] += 1
            elif code.co_filename.endswith("_ufunc_config.py") and code.co_name in (
                "__enter__", "inner"
            ):
                counts["errstates"] += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return counts


#: Plain-lock acquisitions of one search by family, serial and 4-shard:
#: request id, span ids, the store's lock, one per counter moved (a
#: 4-shard search moves the shard counters too).  This PR takes none
#: away (serial mean 15.8; PR 21 measured 16.0 over a workload's mix).
_LOCKS = {
    1: {"spatial": 15, "visual": 17, "categorical": 17, "textual": 15, "temporal": 12,
        "hybrid": 19},
    4: {"spatial": 18, "visual": 21, "categorical": 20, "textual": 18, "temporal": 15,
        "hybrid": 22},
}


@pytest.mark.skipif(
    os.environ.get("REPRO_SANITIZE") == "1",
    reason="the lock sanitizer wraps every lock in locks of its own",
)
@pytest.mark.parametrize("shards", [1, 4])
def test_what_one_search_makes_the_interpreter_do_is_pinned(shards):
    h = route_table.harness(shards=shards)
    for _ in range(3):  # partition, register the counters, intern the handles
        for family in _FAMILIES:
            h.call("POST", "/search", route_table.query_body(family))
    # A span that enters its operation's worst-N reads the counter deltas
    # of its record (one registry lock): fill every worst-N with spans
    # no real one outlasts, so that what is counted does not depend on
    # how fast this machine happened to be.
    for name in ("http.request", *(f"query.{family}" for family in _FAMILIES)):
        for n in range(obs.RecordStore.SLOW_PER_OP):
            slow = obs.Span(name, "t-slow", f"s-{name}-{n}", None, duration_ms=1e12)
            obs.records().fold(obs.RequestRecord(spans=(slow,)))
    for family in _FAMILIES:
        body = route_table.query_body(family)
        counts = _counted(lambda: h.call("POST", "/search", body))
        assert counts["generator_cms"] == 0, family
        assert counts["matches"] <= 2, family  # was 5: the scan reached /search fifth
        # A query vector's squared norm is taken once, where the query is
        # built (``VisualQuery.sq_norm``); the schema and
        # ``prepare_visual`` both read it.  It was taken twice.
        assert counts["errstates"] <= (1 if family in ("visual", "hybrid") else 0), family
        assert counts["locks"] <= _LOCKS[shards][family], (family, counts)
    # A write cycle is four envelopes: the same two hold of each.
    upload = route_table.example(route_table.schema.ROUTES["POST /images"].body, "")
    for path, body in (
        ("/images", upload | {"image": route_table._image(9, 9, 9)}),
        ("/images/1/annotations", {"classification": "street_cleanliness", "label": "clean"}),
        (f"/features/{route_table.EXTRACTOR}", {"image_id": 1}),
    ):
        counts = _counted(lambda: h.call("POST", path, body))
        assert (counts["generator_cms"], counts["matches"]) == (0, 1), path
