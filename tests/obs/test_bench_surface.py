"""The ``repro.obs`` calls the pinned benchmark makes, made here.

``bench/`` may not change with the program (``BENCHMARK.json``), so a
refactor that renames or re-shapes one of these breaks the benchmark
silently — ``trace.dispatch`` swallowed the ``TypeError`` when
``set_shards(pool=...)`` went.  Each test makes one of
``bench/trace.py``'s calls exactly as it is written there and checks
what the benchmark reads off it.
"""

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
