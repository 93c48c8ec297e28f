"""The unit of work and its record: what closes into a unit, what the
record says, what the ring keeps, and that ``reset`` zeroes every view."""

import pytest

from repro import obs
from repro.obs.accounting import charge, ledger_scope
from repro.obs.metrics import MetricsRegistry
from repro.obs.record import RecordStore, RequestRecord, Unit, current_unit
from repro.obs.tracing import Tracer


@pytest.fixture()
def store():
    return RecordStore(registry=MetricsRegistry())


class TestUnitsOfWork:
    def test_the_outermost_span_is_the_unit_and_inner_spans_close_into_it(self, store):
        tracer = Tracer(store)
        with tracer.span("outer"):
            unit = current_unit()
            with tracer.span("inner"):
                assert current_unit() is unit
            assert store.records() == []  # nothing folds before the root closes
        assert current_unit() is None
        [record] = store.records()
        assert [span.name for span in record.spans] == ["inner", "outer"]
        assert record.principal is None and record.queries == ()

    def test_a_billable_ledger_inside_a_span_is_the_units_bill(self, store):
        with Tracer(store).span("client.request") as root:
            with ledger_scope(table=store, principal="key:abcd", operation="op"):
                charge("rows_scanned", 3)
        [record] = store.records()
        assert (record.principal, record.operation) == ("key:abcd", "op")
        assert record.charges == {"rows_scanned": 3.0} and record.cost == 3.0
        assert record.trace_id == root.trace_id

    def test_a_private_ledger_is_nobodys_bill(self, store):
        with Tracer(store).span("work"):
            with ledger_scope() as private:
                charge("rows_scanned", 3)
        assert private.charges == {"rows_scanned": 3.0}
        assert store.records()[0].principal is None
        assert store.report()["by_principal"] == []

    def test_a_unit_of_its_own_folds_first_and_keeps_the_trace(self, store):
        tracer = Tracer(store)
        with tracer.span("http.request") as outer:
            with Unit(store):
                with tracer.span("query.spatial") as inner:
                    pass
            assert [r.spans[0].name for r in store.records()] == ["query.spatial"]
        assert inner.trace_id == outer.trace_id and inner.parent_id == outer.span_id
        assert [len(r.spans) for r in store.records()] == [1, 1]
        assert len(obs.span_tree(store.spans(trace_id=outer.trace_id))) == 1

    def test_a_query_noted_outside_any_unit_folds_at_once(self):
        obs.reset()
        obs.note_query("temporal(start)", "temporal", 2.0)
        assert obs.records().top() == [
            {"shape": "temporal(start)", "count": 1, "total_ms": 2.0,
             "mean_ms": 2.0, "max_ms": 2.0, "last_ms": 2.0}
        ]
        counters = obs.metrics().counter_values()
        assert counters['platform.queries{family="temporal"}'] == 1.0
        obs.reset()


class TestTheFold:
    def test_a_batch_splits_its_bill_evenly_over_its_queries(self, store):
        store.fold(RequestRecord(
            principal="local", operation="execute.batch", trace_id="t1",
            charges={"rows_scanned": 9.0}, cost=9.0, duration_ms=3.0,
            queries=(("a", "temporal", 1.0), ("a", "temporal", 1.0), ("b", "textual", 1.0)),
        ))
        rows = {row["key"]: row for row in store.report()["by_shape"]}
        assert (rows["a"]["count"], rows["a"]["cost"]) == (2, 6.0)
        assert rows["a"]["charges"] == {"rows_scanned": 6.0}
        assert (rows["b"]["count"], rows["b"]["cost"]) == (1, 3.0)
        [batch] = store.report()["by_operation"]
        assert (batch["count"], batch["cost"]) == (1, 9.0)
        assert {row["shape"]: row["count"] for row in store.top()} == {"a": 2, "b": 1}

    def test_the_ring_keeps_what_can_be_looked_up_and_evicts_the_oldest(self):
        class TwoRecords(RecordStore):
            RECORDS = 2

        ring = TwoRecords()
        for n in range(3):
            ring.fold(RequestRecord(request_id=f"req-{n}"))
            ring.record("shape", 1.0)  # no spans, no request: counted, not kept
        assert [r.request_id for r in ring.records()] == ["req-1", "req-2"]
        assert ring.request("req-0") is None
        assert ring.request("req-2").request_id == "req-2"
        assert ring.top()[0]["count"] == 3

    def test_reset_zeroes_every_view_and_cached_handles_survive(self, store):
        cached = store.registry.counter("spans.total", {"span": "http.request"})
        tracer = Tracer(store)

        def one_request() -> None:
            with ledger_scope(table=store, principal="p", operation="GET /x", shape="s"):
                with tracer.span("http.request"):
                    charge("rows_scanned", 1)

        one_request()
        assert cached.value == 1.0
        store.registry.reset()
        store.reset()
        assert store.report() == {
            "by_principal": [], "by_shape": [], "by_operation": [],
            "budget": None, "rolling_cost": {}, "would_shed": [],
        }
        assert store.top() == [] and store.tracked() == (0, 0)
        assert store.slowest() == [] and store.operations() == []
        assert store.window() == {} and store.records() == []
        assert cached.value == 0.0
        one_request()
        assert cached.value == 1.0  # the same handle the fold interned
        assert store.registry.counter_values()['usage.requests{principal="p"}'] == 1.0

    def test_to_dict_is_json_compatible_and_complete(self, store):
        import json

        with ledger_scope(table=store, principal="p"):
            with Tracer(store).span("work", k=5):
                store.registry.counter("index.probes").inc(2)
                obs.note_query("shape", "temporal", 0.5)
        body = store.records()[0].to_dict()
        json.dumps(body)
        assert set(body) == {
            "request_id", "method", "route", "status", "error", "request_ms",
            "trace_id", "principal", "operation", "charges", "cost", "queries",
            "spans", "duration_ms", "counter_deltas",
        }
        assert body["queries"] == [{"shape": "shape", "family": "temporal", "ms": 0.5}]
        assert body["counter_deltas"] == {"index.probes": 2.0}
        assert body["spans"][0]["attrs"] == {"k": 5}
