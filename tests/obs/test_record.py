"""The unit of work and its record: what closes into a unit, what the
record says, what the ring keeps, and that ``reset`` zeroes every view;
that the records a view points at stay reachable, and that the registry
series read off the rows count what a push per request would have."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs.accounting import charge, ledger_scope
from repro.obs.metrics import MetricsRegistry
from repro.obs.record import RecordStore, RequestRecord, Unit, current_unit
from tests.api import route_table


@pytest.fixture()
def store():
    """The process-wide store, where ``obs.span`` folds."""
    obs.reset()
    yield obs.records()
    obs.reset()


class TestUnitsOfWork:
    def test_the_outermost_span_is_the_unit_and_inner_spans_close_into_it(self, store):
        with obs.span("outer"):
            unit = current_unit()
            with obs.span("inner"):
                assert current_unit() is unit
            assert store.records() == []  # nothing folds before the root closes
        assert current_unit() is None
        [record] = store.records()
        assert [span.name for span in record.spans] == ["inner", "outer"]
        assert record.principal is None and record.queries == ()

    def test_a_billable_ledger_inside_a_span_is_the_units_bill(self, store):
        with obs.span("client.request") as root:
            with ledger_scope(table=store, principal="key:abcd", operation="op"):
                charge("rows_scanned", 3)
        [record] = store.records()
        assert (record.principal, record.operation) == ("key:abcd", "op")
        assert record.charges == {"rows_scanned": 3.0} and record.cost == 3.0
        assert record.trace_id == root.trace_id

    def test_a_private_ledger_is_nobodys_bill(self, store):
        with obs.span("work"):
            with ledger_scope() as private:
                charge("rows_scanned", 3)
        assert private.charges == {"rows_scanned": 3.0}
        assert store.records()[0].principal is None
        assert store.report()["by_principal"] == []

    def test_a_unit_of_its_own_folds_first_and_keeps_the_trace(self, store):
        with obs.span("http.request") as outer:
            with Unit(store):
                with obs.span("query.spatial") as inner:
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

        def one_request() -> None:
            with ledger_scope(table=store, principal="p", operation="GET /x", shape="s"):
                with obs.span("http.request"):
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
            with obs.span("work", k=5):
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


class TestRecordsStayReachable:
    """The store keeps a tail of records, the span rows' worst-N and
    their last failures: what ``/debug/request`` and ``/debug/trace`` are
    asked about stays there however much traffic follows."""

    LATER = 5_000

    @pytest.fixture()
    def table(self):
        harness = route_table.harness()
        harness.service.router.add("POST", "/raises", lambda request: 1 / 0)
        obs.reset()
        yield harness
        obs.reset()

    def _later_traffic(self, table) -> None:
        body = {"type": "temporal", "start": 0.0}
        for _ in range(self.LATER):
            assert table.call("POST", "/search", body).status == 200

    def test_a_request_that_returned_a_500_still_resolves(self, table):
        # Every worst-N slot holds a span no real one outlasts, so the
        # failed request is kept as a failure and not as an exemplar.
        for n in range(obs.RecordStore.SLOW_PER_OP):
            slow = obs.Span("http.request", "t-slow", f"s-{n}", None, duration_ms=1e12)
            obs.records().fold(RequestRecord(spans=(slow,)))
        failed = table.call("POST", "/raises", {})
        assert failed.status == 500
        self._later_traffic(table)
        request_id = failed.body["error"]["request_id"]
        found = table.call("GET", f"/debug/request/{request_id}")
        assert found.status == 200
        assert (found.body["status"], found.body["request_id"]) == (500, request_id)
        trace = table.call("GET", f"/debug/trace/{found.body['trace_id']}")
        assert trace.status == 200

    def test_every_slow_exemplar_still_resolves(self, table):
        self._later_traffic(table)
        slow = table.call("GET", "/debug/slow").body["slow"]
        assert slow
        for exemplar in slow:
            assert table.call("GET", f"/debug/trace/{exemplar['trace_id']}").status == 200
            request_id = exemplar["attrs"].get("request_id")
            if request_id is not None:
                found = table.call("GET", f"/debug/request/{request_id}")
                assert found.status == 200 and found.body["trace_id"] == exemplar["trace_id"]

    def test_a_plain_request_older_than_the_tail_is_404(self, table):
        # The worst-N slots are full of slower spans: the old request is
        # nobody's exemplar, and it did not fail.
        for name in ("http.request", "query.temporal"):
            for n in range(obs.RecordStore.SLOW_PER_OP):
                slow = obs.Span(name, "t-slow", f"s-{name}-{n}", None, duration_ms=1e12)
                obs.records().fold(RequestRecord(spans=(slow,)))
        assert table.call("POST", "/search", {"type": "temporal", "start": 0.0}).status == 200
        request_id = obs.records().records()[-1].request_id
        for _ in range(obs.RecordStore.RECORDS):
            table.call("POST", "/search", {"type": "temporal", "start": 0.0})
        response = table.call("GET", f"/debug/request/{request_id}")
        assert response.status == 404
        assert response.body["error"]["message"] == (
            f"request {request_id!r} not in the ring buffer (evicted or unknown)"
        )


FAMILIES = ("spatial", "visual", "temporal")
#: More distinct keys than a two-row rollup can hold: most rows get pruned.
SHAPES = [(f"{FAMILIES[n % 3]}(n={n})", FAMILIES[n % 3]) for n in range(120)]
PRINCIPALS = [f"key:{n:04d}" for n in range(120)]
ROUTES = [("GET", f"/r{n}") for n in range(6)]

_unit = st.tuples(
    st.lists(st.tuples(st.sampled_from(["http.request", "query.a", "query.b"]),
                       st.booleans()), max_size=3),
    st.lists(st.sampled_from(SHAPES), max_size=3),
    st.one_of(st.none(), st.sampled_from(PRINCIPALS)),
    st.one_of(st.none(), st.tuples(st.sampled_from(ROUTES), st.sampled_from([200, 404, 500]))),
    st.dictionaries(st.sampled_from(["rows_scanned", "probes.lsh", "probes.rtree"]),
                    st.integers(1, 9), max_size=3),
)


def _pushed(model: dict, spans, queries, principal, route, charges) -> None:
    """What the fold used to push into the registry for one unit."""
    def inc(key: str, amount: float = 1.0) -> None:
        model[key] = model.get(key, 0.0) + amount

    for name, failed in spans:
        inc(f'spans.total{{span="{name}"}}')
        inc(f'spans.errors{{span="{name}"}}', float(failed))
    for _, family in queries:
        inc(f'platform.queries{{family="{family}"}}')
    if principal is not None:
        labels = f'{{principal="{principal}"}}'
        inc(f"usage.requests{labels}")
        inc(f"usage.cost{labels}", float(sum(charges.values())))
        inc(f"usage.would_shed{labels}", 0.0)
        for kind, amount in charges.items():
            name = "usage.index_probes" if kind.startswith("probes.") else f"usage.{kind}"
            inc(f"{name}{labels}", float(amount))
    if route is not None:
        (method, path), status = route
        inc(f'api.requests{{method="{method}",route="{path}",status="{status}"}}')


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    drawn=st.lists(_unit, min_size=1, max_size=200),
    order=st.permutations(range(len(SHAPES))),
)
def test_series_read_off_pruned_rows_never_decrease_and_count_every_push(drawn, order):
    """Every rollup holds two rows: almost every row a unit touches is
    pruned again, and its series live on in the rollup's remainder.  The
    drawn units are interleaved with a sweep that sends every shape and
    every principal once, in a drawn order, so more than a hundred keys
    of each pass through two rows."""
    store = RecordStore(registry=MetricsRegistry())
    for rollup in store._by.values():
        rollup.capacity = 2
    sweep = [
        ([], [SHAPES[at]], PRINCIPALS[at], None, {"rows_scanned": 1}) for at in order
    ]
    units = [unit for pair in zip(sweep, drawn) for unit in pair]
    units += sweep[len(drawn):] + drawn[len(sweep):]
    model: dict[str, float] = {}
    last: dict[str, float] = {}
    for n, (spans, queries, principal, route, charges) in enumerate(units):
        store.fold(RequestRecord(
            request_id=f"req-{n}", method=route and route[0][0],
            route=route and route[0][1], status=route and route[1],
            principal=principal, charges=dict(charges),
            cost=float(sum(charges.values())) if principal else 0.0,
            queries=tuple((shape, family, 1.0) for shape, family in queries),
            spans=tuple(
                obs.Span(name, "t", f"s{n}.{i}", None, duration_ms=1.0,
                         status="error" if failed else "ok")
                for i, (name, failed) in enumerate(spans)
            ),
        ))
        _pushed(model, spans, queries, principal, route, charges)
        scraped = store.registry.counter_values()
        for key, value in last.items():
            assert scraped[key] >= value, key
        assert scraped == model
        last = scraped
    assert store._by["shape"].evicted > 100 and store._by["principal"].evicted > 100
