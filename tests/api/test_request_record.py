"""One request, one record: what the router notes on it, where it can be
looked up, and that every view of many of them — raced — adds up."""

import pytest

from repro import obs
from repro.api import Request
from repro.core import TVDP, SpatialQuery, TemporalQuery, TextualQuery
from repro.geo import BoundingBox
from tests.api import route_table
from tests.racing import run_together


@pytest.fixture(autouse=True)
def clean_metrics():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture()
def table():
    harness = route_table.harness()
    obs.reset()  # the requests that set it up are not the test's
    return harness


def _objective(report: dict, name: str) -> dict:
    [objective] = [o for o in report["objectives"] if o["objective"] == name]
    return objective


class TestServerErrorsBurnTheAvailabilitySLO:
    def test_a_handler_that_raises_fails_health(self, table):
        """The router turns the exception into a 500 *inside* the
        ``http.request`` span; the span is marked all the same, so 20
        failures in 22 requests read as 9 % availability, not 100 %."""
        calls = iter(range(22))

        def flaky(request):
            if next(calls) < 20:
                raise RuntimeError("storage went away")
            return table.service._stats(request)

        table.service.router.add("GET", "/flaky", flaky)
        statuses = [table.call("GET", "/flaky").status for _ in range(22)]
        assert statuses.count(500) == 20 and statuses.count(200) == 2
        report = table.service.handle(Request("GET", "/health")).body
        availability = _objective(report, "api.request.availability")
        assert availability["samples"] == 22
        assert availability["observed"] == pytest.approx(2 / 22, abs=1e-6)
        assert availability["status"] == "failing"
        assert report["status"] == "failing"
        counters = obs.metrics().counter_values()
        assert counters['spans.errors{span="http.request"}'] == 20.0
        [worst] = obs.records().slowest("http.request", limit=1)
        failed = [s for s in obs.records().spans("http.request") if s.status == "error"]
        assert len(failed) == 20
        assert failed[0].error == "RuntimeError: storage went away"
        assert worst["name"] == "http.request"

    def test_a_refused_request_does_not(self, table):
        for _ in range(22):
            assert table.call("POST", "/search", {"type": "warp"}).status == 400
        report = table.service.handle(Request("GET", "/health")).body
        availability = _objective(report, "api.request.availability")
        assert availability["observed"] == 1.0 and availability["status"] == "ok"


class TestDebugRequest:
    def test_an_error_envelopes_request_id_resolves_to_its_record(self, table):
        refused = table.call("POST", "/search", {"type": "warp"})
        error = refused.body["error"]
        found = table.call("GET", f"/debug/request/{error['request_id']}")
        assert found.status == 200
        record = found.body
        assert record["request_id"] == error["request_id"]
        assert record["trace_id"] == error["trace_id"]
        assert (record["method"], record["route"], record["status"]) == (
            "POST", "/search", 400,
        )
        assert record["operation"] == "POST /search" and record["error"] is None
        assert record["principal"].startswith("key:")
        assert [span["name"] for span in record["spans"]] == ["http.request"]
        assert record["spans"][0]["attrs"]["request_id"] == error["request_id"]

    def test_a_search_record_carries_its_query_bill_and_spans(self, table):
        table.call("POST", "/search", route_table.query_body("spatial"))
        record = obs.records().records()[-1].to_dict()
        [query] = record["queries"]
        assert query["family"] == "spatial" and query["shape"].startswith("spatial(")
        assert [span["name"] for span in record["spans"]] == [
            "query.spatial", "http.request",
        ]
        assert 0.0 < query["ms"] <= record["request_ms"] <= record["duration_ms"]
        assert record["cost"] > 0.0 and record["charges"]
        assert any(k.startswith("index.") for k in record["counter_deltas"])
        # What the fold itself wrote is not among the deltas.
        assert not any(k.startswith(("api.", "usage.", "spans.")) for k in record["counter_deltas"])

    def test_a_failed_request_carries_its_error(self, table):
        def broken(request):
            raise KeyError("no such thing")

        table.service.router.add("GET", "/broken", broken)
        response = table.call("GET", "/broken")
        record = table.call(
            "GET", f"/debug/request/{response.body['error']['request_id']}"
        ).body
        assert record["status"] == 500
        assert record["error"] == "KeyError: 'no such thing'"
        assert record["spans"][-1]["status"] == "error"

    def test_unknown_or_evicted_is_404_in_the_trace_routes_words(self, table):
        response = table.call("GET", "/debug/request/req-never")
        assert response.status == 404
        assert (
            response.body["error"]["message"]
            == "request 'req-never' not in the ring buffer (evicted or unknown)"
        )

    def test_requires_an_api_key(self, table):
        response = table.service.handle(Request("GET", "/debug/request/req-000001"))
        assert response.status == 401

    @pytest.mark.parametrize("key", [None, "bad-key-0123456789", ["k"]])
    def test_a_refused_key_is_a_request_of_its_own_billed_to_nobody(self, table, key):
        """The key check is answered inside the request's unit: a 401's
        ids resolve to its record, it counts on ``api.requests`` under
        its route, and its bill — empty — is ``anonymous``'s, never the
        bad key's prefix (a hostile client would mint one series each)."""
        for path, route in (("/stats", "/stats"), ("/nope/7", "<unmatched>")):
            response = table.call("GET", path, api_key=key)
            assert response.status == 401
            error = response.body["error"]
            assert error["trace_id"] is not None
            record = table.call("GET", f"/debug/request/{error['request_id']}").body
            assert record["trace_id"] == error["trace_id"]
            assert (record["method"], record["route"], record["status"]) == ("GET", route, 401)
            assert (record["principal"], record["charges"], record["cost"]) == ("anonymous", {}, 0.0)
            assert [span["name"] for span in record["spans"]] == ["http.request"]
        counters = obs.metrics().counter_values()
        assert counters['api.requests{method="GET",route="/stats",status="401"}'] == 1.0
        assert counters['api.requests{method="GET",route="<unmatched>",status="401"}'] == 1.0
        assert counters['usage.requests{principal="anonymous"}'] == 2.0
        assert not any("key:bad" in name for name in counters)


class TestWindowNeedsItsBudget:
    def test_window_s_alone_is_400_naming_both_fields(self, table):
        response = table.call("GET", "/debug/resources", params={"window_s": "5"})
        assert response.status == 400
        message = response.body["error"]["message"]
        assert "window_s" in message and "budget" in message
        both = table.call("GET", "/debug/resources", params={"window_s": "5", "budget": "1"})
        assert both.status == 200
        assert both.body["budget"] == {
            "cost_per_window": 1.0, "window_s": 5.0, "overridden": True,
        }
        alone = table.call("GET", "/debug/resources", params={"budget": "1"})
        assert alone.body["budget"]["window_s"] == 60.0


class TestQueriesReadTheSameSerialAndSharded:
    QUERIES = [
        TemporalQuery(start=0.0),
        TextualQuery(text="street"),
        SpatialQuery(region=BoundingBox(33.0, -119.0, 35.0, -117.0), mode="camera"),
        TemporalQuery(start=1.0),
    ]

    def _views(self, shards: int) -> tuple[dict, dict, dict]:
        h = route_table.harness(shards=shards)
        h.service.platform.execute(self.QUERIES[0])  # builds the partition, if any
        obs.reset()
        for query in self.QUERIES:
            h.service.platform.execute(query)
        store = obs.records()
        hot = {row["shape"]: row["count"] for row in store.top(64)}
        by_shape = {row["key"]: row for row in store.report(top=None)["by_shape"]}
        return hot, by_shape, store.report(top=None)

    def test_same_shape_keys_counts_and_bills_in_both_views(self):
        serial_hot, serial_by_shape, _ = self._views(1)
        sharded_hot, sharded_by_shape, report = self._views(4)
        assert serial_hot == sharded_hot == {
            "temporal(field=timestamp_capturing,start)": 2,
            "textual(match=any,terms=1)": 1,
            "spatial(mode=camera,region)": 1,
        }
        for by_shape, hot in ((serial_by_shape, serial_hot), (sharded_by_shape, sharded_hot)):
            assert {key: row["count"] for key, row in by_shape.items()} == hot
        # Each query is a unit of work with its own bill: a shape is
        # billed what its queries cost, the serial pass's bill.
        for key, row in sharded_by_shape.items():
            assert row["cost"] == pytest.approx(serial_by_shape[key]["cost"]) and row["cost"] > 0
        operations = {row["key"]: row for row in report["by_operation"]}
        assert {key: row["count"] for key, row in operations.items()} == {
            "execute.temporal": 2, "execute.textual": 1, "execute.spatial": 1,
        }
        assert sum(row["cost"] for row in sharded_by_shape.values()) == pytest.approx(
            sum(row["cost"] for row in operations.values()), abs=1e-5
        )


class TestRacedRequestsLoseNoCountInAnyView:
    THREADS, PER_THREAD = 8, 200

    def test_eight_threads_of_mixed_requests(self, table):
        table.service.router.add("POST", "/raises", lambda request: 1 / 0)
        kinds = ("spatial", "textual", "temporal", "refused", "raises", "stats", "categorical")
        sent: list[list[tuple[str, int]]] = [[] for _ in range(self.THREADS)]

        def worker(index: int):
            def run() -> None:
                for i in range(self.PER_THREAD):
                    kind = kinds[(index + i) % len(kinds)]
                    if kind == "refused":
                        response = table.call("POST", "/search", {"type": "warp"})
                    elif kind == "raises":
                        response = table.call("POST", "/raises", {})
                    elif kind == "stats":
                        response = table.call("GET", "/routes")
                    else:
                        response = table.call("POST", "/search", route_table.query_body(kind))
                    sent[index].append((kind, response.status))
            return run

        run_together([worker(index) for index in range(self.THREADS)])

        flat = [pair for per_thread in sent for pair in per_thread]
        requests = self.THREADS * self.PER_THREAD
        assert len(flat) == requests
        searches = sum(1 for kind, status in flat if status == 200 and kind not in ("stats",))
        raised = sum(1 for kind, _ in flat if kind == "raises")
        assert all(status == 500 for kind, status in flat if kind == "raises")

        store, counters = obs.records(), obs.metrics().counter_values()
        report = store.report(top=None)

        def total(prefix: str) -> float:
            return sum(v for name, v in counters.items() if name.startswith(prefix))

        assert sum(row["count"] for row in store.top(64)) == searches
        assert sum(row["count"] for row in report["by_shape"]) == searches
        assert total("platform.queries") == searches
        assert total("api.requests") == requests
        assert total("usage.requests") == requests
        assert sum(row["count"] for row in report["by_principal"]) == requests
        assert sum(row["count"] for row in report["by_operation"]) == requests
        assert table.service.platform.latency_summaries()["http.request"]["count"] == requests
        assert store.window()["http.request"].count == requests
        assert counters['spans.total{span="http.request"}'] == requests
        assert counters['spans.errors{span="http.request"}'] == raised
        kept = store.records()  # the ring is shorter than the race
        assert len(kept) == min(requests, store.RECORDS)
        assert len({record.request_id for record in kept}) == len(kept)
