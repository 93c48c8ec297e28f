"""Every view is a fold of the same records, so no two can disagree.

Any interleaving of the six search families, uploads, annotations,
refused requests and handlers that raise — on a serial and on a 4-shard
platform — and then: the hot-shape view, the usage report's
``by_shape`` and ``platform.queries`` count the same queries; the
``http.request`` latency summary, ``api.requests``, the usage report's
``by_principal`` and the record ring count the same requests; and every
slow-span exemplar leads somewhere (its trace at ``/debug/trace``, its
request at ``/debug/request``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.api import schema
from tests.api import route_table

FAMILIES = ("spatial", "visual", "categorical", "textual", "temporal", "hybrid")
OPS = [("search", family) for family in FAMILIES] + [
    ("upload", None), ("annotate", None), ("refused", None), ("raises", None),
]


def _harness(shards: int) -> route_table.Harness:
    h = route_table.harness(shards=shards)

    def raises(request):
        raise RuntimeError("a handler that raises")

    h.service.router.add("POST", "/raises", raises)
    return h


_HARNESSES = {"serial": _harness(1), "sharded": _harness(4)}


def _send(h: route_table.Harness, op: str, family: str | None, n: int) -> int:
    if op == "search":
        return h.call("POST", "/search", route_table.query_body(family)).status
    if op == "upload":
        body = route_table.example(schema.ROUTES["POST /images"].body, "")
        pixels = route_table._image(n % 256, (7 * n) % 256, 90)
        return h.call("POST", "/images", body | {"image": pixels}).status
    if op == "annotate":
        body = {"classification": route_table.GOOD["classification"], "label": "clean"}
        return h.call("POST", "/images/1/annotations", body).status
    if op == "refused":
        return h.call("POST", "/search", {"type": "warp"}).status
    return h.call("POST", "/raises", {}).status


def _total(counters: dict, prefix: str) -> float:
    return sum(v for name, v in counters.items() if name.startswith(prefix))


@pytest.mark.parametrize("platform", sorted(_HARNESSES))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=24))
def test_every_view_counts_the_same_requests_and_queries(platform, ops):
    h = _HARNESSES[platform]
    # The first sharded search builds the partition: outside the
    # counted window, like any other warm-up.
    h.call("POST", "/search", route_table.query_body("temporal"))
    obs.reset()
    statuses = [_send(h, op, family, n) for n, (op, family) in enumerate(ops)]
    assert all(s < 500 for s, (op, _) in zip(statuses, ops) if op != "raises")
    assert all(s == 500 for s, (op, _) in zip(statuses, ops) if op == "raises")

    store, counters = obs.records(), obs.metrics().counter_values()
    report = store.report(top=None)
    searches = sum(1 for (op, _), s in zip(ops, statuses) if op == "search" and s == 200)
    queries = sum(row["count"] for row in store.top(10_000))
    assert queries == searches
    assert queries == sum(row["count"] for row in report["by_shape"])
    assert queries == _total(counters, "platform.queries")
    assert {row["shape"] for row in store.top(10_000)} == {
        row["key"] for row in report["by_shape"]
    }

    requests = len(ops)
    latency = h.service.platform.latency_summaries()
    assert latency["http.request"]["count"] == requests
    assert _total(counters, "api.requests") == requests
    assert sum(row["count"] for row in report["by_principal"]) == requests
    assert sum(row["count"] for row in report["by_operation"]) == requests
    assert len(store.records()) == requests
    assert store.window()["http.request"].count == requests
    failed = sum(1 for s in statuses if s >= 500)
    assert counters.get('spans.errors{span="http.request"}', 0.0) == failed

    # Read last: these are requests too.
    for exemplar in h.call("GET", "/debug/slow").body["slow"]:
        tree = h.call("GET", f"/debug/trace/{exemplar['trace_id']}")
        assert tree.status == 200, exemplar
        request_id = exemplar["attrs"].get("request_id")
        if request_id is not None:
            found = h.call("GET", f"/debug/request/{request_id}")
            assert found.status == 200, exemplar
            assert found.body["trace_id"] == exemplar["trace_id"]
            assert found.body["request_id"] == request_id
