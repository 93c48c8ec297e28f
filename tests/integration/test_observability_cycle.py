"""One API round trip produces the expected span tree and counters.

This is the observability layer's end-to-end contract: a ``POST
/images`` + ``POST /search`` cycle through the service must yield (a) a
trace per request rooted at ``http.request`` with the platform and
upload child spans beneath it, and (b) the matching counter deltas —
without the caller wiring anything up.
"""

import pytest

from repro import obs
from repro.api import TVDPClient, TVDPService
from repro.core import TVDP
from repro.datasets import generate_lasan_dataset
from repro.features import ColorHistogramExtractor
from repro.obs import counters_delta


@pytest.fixture(autouse=True)
def clean_metrics():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture()
def client():
    platform = TVDP()
    platform.register_extractor(ColorHistogramExtractor())
    service = TVDPService(platform, deterministic_keys=True)
    client = TVDPClient(service)
    user_id = client.register_user("cycle", role="researcher")
    client.create_key(user_id)
    return client


def _tree_names(node):
    return {node["name"]} | {n for c in node["children"] for n in _tree_names(c)}


def test_upload_and_search_trace_and_counters(client):
    record = generate_lasan_dataset(n_per_class=1, image_size=32, seed=0)[0]
    before = obs.snapshot()

    body = client.add_image(
        record.image, record.fov, record.captured_at, record.uploaded_at,
        keywords=record.keywords,
    )
    assert not body["deduplicated"]
    results = client.search(
        {
            "type": "spatial",
            "region": {
                "min_lat": record.fov.camera.lat - 0.05,
                "min_lng": record.fov.camera.lng - 0.05,
                "max_lat": record.fov.camera.lat + 0.05,
                "max_lng": record.fov.camera.lng + 0.05,
            },
        }
    )
    assert [r["image_id"] for r in results] == [body["image_id"]]

    # -- span trees: one trace per request, rooted at the middleware ----
    ring = obs.ring_buffer()
    upload_span = ring.spans("platform.upload_image")[-1]
    [upload_root] = obs.span_tree(ring.spans(trace_id=upload_span.trace_id))
    # The client library opens a client.request span per attempt, so an
    # in-process round trip roots at the client with the middleware as
    # its only child.
    assert upload_root["name"] == "client.request"
    [http_node] = upload_root["children"]
    assert http_node["name"] == "http.request"
    assert http_node["attrs"]["route"] == "/images"
    [platform_node] = http_node["children"]
    assert platform_node["name"] == "platform.upload_image"
    child_names = [c["name"] for c in platform_node["children"]]
    assert child_names[0] == "upload.dedup"
    assert child_names[-1] == "upload.index_insert"
    assert all(name.startswith("upload.") for name in child_names)

    query_span = ring.spans("query.spatial")[-1]
    [search_root] = obs.span_tree(ring.spans(trace_id=query_span.trace_id))
    assert search_root["name"] == "client.request"
    [search_http] = search_root["children"]
    assert search_http["attrs"]["route"] == "/search"
    assert "query.spatial" in _tree_names(search_root)
    assert search_root["trace_id"] != upload_root["trace_id"]

    # -- counter deltas for exactly this round trip ---------------------
    delta = counters_delta(before, obs.snapshot())
    assert delta['platform.uploads{outcome="stored"}'] == 1.0
    assert delta['platform.queries{family="spatial"}'] == 1.0
    assert delta['api.requests{method="POST",route="/images",status="201"}'] == 1.0
    assert delta['api.requests{method="POST",route="/search",status="200"}'] == 1.0
    assert delta['spans.total{span="http.request"}'] == 2.0
    # The spatial search actually scanned the FOV columns.
    assert delta["index.columns.scans"] == 1.0

    # -- latency summaries surface through /stats -----------------------
    latency = client.stats()["latency_ms"]
    assert latency["platform.upload_image"]["count"] == 1
    assert latency["query.spatial"]["count"] == 1
    assert latency["http.request"]["count"] >= 2


def test_resource_attribution_and_trace_join_across_principals(client):
    """The accounting acceptance path: two API keys drive different
    work through one service; ``/debug/resources`` must bill rows,
    probes, and feature bytes to the right principal and query shape,
    and the usage exemplar must resolve to ONE span tree in which the
    client and server spans share a trace id."""
    from repro.api import TVDPClient
    from repro.api.auth import principal_label

    # A second principal on the same service.
    other = TVDPClient(client._service)
    other_user = other.register_user("other-tenant", role="engineer")
    other.create_key(other_user)
    assert principal_label(other.api_key) != principal_label(client.api_key)

    record = generate_lasan_dataset(n_per_class=1, image_size=32, seed=0)[0]
    body = client.add_image(
        record.image, record.fov, record.captured_at, record.uploaded_at,
        keywords=record.keywords,
    )
    client.search(
        {
            "type": "spatial",
            "region": {
                "min_lat": record.fov.camera.lat - 0.05,
                "min_lng": record.fov.camera.lng - 0.05,
                "max_lat": record.fov.camera.lat + 0.05,
                "max_lng": record.fov.camera.lng + 0.05,
            },
        }
    )
    # The other principal only touches features (feature_bytes, no probes).
    other.get_features("color_hsv_20_20_10", image_id=body["image_id"])

    report = client.resources()
    rows = {row["key"]: row for row in report["by_principal"]}
    mine = rows[principal_label(client.api_key)]
    theirs = rows[principal_label(other.api_key)]

    # Spatial search work bills to the searching key...
    assert mine["charges"].get("probes.columns", 0) > 0
    assert mine["cost"] > 0
    # ...feature-vector bytes bill to the key that pulled them...
    assert theirs["charges"].get("feature_bytes", 0) > 0
    assert "probes.columns" not in theirs["charges"]
    # ...and the query shape aggregation names the access path.
    shape_keys = {row["key"] for row in report["by_shape"]}
    assert "spatial(mode=scene,region)" in shape_keys
    operations = {row["key"]: row for row in report["by_operation"]}
    assert operations["POST /search"]["count"] == 1
    assert operations["POST /images"]["count"] == 1

    # The worst-request exemplar links the report to one trace tree in
    # which the client span and the server middleware span are joined.
    exemplar = mine["exemplar"]
    assert exemplar is not None
    tree = client.trace(exemplar["trace_id"])
    [root] = tree["roots"]
    assert root["name"] == "client.request"
    assert root["trace_id"] == exemplar["trace_id"]
    [http_node] = root["children"]
    assert http_node["name"] == "http.request"
    assert http_node["trace_id"] == root["trace_id"]
    assert http_node["children"]  # the platform work hangs beneath it
