"""The /debug/hot and /debug/explain workload-observability routes."""

import pytest

from repro import obs
from repro.api import Request, TVDPClient, TVDPService
from repro.core import TVDP
from repro.datasets import generate_lasan_dataset
from repro.features import ColorHistogramExtractor
from repro.imaging import CLEANLINESS_CLASSES


@pytest.fixture(autouse=True)
def clean_metrics():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture()
def service():
    platform = TVDP()
    platform.register_extractor(ColorHistogramExtractor())
    platform.catalog.define("street_cleanliness", list(CLEANLINESS_CLASSES))
    for record in generate_lasan_dataset(n_per_class=3, image_size=24, seed=0):
        receipt = platform.upload_image(
            record.image, record.fov, record.captured_at, record.uploaded_at,
            keywords=record.keywords,
        )
        platform.annotations.annotate(
            receipt.image_id, "street_cleanliness", record.label, 1.0, "human"
        )
    platform.extract_features("color_hsv_20_20_10")
    return TVDPService(platform, deterministic_keys=True)


@pytest.fixture()
def client(service):
    client = TVDPClient(service)
    user_id = client.register_user("debug", role="researcher")
    client.create_key(user_id)
    return client


SPATIAL_SPEC = {
    "type": "spatial",
    "region": {
        "min_lat": 34.0,
        "min_lng": -118.3,
        "max_lat": 34.1,
        "max_lng": -118.2,
    },
}


class TestDebugHot:
    def test_requires_api_key(self, service):
        response = service.handle(Request("GET", "/debug/hot"))
        assert response.status == 401

    def test_empty_tracker(self, client):
        report = client.hot_queries()
        assert report == {"hot": [], "tracked": 0, "evicted": 0}

    def test_searches_populate_hot_shapes(self, client):
        for _ in range(3):
            client.search(SPATIAL_SPEC)
        client.search({"type": "textual", "text": "trash"})
        report = client.hot_queries()
        assert report["tracked"] == 2
        top = report["hot"][0]
        assert top["shape"] == "spatial(mode=scene,region)"
        assert top["count"] == 3
        assert top["total_ms"] >= 0.0
        assert top["mean_ms"] <= top["max_ms"] + 1e-9

    def test_limit_param(self, client):
        client.search(SPATIAL_SPEC)
        client.search({"type": "textual", "text": "trash"})
        report = client.hot_queries(limit=1)
        assert len(report["hot"]) == 1
        assert report["tracked"] == 2

    def test_bad_limit_rejected(self, service, client):
        response = service.handle(
            Request(
                "GET", "/debug/hot", params={"limit": "nope"}, api_key=client.api_key
            )
        )
        assert response.status == 400
        for params in ({"limit": "0"}, {"k": "x"}):  # "k" is not the bound's name
            response = service.handle(
                Request("GET", "/debug/hot", params=params, api_key=client.api_key)
            )
            assert response.status == 400


class TestDebugExplain:
    def test_requires_api_key(self, service):
        response = service.handle(
            Request("GET", "/debug/explain", body=SPATIAL_SPEC)
        )
        assert response.status == 401

    def test_analyze_default_fills_rows_and_probes(self, client):
        report = client.explain(SPATIAL_SPEC)
        assert report["analyze"] is True
        plan = report["plan"]
        assert plan["query_type"] == "spatial"
        assert plan["access_path"] == "columns.scene_scan"
        assert plan["rows"] is not None
        assert plan["elapsed_ms"] >= 0.0
        assert plan["shape"] == "spatial(mode=scene,region)"
        assert any(
            name.startswith("platform.queries") for name in plan["counter_deltas"]
        )
        assert "rows=" in report["rendered"]

    def test_analyze_executes_every_time(self, client):
        # Asked three times, a search's answer is held by the answer
        # cache; EXPLAIN ANALYZE measures the query's work all the same.
        for _ in range(3):
            client.search(SPATIAL_SPEC)
        first, second = (client.explain(SPATIAL_SPEC)["plan"] for _ in range(2))
        assert first["rows"] == second["rows"]
        assert first["counter_deltas"] == second["counter_deltas"]
        assert any(name.startswith("index.") for name in first["counter_deltas"])
        assert first["charges"] == second["charges"] != {}

    def test_analyze_off_returns_bare_plan(self, client):
        report = client.explain(SPATIAL_SPEC, analyze=False)
        assert report["analyze"] is False
        assert report["plan"]["rows"] is None
        assert report["plan"]["counter_deltas"] == {}

    def test_hybrid_children_analyzed(self, client):
        spec = {"type": "hybrid", "queries": [SPATIAL_SPEC, {"type": "textual", "text": "trash"}]}
        plan = client.explain(spec)["plan"]
        assert plan["query_type"] == "hybrid"
        assert [child["query_type"] for child in plan["children"]] == ["spatial", "textual"]
        for child in plan["children"]:
            assert child["rows"] is not None
        visual = {"type": "visual", "extractor": "color_hsv_20_20_10", "vector": [0.0] * 50, "k": 3}
        fused = client.explain({"type": "hybrid", "queries": [SPATIAL_SPEC, visual]})["plan"]
        assert fused["query_type"] == "hybrid" and fused["children"] == []
        assert fused["rows"] is not None

    @pytest.mark.parametrize("shards", [1, 4])
    def test_analyze_executes_the_query_once(self, service, client, shards):
        """One ANALYZE of a three-part conjunction is one query: one
        ``platform.queries`` (the hybrid's), one probe of each index its
        parts read, and one shape on ``/debug/hot``."""
        service.platform.set_shards(shards)
        spec = {
            "type": "hybrid",
            "queries": [
                {"type": "temporal", "start": 0.0},
                {"type": "categorical", "classification": "street_cleanliness", "labels": ["clean"]},
                {"type": "textual", "text": "street"},
            ],
        }
        client.explain(spec)  # builds the partition, when sharded
        obs.reset()
        before = obs.metrics().counter_values()
        client.explain(spec)
        after = obs.metrics().counter_values()
        moved = {
            name: value - before.get(name, 0.0)
            for name, value in after.items()
            if name.startswith(("platform.queries", "index.inverted.queries", "index.columns.scans"))
            and value != before.get(name, 0.0)
        }
        assert moved == {
            'platform.queries{family="hybrid"}': 1.0,
            "index.inverted.queries": 1.0,
            "index.columns.scans": 1.0,
        }
        assert [row["shape"] for row in client.hot_queries()["hot"]] == [
            "hybrid(temporal(field=timestamp_capturing,start)"
            "+categorical(classification=street_cleanliness,labels=1)+textual(match=any,terms=1))"
        ]

    def test_bad_spec_is_400(self, service, client):
        response = service.handle(
            Request(
                "GET",
                "/debug/explain",
                body={"type": "warp"},
                api_key=client.api_key,
            )
        )
        assert response.status == 400

    def test_analyze_on_cold_extractor_is_409(self, clean_metrics):
        platform = TVDP()
        platform.register_extractor(ColorHistogramExtractor())
        service = TVDPService(platform, deterministic_keys=True)
        client = TVDPClient(service)
        user_id = client.register_user("cold", role="researcher")
        client.create_key(user_id)
        response = service.handle(
            Request(
                "GET",
                "/debug/explain",
                body={
                    "type": "visual",
                    "extractor": "color_hsv_20_20_10",
                    "vector": [0.0] * 50,
                    "k": 3,
                },
                api_key=client.api_key,
            )
        )
        assert response.status == 409

    def test_explain_itself_is_traced_with_plan_attached(self, client, service):
        client.explain(SPATIAL_SPEC)
        explain_spans = [
            s
            for s in obs.ring_buffer().spans("http.request")
            if s.attrs.get("route") == "/debug/explain"
        ]
        assert explain_spans
        assert explain_spans[-1].attrs["plan"]["query_type"] == "spatial"
