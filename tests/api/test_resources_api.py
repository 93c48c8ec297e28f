"""The ``/debug/resources`` and ``/debug/trace/{trace_id}`` endpoints.

Request traffic must show up in the usage report attributed to the
calling key's principal label and the query's shape, and any trace id
surfaced anywhere (usage exemplars, error bodies) must resolve to a
span tree at ``/debug/trace`` while it is still in the ring buffer.
"""

import pytest

from repro import obs
from repro.api import Request, TVDPClient, TVDPService
from repro.api.auth import principal_label
from repro.core import TVDP
from repro.datasets import generate_lasan_dataset
from repro.features import ColorHistogramExtractor


@pytest.fixture(autouse=True)
def clean_metrics():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture()
def service():
    platform = TVDP()
    platform.register_extractor(ColorHistogramExtractor())
    return TVDPService(platform, deterministic_keys=True)


@pytest.fixture()
def client(service):
    client = TVDPClient(service)
    user_id = client.register_user("resources", role="researcher")
    client.create_key(user_id)
    return client


def _seed_traffic(client) -> dict:
    """One upload + one spatial search; returns the search region."""
    record = generate_lasan_dataset(n_per_class=1, image_size=32, seed=0)[0]
    body = client.add_image(
        record.image, record.fov, record.captured_at, record.uploaded_at,
        keywords=record.keywords,
    )
    client.get_image(body["image_id"])  # a row read, so rows_scanned > 0
    region = {
        "min_lat": record.fov.camera.lat - 0.05,
        "min_lng": record.fov.camera.lng - 0.05,
        "max_lat": record.fov.camera.lat + 0.05,
        "max_lng": record.fov.camera.lng + 0.05,
    }
    client.search({"type": "spatial", "region": region})
    return region


class TestResourcesEndpoint:
    def test_requires_an_api_key(self, service):
        response = service.handle(Request("GET", "/debug/resources"))
        assert response.status == 401

    def test_attributes_traffic_to_principal_and_shape(self, client):
        _seed_traffic(client)
        report = client.resources()
        me = principal_label(client.api_key)
        by_principal = {row["key"]: row for row in report["by_principal"]}
        assert me in by_principal
        my_row = by_principal[me]
        assert my_row["count"] >= 3  # upload, image read, and search
        assert my_row["charges"].get("rows_scanned", 0) > 0
        assert my_row["charges"].get("probes.columns", 0) > 0
        shapes = [row["key"] for row in report["by_shape"]]
        assert any(shape.startswith("spatial") for shape in shapes)
        operations = [row["key"] for row in report["by_operation"]]
        assert "POST /search" in operations and "POST /images" in operations

    def test_search_probes_and_bytes_are_charged(self, client):
        _seed_traffic(client)
        report = client.resources()
        [search_row] = [
            row for row in report["by_operation"] if row["key"] == "POST /search"
        ]
        assert any(
            kind.startswith("probes.") for kind in search_row["charges"]
        ), search_row["charges"]

    def test_exemplar_trace_resolves_at_debug_trace(self, client):
        _seed_traffic(client)
        report = client.resources()
        me = principal_label(client.api_key)
        [my_row] = [row for row in report["by_principal"] if row["key"] == me]
        exemplar = my_row["exemplar"]
        assert exemplar is not None
        tree = client.trace(exemplar["trace_id"])
        assert tree["trace_id"] == exemplar["trace_id"]
        assert tree["spans"] >= 1

    def test_top_bounds_each_ranking(self, client):
        _seed_traffic(client)
        report = client.resources(top=1)
        assert len(report["by_operation"]) == 1
        # top=1 keeps the costliest operation.
        full = client.resources()
        assert report["by_operation"][0]["key"] == full["by_operation"][0]["key"]

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"top": "many"}, "top must be an integer"),
            ({"top": "0"}, "top must be >= 1"),
            ({"budget": "lots"}, "budget and window_s must be numeric"),
            ({"budget": "10", "window_s": "soon"}, "budget and window_s must be numeric"),
            ({"budget": "-1"}, "budget must be >= 0 and window_s > 0"),
            ({"budget": "10", "window_s": "0"}, "budget must be >= 0 and window_s > 0"),
        ],
    )
    def test_parameter_validation(self, client, service, params, message):
        response = service.handle(
            Request("GET", "/debug/resources", params=params, api_key=client.api_key)
        )
        assert response.status == 400
        assert response.body["error"]["message"] == message

    def test_what_if_budget_flags_would_shed(self, client):
        _seed_traffic(client)
        report = client.resources(budget=0.0, window_s=60.0)
        assert report["budget"] == {
            "cost_per_window": 0.0,
            "window_s": 60.0,
            "overridden": True,
        }
        assert principal_label(client.api_key) in report["would_shed"]
        # Dry run only: the un-overridden report stays budget-free.
        assert client.resources()["budget"] is None
        assert client.resources()["would_shed"] == []


class TestTraceEndpoint:
    def test_unknown_trace_is_404(self, client, service):
        response = service.handle(
            Request("GET", "/debug/trace/deadbeef", api_key=client.api_key)
        )
        assert response.status == 404
        assert "not in the ring buffer" in response.body["error"]["message"]

    def test_returns_the_reassembled_tree(self, client):
        _seed_traffic(client)
        search_span = obs.ring_buffer().spans("query.spatial")[-1]
        tree = client.trace(search_span.trace_id)
        [root] = tree["roots"]
        assert root["name"] == "client.request"
        assert tree["spans"] == len(
            [s for s in obs.ring_buffer().spans() if s.trace_id == search_span.trace_id]
        )

    def test_error_bodies_link_to_their_trace(self, client, service):
        response = service.handle(
            Request(
                "POST",
                "/search",
                body={"type": "no-such-family"},
                api_key=client.api_key,
            )
        )
        assert 400 <= response.status < 500
        trace_id = response.body["error"]["trace_id"]
        assert trace_id
        tree = client.trace(trace_id)
        assert any(root["name"] == "http.request" for root in tree["roots"])
