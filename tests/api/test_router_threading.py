"""Router.dispatch under concurrent threads.

The load harness (``benchmarks/loadgen.py``) drives the in-process API
from many threads; this suite pins down the thread-safety contract it
relies on — parallel dispatches to the metrics/health/search/debug
routes complete without dropped requests, corrupted counters, or (under
``REPRO_SANITIZE=1``, which the CI sanitize job sets) lock-order
inversions.
"""

from __future__ import annotations

import threading

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
        platform.upload_image(
            record.image, record.fov, record.captured_at, record.uploaded_at,
            keywords=record.keywords,
        )
    platform.extract_features("color_hsv_20_20_10")
    return TVDPService(platform, deterministic_keys=True)


@pytest.fixture()
def api_key(service):
    client = TVDPClient(service)
    user_id = client.register_user("threads", role="researcher")
    return client.create_key(user_id)


SEARCH_SPEC = {
    "type": "spatial",
    "region": {
        "min_lat": 34.0,
        "min_lng": -118.3,
        "max_lat": 34.1,
        "max_lng": -118.2,
    },
}


def _hammer(service, requests, n_threads):
    """Dispatch ``requests`` round-robin from ``n_threads`` threads;
    returns (statuses, exceptions)."""
    statuses: list[list[int]] = [[] for _ in range(n_threads)]
    errors: list[BaseException] = []
    barrier = threading.Barrier(n_threads)

    def worker(index: int) -> None:
        barrier.wait()
        try:
            for i, request in enumerate(requests):
                if i % n_threads != index:
                    continue
                response = service.handle(request())
                statuses[index].append(response.status)
        except BaseException as exc:  # surface into the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [s for worker_statuses in statuses for s in worker_statuses], errors


class TestConcurrentDispatch:
    def test_parallel_mixed_routes_all_succeed(self, service, api_key):
        def search():
            return Request("POST", "/search", body=dict(SEARCH_SPEC), api_key=api_key)

        def metrics():
            return Request("GET", "/metrics")

        def health():
            return Request("GET", "/health")

        def hot():
            return Request("GET", "/debug/hot", api_key=api_key)

        requests = [search, metrics, health, hot] * 25
        statuses, errors = _hammer(service, requests, n_threads=8)
        assert errors == []
        assert len(statuses) == 100
        assert all(status == 200 for status in statuses)

    def test_request_counters_lose_nothing_under_contention(self, service, api_key):
        n_requests = 120
        # The api_key fixture already routed two requests; diff from here.
        window_before = obs.records().window()["http.request"].count

        def search():
            return Request("POST", "/search", body=dict(SEARCH_SPEC), api_key=api_key)

        statuses, errors = _hammer(service, [search] * n_requests, n_threads=6)
        assert errors == []
        assert len(statuses) == n_requests
        counters = obs.metrics().counter_values()
        dispatched = sum(
            value
            for name, value in counters.items()
            if name.startswith("api.requests") and 'route="/search"' in name
        )
        assert dispatched == n_requests
        assert (
            obs.records().window()["http.request"].count - window_before == n_requests
        )
        hot = obs.hot_queries().top(1)
        assert hot and hot[0]["count"] == n_requests

    def test_parallel_errors_are_isolated(self, service, api_key):
        def good():
            return Request("GET", "/health")

        def bad():
            return Request("POST", "/search", body={"type": "warp"}, api_key=api_key)

        statuses, errors = _hammer(service, [good, bad] * 30, n_threads=6)
        assert errors == []
        assert statuses.count(200) == 30
        assert statuses.count(400) == 30
