"""The answer cache under concurrent readers and a writer.

Reader threads repeat a small pool of ``POST /search`` requests — so the
answer cache admits and serves them — while a writer thread uploads
images and annotates them, all under a 10 µs switch interval
(:mod:`tests.racing`).  Whatever interleaving the threads took, no
answer computed before a write may be served after it: between two
writes, and once everyone has joined, every query in the pool answers
exactly what the uncached serial runner (``TVDP._run``) answers,
through the API and through ``TVDP.answer`` alike.  Under ``REPRO_SANITIZE=1`` (the CI sanitize job)
the run is also checked for lock-order inversions and unguarded writes.
"""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.api import Request, TVDPClient, TVDPService
from repro.api.schema import QUERY
from repro.core import TVDP
from repro.datasets import generate_lasan_dataset
from repro.features import ColorHistogramExtractor
from repro.imaging import CLEANLINESS_CLASSES
from tests.racing import run_together

EXTRACTOR = "color_hsv_20_20_10"
READERS = 3
#: Rounds each reader runs over the pool once the last write is in.
AFTER = 3


@pytest.fixture(autouse=True)
def clean_metrics():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture(params=[1, 4], ids=["serial", "sharded"])
def service(request):
    platform = TVDP(shards=request.param)
    platform.register_extractor(ColorHistogramExtractor())
    platform.catalog.define("street_cleanliness", list(CLEANLINESS_CLASSES))
    for record in generate_lasan_dataset(n_per_class=2, image_size=24, seed=0):
        receipt = platform.upload_image(
            record.image, record.fov, record.captured_at, record.uploaded_at,
            keywords=record.keywords,
        )
        platform.annotations.annotate(
            receipt.image_id, "street_cleanliness", record.label, 0.9, "human"
        )
    platform.extract_features(EXTRACTOR)
    yield TVDPService(platform, deterministic_keys=True)
    platform.close()


@pytest.fixture()
def api_key(service):
    client = TVDPClient(service)
    return client.create_key(client.register_user("cache", role="researcher"))


def search_pool(platform: TVDP) -> list[dict]:
    """Specs whose answers a write can change: a wide box, an open time
    window, every label, a keyword, the nearest neighbours of a stored
    vector, and that box and vector fused."""
    region = {"min_lat": 33.0, "min_lng": -119.0, "max_lat": 35.0, "max_lng": -117.0}
    vector = platform.feature_vector(platform.image_ids()[0], EXTRACTOR).tolist()
    visual = {"type": "visual", "extractor": EXTRACTOR, "vector": vector, "k": 5}
    return [
        {"type": "spatial", "region": region, "mode": "camera"},
        {"type": "temporal", "start": 0.0},
        {
            "type": "categorical",
            "classification": "street_cleanliness",
            "labels": list(CLEANLINESS_CLASSES),
        },
        {"type": "textual", "text": "street"},
        visual,
        {"type": "hybrid", "queries": [{"type": "spatial", "region": region}, visual]},
    ]


def test_no_stale_answer_survives_a_concurrent_write(service, api_key):
    platform = service.platform
    pool = search_pool(platform)

    def fresh(spec: dict) -> bool:
        """Whether ``spec`` is answered as the catalog stands, uncached:
        through ``TVDP.answer`` and through the API."""
        want = platform._run(QUERY(spec)).results()
        response = service.handle(Request("POST", "/search", body=spec, api_key=api_key))
        rows = [(row["image_id"], row["score"]) for row in response.body["results"]]
        return platform.answer(QUERY(spec)).results() == want and rows == [
            (hit.image_id, hit.score) for hit in want
        ]

    statuses: list[int] = []
    stale: list[str] = []
    written = threading.Event()
    rounds_read = threading.Semaphore(0)

    def read() -> None:
        # Until the writer is done, and a few rounds past its last write.
        rounds = 0
        while not written.is_set() or rounds < AFTER:
            rounds = rounds + 1 if written.is_set() else 0
            for spec in pool:
                request = Request("POST", "/search", body=spec, api_key=api_key)
                statuses.append(service.handle(request).status)
            rounds_read.release()

    def write() -> None:
        try:
            for record in generate_lasan_dataset(n_per_class=2, image_size=24, seed=1):
                # Each reader repeats the pool twice or so between two
                # writes: answers are admitted, and queries in flight
                # when the next write lands hold tickets.  Nothing is
                # written meanwhile, so what the cache serves now must
                # be the catalog's answer.
                for _ in range(2 * READERS):
                    rounds_read.acquire()
                stale.extend(spec["type"] for spec in pool if not fresh(spec))
                receipt = platform.upload_image(
                    record.image, record.fov, record.captured_at,
                    record.uploaded_at, keywords=record.keywords,
                )
                platform.annotations.annotate(
                    receipt.image_id, "street_cleanliness", record.label, 0.8, "machine"
                )
        finally:
            written.set()

    run_together([read] * READERS + [write])
    assert set(statuses) == {200}
    assert stale == []
    # Thrice: whatever the cache held is dropped, then each query is
    # sighted, admitted and (the third time) served from it.
    for _ in range(3):
        assert [spec["type"] for spec in pool if not fresh(spec)] == []
