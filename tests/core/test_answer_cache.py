"""The answer cache and the write version it is stamped with.

* Every index write a slice applies moves ``db.version`` once more, on
  top of its row write; a read — panorama selection, the hybrid probe
  of ``hybrid_indexes()`` — moves nothing.
* A key's answer is admitted on its second sighting at one version and
  served from the third: the same shared ``Answer``, on the same
  ``query.<family>`` span (``cache="hit"``), counted and shaped like any
  query, billing nothing.
* The first query after a write drops the cache without reading or
  filling it, and nothing computed while a write landed is kept.
* Never cached: an example-image visual query, a query whose key does
  not hash, the serial oracle, EXPLAIN ANALYZE.  ``close``,
  ``set_shards`` and ``restore`` drop the cache; ``MAX_IDS`` bounds it.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest

from repro import obs
from repro.analysis import select_panorama_frames
from repro.core import (
    CatalogSlice,
    CategoricalQuery,
    HybridQuery,
    SpatialQuery,
    TemporalQuery,
    VisualQuery,
    load_platform,
    save_platform,
)
from repro.core import answercache
from repro.core.answercache import answer_digest, answer_key
from repro.core.planner import explain
from repro.db import Database
from repro.geo import BoundingBox, FieldOfView, GeoPoint
from tests.shard.test_equivalence import (
    LATS,
    LNGS,
    PixelProbeExtractor,
    build_platform,
    tie_prone_image,
)

WINDOW = TemporalQuery(start=0.0, end=100.0)
VECTOR = np.array([0.5, 0.5, 0.5])


@pytest.fixture(autouse=True)
def clean_metrics():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture()
def platform():
    """Eight images at distinct grid points, one per time step, each
    with a keyword and an annotation, features extracted; serial."""
    specs = [
        {
            "lat": lat, "lng": lng, "t": t, "direction": 0.0,
            "levels": (0.5, 0.5, 0.5), "delta": t * 0.01, "keywords": ["lamp"],
            "annotation": ("clean", 0.9, "human"),
        }
        for t, (lat, lng) in enumerate([(lat, lng) for lat in LATS[:2] for lng in LNGS])
    ]
    platform = build_platform(specs)
    yield platform
    platform.close()


def upload(platform, t: float) -> int:
    return platform.upload_image(
        image=tie_prone_image((0.25, 0.5, 0.75), t * 0.001),
        fov=FieldOfView(GeoPoint(LATS[0], LNGS[0]), 0.0, 60.0, 500.0),
        captured_at=t,
        uploaded_at=t,
    ).image_id


def admit(platform, query) -> object:
    """Ask ``query`` until its answer is held: the first ask since a
    write drops the cache, the next is the first sighting, the third is
    run and admitted.  Returns the admitted answer."""
    for _ in range(3):
        answer = platform.answer(query)
    return answer


def traced(platform, query):
    """``platform.answer(query)``, its ``query.*`` span and its bill."""
    obs.ring_buffer().reset()
    with obs.Unit(obs.records()) as unit:
        answer = platform.answer(query)
    (span,) = [s for s in obs.ring_buffer().spans() if s.name.startswith("query.")]
    return answer, span, dict(unit.charges)


class TestWriteVersion:
    def test_each_index_write_moves_it_and_a_read_does_not(self, platform):
        db = Database.tvdp()
        catalog_slice = CatalogSlice(db)
        image_id = db.insert("images", {
            "uri": "img://1", "content_hash": "a", "lat": LATS[0], "lng": LNGS[0],
            "timestamp_capturing": 1.0, "timestamp_uploading": 1.0, "is_augmented": False,
        })
        steps = [
            lambda: catalog_slice.index_image(
                image_id, FieldOfView(GeoPoint(LATS[0], LNGS[0]), 0.0, 60.0, 500.0), ("lamp",)
            ),
            lambda: catalog_slice.index_annotation(image_id, 1, 0.9, "human"),
            lambda: catalog_slice.add_extractor("probe", 3),
            lambda: catalog_slice.index_vector("probe", image_id, VECTOR),
        ]
        for step in steps:
            before = db.version
            step()
            assert db.version == before + 1
        before = db.version
        catalog_slice.add_extractor("probe", 3)  # has one: nothing applied
        assert db.version == before
        before = platform.db.version
        assert select_panorama_frames(platform, GeoPoint(LATS[0], LNGS[0])).image_ids
        probe = platform.hybrid_indexes()[PixelProbeExtractor.name]
        assert probe.spatial_visual_knn(BoundingBox(34.0, -118.4, 34.2, -118.2), VECTOR, 3)
        assert platform.db.version == before

    def test_an_upload_moves_it_past_its_last_index_write(self, platform):
        before = platform.db.version
        upload(platform, 50.0)
        # images, image_fov, image_scene_location, then index_image.
        assert platform.db.version == before + 4


class TestAdmission:
    def test_second_sighting_admits_and_the_third_is_a_hit(self, platform):
        held = admit(platform, WINDOW)
        answer, span, bill = traced(platform, WINDOW)
        assert answer is held
        assert span.name == "query.temporal"
        assert span.attrs["cache"] == "hit" and span.attrs["results"] == len(answer)
        assert bill == {}
        (hot,) = obs.hot_queries().top(10)  # since traced() reset the views
        assert hot["count"] == 1 and hot["shape"] == "temporal(field=timestamp_capturing,start+end)"
        assert answer.results() == platform.execute_serial(WINDOW) != []

    def test_a_miss_runs_and_bills_and_says_nothing_of_the_cache(self, platform):
        platform.answer(WINDOW)
        answer, span, bill = traced(platform, WINDOW)  # first sighting
        assert "cache" not in span.attrs
        assert bill.get("rows_scanned", 0) == len(answer) > 0

    def test_visual_and_hybrid_keys_are_their_fields_and_vector_bytes(self):
        def visual(vector, k=3):
            return VisualQuery("probe", vector=np.asarray(vector, dtype=np.float64), k=k)

        assert answer_key(visual([0.5, 0.25])) == answer_key(visual([0.5, 0.25]))
        assert answer_key(visual([0.5, 0.25])) != answer_key(visual([0.5, 0.25], k=4))
        assert answer_key(visual([0.5, 0.25])) != answer_key(visual([0.5, -0.25]))
        box = SpatialQuery(region=BoundingBox(34.0, -118.4, 34.1, -118.3))
        fused = HybridQuery((box, visual([0.5, 0.25])))
        assert answer_key(fused) == answer_key(HybridQuery((box, visual([0.5, 0.25]))))
        assert answer_key(box) is box and hash(answer_key(fused))
        assert answer_digest(fused) == answer_digest(HybridQuery((box, visual([0.5, 0.25]))))
        example = VisualQuery("probe", example=tie_prone_image((0.5, 0.5, 0.5), 0.0))
        assert answer_key(example) is None and answer_digest(example) is None
        assert answer_key(HybridQuery((box, example))) is None
        assert answer_digest(HybridQuery((box, example))) is None

    def test_a_shared_digest_is_told_apart_by_the_key(self, platform):
        name = PixelProbeExtractor.name
        held = VisualQuery(name, vector=np.array([0.5, 0.25, 0.75]), k=3)
        other = VisualQuery(name, vector=np.array([0.75, 0.5, 0.25]), k=3)  # same norm
        assert answer_digest(held) == answer_digest(other)
        assert answer_key(held) != answer_key(other)
        admit(platform, held)
        answer, span, _ = traced(platform, other)
        assert "cache" not in span.attrs
        assert answer.results() == platform.execute_serial(other)


class TestFreshness:
    def test_the_first_query_after_a_write_neither_reads_nor_fills(self, platform):
        admit(platform, WINDOW)
        image_id = upload(platform, 50.0)
        asked = [traced(platform, WINDOW) for _ in range(4)]
        assert image_id in asked[0][0].ids
        # Dropped (no sighting noted), sighted, admitted, then a hit.
        assert [span.attrs.get("cache") for _, span, _ in asked] == [None] * 3 + ["hit"]

    def test_nothing_computed_while_a_write_landed_is_kept(self, platform):
        platform.answer(WINDOW)
        platform.answer(WINDOW)  # first sighting
        landed = []

        def run_across_a_write(query):
            answer = platform._run(query)
            landed.append(upload(platform, 50.0))
            # Another reader sees the write first: the cache turns to it.
            platform.answer(TemporalQuery(start=0.0))
            return answer

        stale = platform._answer(WINDOW, platform._answers, run_across_a_write)
        assert landed[0] not in stale.ids
        answer, span, _ = traced(platform, WINDOW)
        assert "cache" not in span.attrs and landed[0] in answer.ids

    def test_a_partial_answer_is_not_kept(self, platform):
        platform.answer(WINDOW)
        platform.answer(WINDOW)  # first sighting

        def partial(query):
            answer = platform._run(query)
            answer.failed_shards = (1,)
            return answer

        platform._answer(WINDOW, platform._answers, partial)
        answer, span, _ = traced(platform, WINDOW)
        assert "cache" not in span.attrs and answer.failed_shards == ()

    def test_an_answer_over_max_ids_is_not_kept(self, platform, monkeypatch):
        monkeypatch.setattr(answercache, "MAX_IDS", len(platform._run(WINDOW)) - 1)
        for _ in range(4):
            _, span, _ = traced(platform, WINDOW)
            assert "cache" not in span.attrs


class TestNeverCached:
    def test_an_example_image_and_an_unhashable_key(self, platform):
        queries = [
            VisualQuery(PixelProbeExtractor.name, example=tie_prone_image((0.5,) * 3, 0.0)),
            CategoricalQuery("condition", ["clean"]),  # a list: no hash
        ]
        for query in queries:
            for _ in range(4):
                answer, span, _ = traced(platform, query)
                assert "cache" not in span.attrs
            assert answer.results() == platform.execute_serial(query) != []

    def test_the_serial_oracle_and_explain_analyze(self, platform):
        platform.answer(TemporalQuery(start=0.0))  # the cache turns to this version
        for _ in range(3):
            platform.execute_serial(WINDOW)
            explain(platform, WINDOW, analyze=True)
        asked = [traced(platform, WINDOW)[1] for _ in range(3)]
        # Had they sighted or admitted it, the hit would come sooner.
        assert [span.attrs.get("cache") for span in asked] == [None, None, "hit"]

    def test_close_set_shards_and_restore_drop_it(self, platform):
        for drop in (
            platform.close,
            lambda: platform.set_shards(1),
            lambda: platform.restore(*reloaded(platform)),
        ):
            admit(platform, WINDOW)
            assert traced(platform, WINDOW)[1].attrs["cache"] == "hit"
            drop()
            answer, span, _ = traced(platform, WINDOW)
            assert "cache" not in span.attrs
            assert answer.results() == platform.execute_serial(WINDOW)


def reloaded(platform):
    with tempfile.TemporaryDirectory() as directory:
        save_platform(platform, directory)
        loaded = load_platform(directory)
    return loaded.db, loaded.blobs()


class TestBound:
    def test_crossing_max_ids_starts_the_cache_over(self, platform, monkeypatch):
        wide, narrow = WINDOW, TemporalQuery(start=0.0, end=3.0)
        size = len(platform.answer(wide)) + len(platform.answer(narrow))
        monkeypatch.setattr(answercache, "MAX_IDS", size - 1)
        admit(platform, wide)
        for _ in range(2):
            platform.answer(narrow)  # sighted, then admitted: wide goes
        assert traced(platform, narrow)[1].attrs["cache"] == "hit"
        assert "cache" not in traced(platform, wide)[1].attrs
        assert platform._answers._ids <= size - 1
