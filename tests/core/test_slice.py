"""One builder: a catalog slice rebuilt from rows answers exactly like
the slice that uploads and ``extract_features`` filled incrementally.

``CatalogSlice.rebuild`` has one caller — ``load_platform`` — and the
platform's own slice is the other way the same indexes get filled
(shards are row sets over it and build nothing).  Hypothesis draws a
catalog and an interleaving of uploads, annotations, on-demand feature
requests (out of id order) and augmentations; at a checkpoint
mid-stream and again at the end, every per-slice scan and every index
probe the serial runners and the shard router use — the column scans of
the sidecar included — must give the same answer on both.

The sidecar has a second contract, pinned by races at the bottom: a
query that overlaps writes sees ids and columns from one moment.  And a
third: nothing in the platform inserts into a tree.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis import select_panorama_frames
from repro.api import TVDPClient, TVDPService
from repro.core import (
    AnnotationService,
    CatalogSlice,
    CategoricalQuery,
    ClassificationCatalog,
    HybridQuery,
    SpatialQuery,
    TemporalQuery,
    TextualQuery,
    TVDP,
    VisualQuery,
    load_platform,
    save_platform,
)
from repro.datasets import generate_lasan_dataset
from repro.features import ColorHistogramExtractor
from repro.geo import BoundingBox, FieldOfView, GeoPoint
from repro.imaging.augment import Augmentation, flip_vertical
from repro.db import Database
from repro.index import OrientedRTree, VisualRTree
from repro.index.ordering import by_score
from tests.racing import read_while_writing
from tests.shard.test_equivalence import (
    LABELS,
    VOCAB,
    PixelProbeExtractor,
    image_specs,
    query_params,
    tie_prone_image,
)

EXTRACTOR = PixelProbeExtractor.name


def rebuilt_slices(platform: TVDP, directory) -> dict[str, CatalogSlice]:
    """The platform's rows through the one builder's caller."""
    save_platform(platform, directory)
    return {"load_platform": load_platform(directory).slice}


def answers(catalog_slice: CatalogSlice, platform: TVDP, params: dict) -> dict:
    """Every scan and probe, keyed by name, on one slice."""
    lat_lo, lat_hi = sorted(params["lat_pair"])
    lng_lo, lng_hi = sorted(params["lng_pair"])
    box = BoundingBox(lat_lo, lng_lo, lat_hi + 0.01, lng_hi + 0.01)
    t_lo, t_hi = sorted(params["t_window"])
    vector = np.asarray(params["probe_levels"], dtype=np.float64)
    type_ids = [platform.catalog.type_id("condition", label) for label in LABELS]
    out = {
        "spatial_ids.region": catalog_slice.spatial_ids(
            SpatialQuery(region=box, mode=params["mode"], direction_deg=90.0)
        ).tolist(),
        "spatial_ids.point": catalog_slice.spatial_ids(
            SpatialQuery(
                point=GeoPoint(lat_lo, lng_lo),
                radius_m=params["radius_m"],
                mode=params["mode"],
            )
        ).tolist(),
        "spatial_ids.camera_facing": catalog_slice.spatial_ids(
            SpatialQuery(region=box, mode="camera", direction_deg=90.0)
        ).tolist(),
        "temporal_ids": catalog_slice.temporal_ids(
            TemporalQuery(start=float(t_lo), end=float(t_hi))
        ).tolist(),
        "temporal_ids.uploading": catalog_slice.temporal_ids(
            TemporalQuery(end=float(t_hi), field="timestamp_uploading")
        ).tolist(),
        "best_confidence": [
            column.tolist()
            for column in catalog_slice.best_confidence(
                type_ids, params["min_confidence"], params["source"]
            )
        ],
        # The label columns one by one, unfiltered, and how many
        # annotations rebuild and annotate() each put in them.
        "label_columns": {
            type_id: [column.tolist() for column in catalog_slice.best_confidence([type_id])]
            for type_id in type_ids
        },
        "annotation_count": [catalog_slice.annotation_count(t) for t in type_ids],
        "spatial_ids.scene": catalog_slice.spatial_ids(SpatialQuery(region=box)).tolist(),
        "spatial_ids.depicting": catalog_slice.spatial_ids(
            SpatialQuery(point=GeoPoint(lat_lo, lng_lo), radius_m=0.0)
        ).tolist(),
        "overlapping_ids": catalog_slice.overlapping_ids(
            FieldOfView(GeoPoint(lat_lo, lng_lo), 90.0, 60.0, 3000.0)
        ).tolist(),
        "text.scores.any": by_score(*catalog_slice.text.scores(sorted(VOCAB))),
        "text.scores.all": by_score(
            *catalog_slice.text.scores(sorted(VOCAB)[:2], "all")
        ),
        "extractors": sorted(catalog_slice.visual_indexes()),
    }
    if EXTRACTOR in catalog_slice.visual_indexes():
        out["spatial_visual_topk"] = catalog_slice.spatial_visual_topk(
            EXTRACTOR, box, vector, params["k"]
        )
        lsh = catalog_slice.lsh(EXTRACTOR)
        columns, candidates = lsh.topk_in_buckets(lsh.bucket_keys(vector), vector, params["k"])
        out["topk_in_buckets"] = ([column.tolist() for column in columns], candidates)
    return out


def assert_rebuilt_matches_live(platform: TVDP, params: dict, directory) -> None:
    live = answers(platform.slice, platform, params)
    for path, rebuilt in rebuilt_slices(platform, directory).items():
        got = answers(rebuilt, platform, params)
        for probe, want in live.items():
            assert got[probe] == want, f"{path}: {probe}: {got[probe]} != {want}"
            # == compares distances by value; pin bit-identity too.
            assert repr(got[probe]) == repr(want), f"{path}: {probe}"


@settings(max_examples=25, deadline=None)
@given(
    specs=image_specs,
    params=query_params,
    feature_picks=st.lists(st.integers(0, 63), min_size=16, max_size=16),
    checkpoint=st.integers(1, 15),
)
def test_slice_rebuilt_from_rows_answers_like_the_incremental_one(
    tmp_path_factory, specs, params, feature_picks, checkpoint
):
    platform = TVDP()
    platform.catalog.define("condition", LABELS)
    platform.register_extractor(PixelProbeExtractor())
    stored: list[int] = []
    for step, (spec, pick) in enumerate(zip(specs, feature_picks)):
        receipt = platform.upload_image(
            image=tie_prone_image(spec["levels"], spec["delta"]),
            fov=FieldOfView(
                GeoPoint(spec["lat"], spec["lng"]), spec["direction"], 60.0, 500.0
            ),
            captured_at=float(spec["t"]),
            uploaded_at=float(spec["t"]) + 1.0,
            keywords=tuple(spec["keywords"]),
        )
        if not receipt.deduplicated:
            stored.append(receipt.image_id)
        if spec["annotation"] is not None:
            label, confidence, source = spec["annotation"]
            platform.annotations.annotate(
                receipt.image_id, "condition", label, confidence, source=source
            )
        # A feature request for some earlier image: vectors are stored
        # (and indexed) out of image-id order, unlike the rebuild.
        platform.feature_vector(stored[pick % len(stored)], EXTRACTOR)
        if step % 5 == 4:
            platform.add_augmented(stored[0], [Augmentation("flip_v", flip_vertical)])
        if step + 1 == checkpoint:
            assert_rebuilt_matches_live(platform, params, tmp_path_factory.mktemp("mid"))
    platform.extract_features(EXTRACTOR)
    assert_rebuilt_matches_live(platform, params, tmp_path_factory.mktemp("end"))


class TestSidecarUnderConcurrentWrites:
    """Column scans racing ``index_image`` / ``index_vector``: every
    answer is the brute-force answer over *some* prefix of the writes —
    ids, points and vectors from one moment, never a longer id column
    than vector buffer or the other way round."""

    N, DIM, K = 300, 6, 5
    EVERYWHERE = BoundingBox(33.0, -119.0, 35.0, -117.0)

    def brute(self, vectors, m, probe):
        """Top-K of image ids 1..m (row i holds image i + 1)."""
        distances = np.linalg.norm(vectors[:m] - probe, axis=1)
        order = sorted(range(m), key=lambda i: (float(distances[i]), i))[: self.K]
        return [(i + 1, float(distances[i])) for i in order]

    @staticmethod
    def vectors_listed(built) -> int:
        """Rows of the vector point columns: ``index_vector``'s last write."""
        with built._lock:
            return len(built._vector_points["race"])

    def writer(self, built, vectors):
        """Store, index and vector image 1..N in turn (row i holds image
        i + 1), as uploads followed by feature requests do."""

        def write_all():
            for i in range(self.N):
                lat, lng = 34.0 + i / self.N, -118.0 - i / self.N
                image_id = built.db.insert(
                    "images",
                    {
                        "uri": f"race://{i}", "content_hash": str(i),
                        "lat": lat, "lng": lng, "is_augmented": False,
                        "timestamp_capturing": 0.0, "timestamp_uploading": 0.0,
                    },
                )
                fov = FieldOfView(GeoPoint(lat, lng), 0.0, 60.0, 100.0)
                built.index_image(image_id, fov, ())
                built.index_vector("race", image_id, vectors[i])

        return write_all

    def test_every_scan_answers_some_prefix_of_the_writes(self):
        rng = np.random.default_rng(11)
        vectors = rng.normal(0.0, 1.0, (self.N, self.DIM))
        probe = rng.normal(0.0, 1.0, self.DIM)
        built = CatalogSlice(Database.tvdp())
        built.add_extractor("race", self.DIM)
        camera = SpatialQuery(region=self.EVERYWHERE, mode="camera")

        write_all = self.writer(built, vectors)

        def read_once():
            # Last write of a cycle (index_vector lists the point): at
            # most the points listed by the time the scans below look.
            # Counted off the columns — asking for a tree would have the
            # reader do the writer's work inside the race.
            before = self.vectors_listed(built)
            ids = built.spatial_ids(camera).tolist()
            ranked = built.spatial_visual_topk("race", self.EVERYWHERE, probe, self.K)
            return before, built.fov_count(), ids, ranked

        answers = read_while_writing(read_once, write_all)
        raced = sum(1 for before, after, _, _ in answers if 0 < after and before < self.N)
        assert raced >= 3, f"only {raced} queries overlapped the writes"
        for before, after, ids, ranked in answers:
            assert ids == list(range(1, len(ids) + 1)) and before <= len(ids) <= after
            assert any(
                ranked == self.brute(vectors, m, probe) for m in range(before, after + 1)
            ), (before, after, ranked)

    def test_points_follow_their_vectors_whatever_order_inserts_land_in(self):
        """Four extraction threads, and a caller inserting straight into
        the live LSH index: the rows the point columns rank are the rows
        the index said it used, so every id keeps its own distance."""
        rng = np.random.default_rng(12)
        vectors = rng.normal(0.0, 1.0, (self.N, self.DIM))
        probe = rng.normal(0.0, 1.0, self.DIM)
        built = CatalogSlice(Database.tvdp())
        built.add_extractor("race", self.DIM)
        for i in range(self.N):
            built.db.insert(
                "images",
                {
                    "uri": f"race://{i}", "content_hash": str(i),
                    "lat": 34.0, "lng": -118.0, "is_augmented": False,
                    "timestamp_capturing": 0.0, "timestamp_uploading": 0.0,
                },
            )
        built.lsh("race").insert("stranger", np.zeros(self.DIM))
        failures: list[BaseException] = []

        def extract(ids):
            try:
                for image_id in ids:
                    built.index_vector("race", image_id, vectors[image_id - 1])
            except BaseException as exc:
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=extract, args=(range(1 + lane, self.N + 1, 4),))
                for lane in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        ranked = built.spatial_visual_topk("race", self.EVERYWHERE, probe, self.N)
        distances = np.linalg.norm(vectors - probe, axis=1)
        own = {i + 1: float(distances[i]) for i in range(self.N)}
        assert ranked == sorted(own.items(), key=lambda pair: (pair[1], pair[0]))


class TestLabelColumnsUnderConcurrentAnnotation:
    """``best_confidence`` racing ``annotate``: ids, confidences and
    sources are read from one moment, so every answer is the group-max
    over *some* prefix of the annotations."""

    N, IMAGES = 2000, 150

    def test_every_answer_is_the_group_max_over_some_prefix(self):
        built = CatalogSlice(Database.tvdp())
        catalog = ClassificationCatalog(built.db)
        catalog.define("condition", ["dirty"])
        service = AnnotationService(built, catalog)
        for i in range(self.IMAGES):
            built.db.insert(
                "images",
                {
                    "uri": f"race://{i}", "content_hash": str(i),
                    "lat": 34.0, "lng": -118.0, "is_augmented": False,
                    "timestamp_capturing": 0.0, "timestamp_uploading": 0.0,
                },
            )
        # Images come round again with other confidences and sources.
        planned = [
            ((i * 37) % self.IMAGES + 1, ((i * 7) % 11) / 10.0, ("human", "machine")[i % 2])
            for i in range(self.N)
        ]
        best: dict[int, float] = {}
        prefixes = {repr(([], []))}
        for image_id, confidence, source in planned:
            if source == "machine":
                best[image_id] = max(best.get(image_id, 0.0), confidence)
            ids = sorted(best)
            prefixes.add(repr((ids, [best[i] for i in ids])))
        type_id = catalog.type_id("condition", "dirty")

        def write_all():
            for image_id, confidence, source in planned:
                service.annotate(image_id, "condition", "dirty", confidence, source=source)

        def read_once():
            ids, confidences = built.best_confidence([type_id], source="machine")
            return ids.tolist(), confidences.tolist()

        answers = read_while_writing(read_once, write_all)
        ids = sorted(best)
        settled = (([], []), (ids, [best[i] for i in ids]))
        raced = sum(1 for answer in answers if answer not in settled)
        assert raced >= 3, f"only {raced} queries overlapped the annotations"
        for answer in answers:
            assert repr(answer) in prefixes
        assert built.annotation_count(type_id) == self.N


class TestWritesBuildNoTree:
    """Nothing in the platform inserts into a tree: not an upload, an
    annotation or a feature request, not a reload or a repartition, not
    a served query of any family at 1 or 4 shards, not ``/stats``, not
    scene localisation, panorama selection or the hybrid probe the
    benchmark's shadow trace makes.  Only the figures and the tests'
    oracles build the paper's trees."""

    TREES = ("index.rtree.", "index.oriented.", "index.visual_rtree.")

    def test_nothing_in_the_platform_inserts_into_a_tree(self, tmp_path, monkeypatch):
        inserted: list[str] = []
        for tree in (OrientedRTree, VisualRTree):
            def counted(self, *args, _insert=tree.insert, _name=tree.__name__):
                inserted.append(_name)
                return _insert(self, *args)

            monkeypatch.setattr(tree, "insert", counted)

        platform = TVDP()
        platform.register_extractor(ColorHistogramExtractor())
        platform.catalog.define("street_cleanliness", ["clean", "dirty"])
        client = TVDPClient(TVDPService(platform, deterministic_keys=True))
        client.create_key(client.register_user("writer", role="researcher"))
        records = generate_lasan_dataset(n_per_class=2, image_size=32, seed=0)
        before = obs.snapshot()
        for record in records:
            body = client.add_image(
                record.image, record.fov, record.captured_at, record.uploaded_at,
                keywords=record.keywords,
            )
            client.annotate(body["image_id"], "street_cleanliness", "clean")
            client.annotate(body["image_id"], "street_cleanliness", "dirty", source="machine")
            client.get_features("color_hsv_20_20_10", image_id=body["image_id"])
        assert client.stats()["indexed_fovs"] == len(records)

        everywhere = BoundingBox(33.0, -119.0, 35.0, -117.0)
        visual = VisualQuery("color_hsv_20_20_10", example=records[0].image, k=3)
        served = [
            SpatialQuery(region=everywhere),
            SpatialQuery(point=records[0].fov.camera, radius_m=0.0, direction_deg=0.0),
            SpatialQuery(region=everywhere, mode="camera"),
            visual,
            CategoricalQuery("street_cleanliness", ("clean",)),
            TextualQuery(" ".join(records[0].keywords)),
            TemporalQuery(start=0.0),
            HybridQuery(queries=(SpatialQuery(region=everywhere), visual)),
        ]
        save_platform(platform, tmp_path)
        reloaded = load_platform(tmp_path)
        reloaded.register_extractor(ColorHistogramExtractor())
        first = platform.image_ids()[0]
        for one in (platform, reloaded):
            want = [one.execute(query) for query in served]
            one.set_shards(4)
            assert [one.execute(query) for query in served] == want
            assert one.localize_scene(first).supporting_fovs >= 1
            assert select_panorama_frames(one, records[0].fov.camera).image_ids
        vector = platform.feature_vector(first, "color_hsv_20_20_10")
        probe = platform.hybrid_indexes()["color_hsv_20_20_10"]
        assert probe.spatial_visual_knn(everywhere, vector, 3)[0] == (first, 0.0)
        moved = obs.counters_delta(before, obs.snapshot())
        assert not [name for name in moved if name.startswith(self.TREES)], moved
        assert inserted == []
