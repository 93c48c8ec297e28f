"""Tests for the TVDP platform facade: upload, access, queries."""

import numpy as np
import pytest

from repro import obs
from repro.core import (
    CategoricalQuery,
    HybridQuery,
    SpatialQuery,
    TemporalQuery,
    TextualQuery,
    TVDP,
    VisualQuery,
)
from repro.datasets import generate_lasan_dataset
from repro.errors import MalformedQueryError, QueryError, TVDPError
from repro.features import ColorHistogramExtractor
from repro.geo import BoundingBox, FieldOfView, GeoPoint
from repro.imaging import CLEANLINESS_CLASSES, flip_horizontal, Augmentation, solid_color


@pytest.fixture(scope="module")
def records():
    return generate_lasan_dataset(n_per_class=6, image_size=32, seed=0)


@pytest.fixture()
def platform(records):
    tvdp = TVDP()
    uploader = tvdp.add_user("lasan", role="government", organization="City of LA")
    for record in records:
        tvdp.upload_image(
            image=record.image,
            fov=record.fov,
            captured_at=record.captured_at,
            uploaded_at=record.uploaded_at,
            keywords=record.keywords,
            uploader_id=uploader,
        )
    return tvdp


class TestUpload:
    def test_rows_created(self, platform, records):
        counts = platform.db.row_counts()
        assert counts["images"] == len(records)
        assert counts["image_fov"] == len(records)
        assert counts["image_scene_location"] == len(records)
        assert counts["image_manual_keywords"] >= len(records)

    def test_dedup(self, platform, records):
        first = records[0]
        receipt = platform.upload_image(
            image=first.image,
            fov=first.fov,
            captured_at=0.0,
            uploaded_at=1.0,
        )
        assert receipt.deduplicated
        assert platform.db.row_counts()["images"] == len(records)

    def test_image_and_fov_round_trip(self, platform, records):
        image_ids = platform.image_ids()
        img = platform.image(image_ids[0])
        assert img.shape == (32, 32)
        fov = platform.fov(image_ids[0])
        assert fov.angle_deg > 0

    def test_missing_blob_raises(self, platform):
        with pytest.raises(TVDPError):
            platform.image(10_000)
        with pytest.raises(TVDPError):
            platform.fov(10_000)

    def test_augmentation(self, platform):
        image_id = platform.image_ids()[0]
        aug_ids = platform.add_augmented(
            image_id, [Augmentation("flip_h", flip_horizontal)]
        )
        assert len(aug_ids) == 1
        row = platform.db.table("images").get(aug_ids[0])
        assert row["is_augmented"] is True
        assert row["source_image_id"] == image_id
        assert row["augmentation_name"] == "flip_h"
        assert aug_ids[0] not in platform.image_ids(include_augmented=False)


class TestSpatialQueries:
    def test_camera_mode_matches_db(self, platform):
        region = BoundingBox(34.035, -118.26, 34.05, -118.24)
        results = platform.execute(SpatialQuery(region=region, mode="camera"))
        expected = {
            row["image_id"]
            for row in platform.db.table("images").all_rows()
            if region.contains_point(GeoPoint(row["lat"], row["lng"]))
            and not row["is_augmented"]
        }
        assert {r.image_id for r in results} == expected

    def test_scene_mode_superset_of_camera(self, platform):
        region = BoundingBox(34.035, -118.26, 34.05, -118.24)
        camera = {r.image_id for r in platform.execute(SpatialQuery(region=region, mode="camera"))}
        scene = {r.image_id for r in platform.execute(SpatialQuery(region=region, mode="scene"))}
        assert camera <= scene

    def test_point_radius(self, platform):
        results = platform.execute(
            SpatialQuery(point=GeoPoint(34.045, -118.25), radius_m=800.0)
        )
        assert isinstance(results, list)

    def test_direction_filter_reduces(self, platform):
        region = BoundingBox(34.03, -118.27, 34.06, -118.23)
        unfiltered = platform.execute(SpatialQuery(region=region))
        filtered = platform.execute(
            SpatialQuery(region=region, direction_deg=0.0, direction_tolerance_deg=30.0)
        )
        assert len(filtered) <= len(unfiltered)

    def test_invalid_construction(self):
        with pytest.raises(QueryError):
            SpatialQuery()
        with pytest.raises(QueryError):
            SpatialQuery(
                region=BoundingBox(0, 0, 1, 1), point=GeoPoint(0, 0), radius_m=1.0
            )
        with pytest.raises(QueryError):
            SpatialQuery(point=GeoPoint(0, 0), radius_m=1.0, mode="teleport")


class TestVisualQueries:
    def test_requires_extraction_first(self, platform, records):
        platform.register_extractor(ColorHistogramExtractor())
        with pytest.raises(QueryError):
            platform.execute(
                VisualQuery(extractor_name="color_hsv_20_20_10", example=records[0].image)
            )

    def test_topk_by_example(self, platform, records):
        platform.register_extractor(ColorHistogramExtractor())
        platform.extract_features("color_hsv_20_20_10")
        results = platform.execute(
            VisualQuery(
                extractor_name="color_hsv_20_20_10", example=records[0].image, k=5
            )
        )
        assert len(results) == 5
        # The stored copy of the example is its own nearest neighbour.
        assert results[0].score == pytest.approx(1.0)
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("shards", [None, 4])
    @pytest.mark.parametrize("component", [1e200, float("nan"), float("inf")])
    def test_a_vector_no_distance_can_be_taken_to_is_malformed(
        self, platform, shards, component
    ):
        """1e200 is finite and its square is not: every distance to it
        is infinite, which used to rank the lowest ids at score 0.0."""
        platform.register_extractor(ColorHistogramExtractor())
        platform.extract_features("color_hsv_20_20_10")
        if shards:
            platform.set_shards(shards)
        visual = VisualQuery("color_hsv_20_20_10", vector=[component] * 50, k=3)
        region = SpatialQuery(region=BoundingBox(33.0, -119.0, 35.0, -117.0))
        for query in (visual, HybridQuery(queries=(region, visual))):
            with pytest.raises(MalformedQueryError):
                platform.execute(query)

    def test_a_query_vector_is_held_flat_with_its_squared_norm(self):
        """Whoever builds the query — the API's schema or a Python
        caller — the vector is flattened and measured there, once;
        ``prepare_visual`` and the schema read ``sq_norm`` off it."""
        query = VisualQuery("x", vector=[[3, 4]])
        assert query.vector.dtype == np.float64 and query.vector.tolist() == [3.0, 4.0]
        assert query.sq_norm == 25.0
        assert VisualQuery("x", vector=[1e200] * 2).sq_norm == float("inf")
        assert VisualQuery("x", example=solid_color(8, 8, (0.1, 0.2, 0.3))).sq_norm is None
        for junk in (["a"], [[1.0, 2.0], [3.0]], [10**400]):
            with pytest.raises(QueryError, match="vector must be numbers"):
                VisualQuery("x", vector=junk)

    def test_query_validation(self, records):
        with pytest.raises(QueryError):
            VisualQuery(extractor_name="x")
        with pytest.raises(QueryError):
            VisualQuery(extractor_name="x", example=records[0].image, k=0)


class TestTextualTemporalQueries:
    def test_textual_any(self, platform):
        results = platform.execute(TextualQuery(text="encampment tent"))
        assert results
        # All hits actually carry one of the words.
        keyword_rows = platform.db.table("image_manual_keywords").all_rows()
        tagged = {
            row["image_id"]
            for row in keyword_rows
            if row["keyword"] in ("encampment", "tent")
        }
        assert {r.image_id for r in results} <= tagged

    def test_textual_all_narrower(self, platform):
        any_hits = platform.execute(TextualQuery(text="dumping trash"))
        all_hits = platform.execute(TextualQuery(text="dumping trash", match="all"))
        assert len(all_hits) <= len(any_hits)

    def test_textual_validation(self):
        with pytest.raises(QueryError):
            TextualQuery(text="  ")
        with pytest.raises(QueryError):
            TextualQuery(text="x", match="fuzzy")

    def test_temporal_window(self, platform, records):
        t0 = min(r.captured_at for r in records)
        t1 = t0 + 86_400.0
        results = platform.execute(TemporalQuery(start=t0, end=t1))
        expected = sum(1 for r in records if t0 <= r.captured_at <= t1)
        assert len(results) == expected

    def test_temporal_open_ended(self, platform, records):
        results = platform.execute(TemporalQuery(start=0.0))
        assert len(results) == len(records)

    def test_temporal_validation(self):
        with pytest.raises(QueryError):
            TemporalQuery()
        with pytest.raises(QueryError):
            TemporalQuery(start=10.0, end=5.0)
        with pytest.raises(QueryError):
            TemporalQuery(start=0.0, field="timestamp_deleted")
        # A NaN bound used to return [] silently and has no position in
        # the ordered index; a non-number used to fail inside execution.
        for bad in (float("nan"), "5", [1.0], True):
            with pytest.raises(QueryError):
                TemporalQuery(start=bad)
            with pytest.raises(QueryError):
                TemporalQuery(start=0.0, end=bad)

    def test_temporal_bounds_are_inclusive(self, platform, records):
        stamps = sorted(r.captured_at for r in records)
        results = platform.execute(TemporalQuery(start=stamps[1], end=stamps[3]))
        expected = sum(1 for r in records if stamps[1] <= r.captured_at <= stamps[3])
        assert len(results) == expected >= 3
        assert [r.image_id for r in results] == sorted(r.image_id for r in results)
        everything = platform.execute(
            TemporalQuery(start=float("-inf"), end=float("inf"))
        )
        assert len(everything) == len(records)


class TestCategoricalAndHybrid:
    def setup_annotations(self, platform):
        platform.catalog.define("street_cleanliness", list(CLEANLINESS_CLASSES))
        ids = platform.image_ids()
        platform.annotations.annotate(
            ids[0], "street_cleanliness", "encampment", 0.9, source="machine"
        )
        platform.annotations.annotate(
            ids[1], "street_cleanliness", "clean", 0.8, source="machine"
        )
        platform.annotations.annotate(
            ids[2], "street_cleanliness", "encampment", 0.4, source="human"
        )
        return ids

    def test_categorical(self, platform):
        ids = self.setup_annotations(platform)
        results = platform.execute(
            CategoricalQuery("street_cleanliness", labels=("encampment",))
        )
        assert {r.image_id for r in results} == {ids[0], ids[2]}

    def test_categorical_confidence_and_source(self, platform):
        ids = self.setup_annotations(platform)
        confident = platform.execute(
            CategoricalQuery(
                "street_cleanliness", labels=("encampment",), min_confidence=0.5
            )
        )
        assert {r.image_id for r in confident} == {ids[0]}
        human = platform.execute(
            CategoricalQuery(
                "street_cleanliness", labels=("encampment",), source="human"
            )
        )
        assert {r.image_id for r in human} == {ids[2]}

    def test_hybrid_spatial_categorical(self, platform):
        ids = self.setup_annotations(platform)
        row = platform.db.table("images").get(ids[0])
        region = BoundingBox.around(GeoPoint(row["lat"], row["lng"]), 500.0)
        results = platform.execute(
            HybridQuery(
                queries=(
                    SpatialQuery(region=region, mode="camera"),
                    CategoricalQuery("street_cleanliness", labels=("encampment",)),
                )
            )
        )
        assert ids[0] in {r.image_id for r in results}
        assert ids[1] not in {r.image_id for r in results}

    def test_hybrid_spatial_visual_uses_hybrid_index(self, platform, records):
        platform.register_extractor(ColorHistogramExtractor())
        platform.extract_features("color_hsv_20_20_10")
        region = BoundingBox(34.03, -118.27, 34.06, -118.23)
        results = platform.execute(
            HybridQuery(
                queries=(
                    SpatialQuery(region=region, mode="camera"),
                    VisualQuery(
                        extractor_name="color_hsv_20_20_10",
                        example=records[0].image,
                        k=5,
                    ),
                )
            )
        )
        assert len(results) <= 5
        for result in results:
            row = platform.db.table("images").get(result.image_id)
            assert region.contains_point(GeoPoint(row["lat"], row["lng"]))

    def test_a_general_hybrid_is_one_query_serial_and_sharded(self, platform):
        """Its parts run under their own spans, but only the hybrid is
        counted in ``platform.queries`` and the hot-query tracker — the
        same on one shard, where the platform runs the parts, and on
        two, where the router scatters them."""
        query = HybridQuery(
            queries=(TemporalQuery(start=0.0), TextualQuery(text="street trash"))
        )
        families = ("temporal", "textual", "hybrid")

        def counted():
            return [
                obs.metrics().counter("platform.queries", {"family": family}).value
                for family in families
            ]

        seen = {}
        for n_shards in (1, 2):
            platform.set_shards(n_shards)
            platform.execute(query)  # builds the partition, when sharded
            obs.hot_queries().reset()
            before = counted()
            with obs.span("test.request") as request:
                results = platform.execute(query)
            deltas = [after - b for after, b in zip(counted(), before)]
            shapes = {row["shape"]: row["count"] for row in obs.hot_queries().top(64)}
            seen[n_shards] = (results, deltas, shapes)
            if n_shards == 1:
                names = sorted(
                    span.name
                    for span in obs.ring_buffer().spans()
                    if span.trace_id == request.trace_id and span is not request
                )
                assert names == ["query.hybrid", "query.temporal", "query.textual"]
        platform.close()
        assert seen[1] == seen[2]
        results, deltas, shapes = seen[1]
        assert results and deltas == [0.0, 0.0, 1.0]
        assert list(shapes.values()) == [1] and next(iter(shapes)).startswith("hybrid(")

    def test_hybrid_validation(self):
        with pytest.raises(QueryError):
            HybridQuery(queries=(TemporalQuery(start=0.0),))

    def test_unknown_query_type(self, platform):
        with pytest.raises(QueryError):
            platform.execute("not a query")


class TestStats:
    def test_stats_shape(self, platform):
        stats = platform.stats()
        assert stats["blobs"] == stats["rows"]["images"]
        assert stats["indexed_fovs"] == stats["rows"]["image_fov"]
