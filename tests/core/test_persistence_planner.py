"""Tests for whole-platform persistence and query EXPLAIN."""

import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import persistence
from repro.core import (
    CategoricalQuery,
    HybridQuery,
    SpatialQuery,
    TemporalQuery,
    TextualQuery,
    TVDP,
    VisualQuery,
    explain,
    load_platform,
    save_platform,
)
from repro.datasets import generate_lasan_dataset
from repro.errors import QueryError, TVDPError
from repro.features import ColorHistogramExtractor
from repro.geo import BoundingBox, GeoPoint
from repro.imaging import CLEANLINESS_CLASSES


@pytest.fixture()
def populated():
    platform = TVDP()
    platform.register_extractor(ColorHistogramExtractor())
    platform.catalog.define("street_cleanliness", list(CLEANLINESS_CLASSES))
    records = generate_lasan_dataset(n_per_class=4, image_size=32, seed=0)
    for record in records:
        receipt = platform.upload_image(
            record.image, record.fov, record.captured_at, record.uploaded_at,
            keywords=record.keywords,
        )
        platform.annotations.annotate(
            receipt.image_id, "street_cleanliness", record.label, 1.0, "human"
        )
    platform.extract_features("color_hsv_20_20_10")
    return platform, records


class TestPlatformPersistence:
    def test_round_trip_rows_and_blobs(self, populated, tmp_path):
        platform, records = populated
        save_platform(platform, tmp_path / "snap")
        restored = load_platform(tmp_path / "snap")
        assert restored.db.row_counts() == platform.db.row_counts()
        for image_id in platform.image_ids():
            assert restored.image(image_id) == platform.image(image_id)

    def test_queries_survive_reload(self, populated, tmp_path):
        platform, records = populated
        region = BoundingBox(34.03, -118.27, 34.06, -118.23)
        queries = [
            SpatialQuery(region=region, mode="camera"),
            TextualQuery(text="encampment tent"),
            CategoricalQuery("street_cleanliness", labels=("clean",)),
            VisualQuery(
                extractor_name="color_hsv_20_20_10", example=records[0].image, k=5
            ),
        ]
        before = [platform.execute(q) for q in queries]
        save_platform(platform, tmp_path / "snap")
        restored = load_platform(tmp_path / "snap")
        # Extractors are code, not data: re-register after load.
        restored.register_extractor(ColorHistogramExtractor())
        after = [restored.execute(q) for q in queries]
        for b, a in zip(before, after):
            assert {r.image_id for r in b} == {r.image_id for r in a}

    def test_temporal_answers_survive_reload_of_an_older_snapshot(
        self, populated, tmp_path
    ):
        """A snapshot written before the time indexes existed lists no
        ordered index; the loaded platform still has both."""
        platform, records = populated
        stamps = sorted(r.captured_at for r in records)
        queries = [
            TemporalQuery(start=stamps[2], end=stamps[-3]),
            TemporalQuery(end=stamps[5]),
            TemporalQuery(start=0.0, field="timestamp_uploading"),
        ]
        save_platform(platform, tmp_path / "snap")
        db_file = tmp_path / "snap" / "db.json"
        document = json.loads(db_file.read_text())
        for entry in document["tables"]:
            assert entry.pop("ordered_indexes") == (
                ["timestamp_capturing", "timestamp_uploading"]
                if entry["schema"]["name"] == "images"
                else []
            )
        db_file.write_text(json.dumps(document))
        restored = load_platform(tmp_path / "snap")
        for query in queries:
            assert restored.execute(query) == platform.execute(query)

    def test_dedup_state_survives(self, populated, tmp_path):
        platform, records = populated
        save_platform(platform, tmp_path / "snap")
        restored = load_platform(tmp_path / "snap")
        receipt = restored.upload_image(
            records[0].image, records[0].fov, 0.0, 1.0
        )
        assert receipt.deduplicated

    def test_upload_continues_after_reload(self, populated, tmp_path):
        platform, _ = populated
        save_platform(platform, tmp_path / "snap")
        restored = load_platform(tmp_path / "snap")
        fresh = generate_lasan_dataset(n_per_class=1, image_size=32, seed=99)[0]
        receipt = restored.upload_image(fresh.image, fresh.fov, 0.0, 1.0)
        assert not receipt.deduplicated
        assert receipt.image_id not in platform.image_ids()

    def test_missing_snapshot_raises(self, tmp_path):
        with pytest.raises(TVDPError):
            load_platform(tmp_path / "nothing")

    @staticmethod
    def grown_after_a_save(platform, snap) -> tuple[dict, dict]:
        """Save ``platform`` to ``snap``, then upload one more image: the
        saved row counts and blobs, by image id."""
        save_platform(platform, snap)
        saved = platform.db.row_counts(), {i: platform.image(i) for i in platform.image_ids()}
        fresh = generate_lasan_dataset(n_per_class=1, image_size=32, seed=99)[0]
        platform.upload_image(fresh.image, fresh.fov, 0.0, 1.0)
        return saved

    def test_a_save_that_dies_writing_the_blobs_keeps_the_last_snapshot(
        self, populated, tmp_path, monkeypatch
    ):
        platform, _ = populated
        snap = tmp_path / "snap"
        rows, blobs = self.grown_after_a_save(platform, snap)
        real = np.savez_compressed

        def dies_half_way(file, **arrays):
            whole = io.BytesIO()
            real(whole, **arrays)
            torn = whole.getvalue()[: len(whole.getvalue()) // 2]
            if isinstance(file, (str, os.PathLike)):
                Path(file).write_bytes(torn)
            else:
                file.write(torn)
            raise OSError("no space left on device")

        monkeypatch.setattr(np, "savez_compressed", dies_half_way)
        with pytest.raises(OSError):
            save_platform(platform, snap)
        monkeypatch.undo()
        restored = load_platform(snap)
        assert restored.db.row_counts() == rows
        assert {i: restored.image(i) for i in restored.image_ids()} == blobs

    def test_blobs_saved_past_the_rows_are_dropped_on_load(self, populated, tmp_path, monkeypatch):
        # A save that dies after the blobs, before the rows: the new
        # blobs beside the old rows load as the old platform.
        platform, _ = populated
        snap = tmp_path / "snap"
        rows, blobs = self.grown_after_a_save(platform, snap)

        def dies(*args, **kwargs):
            raise OSError("killed")

        monkeypatch.setattr(persistence, "dump_database", dies)
        with pytest.raises(OSError):
            save_platform(platform, snap)
        restored = load_platform(snap)
        assert restored.db.row_counts() == rows
        assert {i: restored.image(i) for i in restored.image_ids()} == blobs
        assert restored.stats()["blobs"] == len(blobs)

    def test_unreadable_blobs_raise(self, populated, tmp_path):
        platform, _ = populated
        save_platform(platform, tmp_path / "snap")
        (tmp_path / "snap" / "blobs.npz").write_bytes(b"PK\x03\x04 not a zip")
        with pytest.raises(TVDPError):
            load_platform(tmp_path / "snap")


class TestExplain:
    def test_spatial_plan(self, populated):
        platform, _ = populated
        plan = explain(
            platform,
            SpatialQuery(
                region=BoundingBox(34.0, -118.3, 34.1, -118.2),
                direction_deg=90.0,
            ),
        )
        assert plan.query_type == "spatial"
        assert plan.access_path == "columns.scene_scan"
        assert "direction_filter" in plan.details
        assert plan.rows is None

    def test_visual_plan_modes(self, populated):
        platform, records = populated
        topk = explain(
            platform,
            VisualQuery(extractor_name="color_hsv_20_20_10", example=records[0].image),
        )
        assert "query_topk" in topk.access_path
        radius = explain(
            platform,
            VisualQuery(
                extractor_name="color_hsv_20_20_10",
                example=records[0].image,
                max_distance=0.5,
            ),
        )
        assert "query_radius" in radius.access_path

    def test_hybrid_spatial_visual_uses_hybrid_index(self, populated):
        platform, records = populated
        plan = explain(
            platform,
            HybridQuery(
                queries=(
                    SpatialQuery(region=BoundingBox(34.0, -118.3, 34.1, -118.2)),
                    VisualQuery(
                        extractor_name="color_hsv_20_20_10", example=records[0].image
                    ),
                )
            ),
        )
        # One fused node over the extractor's point columns (the Visual
        # R-tree's answer, by filter-then-rank), not an intersection:
        # one pass, so no child.
        assert "columns.filter_then_rank" in plan.access_path
        assert plan.children == ()
        # A general conjunction's children are its parts, each analyzed.
        conjunction = explain(
            platform,
            HybridQuery(
                queries=(
                    SpatialQuery(region=BoundingBox(34.0, -118.3, 34.1, -118.2)),
                    TemporalQuery(start=0.0),
                )
            ),
            analyze=True,
        )
        assert [child.query_type for child in conjunction.children] == ["spatial", "temporal"]
        assert all(child.rows is not None for child in conjunction.children)

    def test_generic_hybrid_intersection(self, populated):
        platform, _ = populated
        plan = explain(
            platform,
            HybridQuery(
                queries=(
                    TemporalQuery(start=0.0),
                    CategoricalQuery("street_cleanliness", labels=("clean",)),
                )
            ),
        )
        assert "intersect" in plan.access_path
        assert len(plan.children) == 2

    def test_temporal_plan_names_the_ordered_index(self, populated):
        platform, _ = populated
        plan = explain(
            platform,
            TemporalQuery(start=0.0, field="timestamp_uploading"),
            analyze=True,
        )
        assert plan.access_path == "images.ordered_columns[timestamp_uploading]"
        assert "log n" in plan.cost["cost"]
        # The index touches the rows it returns and no others.
        assert plan.charges["rows_scanned"] == plan.rows == 20

    def test_analyze_fills_rows_and_time(self, populated):
        platform, _ = populated
        plan = explain(platform, TemporalQuery(start=0.0), analyze=True)
        assert plan.rows == 20
        assert plan.elapsed_ms is not None and plan.elapsed_ms >= 0.0

    def test_render(self, populated):
        platform, _ = populated
        plan = explain(platform, TextualQuery(text="trash"), analyze=True)
        text = plan.render()
        assert "inverted_index" in text
        assert "rows=" in text

    def test_unknown_query_raises(self, populated):
        platform, _ = populated
        with pytest.raises(QueryError):
            explain(platform, object())
