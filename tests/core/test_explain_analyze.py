"""EXPLAIN-ANALYZE plan instrumentation and query-shape normalization."""

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
    explain,
)
from repro.core.queries import query_shape
from repro.datasets import generate_lasan_dataset
from repro.errors import QueryError
from repro.features import ColorHistogramExtractor
from repro.geo import BoundingBox, GeoPoint
from repro.imaging import CLEANLINESS_CLASSES


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


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


class TestQueryShape:
    def test_shape_is_literal_free(self):
        a = SpatialQuery(region=BoundingBox(34.0, -118.3, 34.1, -118.2))
        b = SpatialQuery(region=BoundingBox(40.0, -74.1, 40.1, -74.0))
        assert query_shape(a) == query_shape(b) == "spatial(mode=scene,region)"

    def test_structural_parameters_stay_in_shape(self):
        point = SpatialQuery(
            point=GeoPoint(34.0, -118.3), radius_m=100.0, direction_deg=90.0
        )
        assert query_shape(point) == "spatial(mode=scene,point+radius,direction)"
        assert (
            query_shape(VisualQuery(extractor_name="hsv", vector=[0.1], k=5))
            == "visual(extractor=hsv,k=5)"
        )
        assert (
            query_shape(
                VisualQuery(extractor_name="hsv", vector=[0.1], k=5, max_distance=0.5)
            )
            == "visual(extractor=hsv,k=5,radius)"
        )

    def test_categorical_textual_temporal_shapes(self):
        assert (
            query_shape(
                CategoricalQuery(
                    "street_cleanliness",
                    labels=("clean", "trash"),
                    min_confidence=0.5,
                    source="human",
                )
            )
            == "categorical(classification=street_cleanliness,labels=2,"
            "min_confidence,source=human)"
        )
        assert (
            query_shape(TextualQuery(text="tent encampment", match="all"))
            == "textual(match=all,terms=2)"
        )
        assert (
            query_shape(TemporalQuery(start=1.0))
            == "temporal(field=timestamp_capturing,start)"
        )
        assert (
            query_shape(TemporalQuery(start=1.0, end=2.0))
            == "temporal(field=timestamp_capturing,start+end)"
        )

    def test_hybrid_shape_composes_recursively(self):
        hybrid = HybridQuery(
            queries=(
                SpatialQuery(region=BoundingBox(34.0, -118.3, 34.1, -118.2)),
                VisualQuery(extractor_name="hsv", vector=[0.1], k=3),
            )
        )
        assert (
            query_shape(hybrid)
            == "hybrid(spatial(mode=scene,region)+visual(extractor=hsv,k=3))"
        )

    def test_unknown_type_raises(self):
        with pytest.raises(QueryError):
            query_shape(object())


class TestAnalyzeNodes:
    def test_analyze_fills_counter_deltas_and_shape(self, populated):
        platform, _ = populated
        plan = explain(platform, TemporalQuery(start=0.0), analyze=True)
        assert plan.rows == 20
        assert plan.shape == "temporal(field=timestamp_capturing,start)"
        # Executing the query bumps at least the platform.queries probe.
        assert any(
            name.startswith("platform.queries") for name in plan.counter_deltas
        )

    def test_plain_explain_has_no_analyze_fields(self, populated):
        platform, _ = populated
        plan = explain(platform, TemporalQuery(start=0.0))
        assert plan.rows is None
        assert plan.counter_deltas == {}
        assert plan.shape is None

    def test_hybrid_children_each_get_rows_and_time(self, populated):
        platform, records = populated
        plan = explain(
            platform,
            HybridQuery(
                queries=(
                    # Deliberately (visual, spatial): the fused plan
                    # normalizes children to (spatial, visual) and the
                    # analyzer must attribute each sub-query correctly.
                    VisualQuery(
                        extractor_name="color_hsv_20_20_10",
                        example=records[0].image,
                        k=5,
                    ),
                    SpatialQuery(region=BoundingBox(34.0, -118.3, 34.1, -118.2)),
                )
            ),
            analyze=True,
        )
        assert len(plan.children) == 2
        spatial_child, visual_child = plan.children
        assert spatial_child.query_type == "spatial"
        assert spatial_child.shape == "spatial(mode=scene,region)"
        assert visual_child.query_type == "visual"
        assert visual_child.shape == "visual(extractor=color_hsv_20_20_10,k=5)"
        for child in plan.children:
            assert child.rows is not None
            assert child.elapsed_ms is not None and child.elapsed_ms >= 0.0

    def test_to_dict_round_trips_nested_structure(self, populated):
        platform, _ = populated
        plan = explain(
            platform,
            HybridQuery(
                queries=(
                    TemporalQuery(start=0.0),
                    CategoricalQuery("street_cleanliness", labels=("clean",)),
                )
            ),
            analyze=True,
        )
        as_dict = plan.to_dict()
        assert as_dict["query_type"] == "hybrid"
        assert len(as_dict["children"]) == 2
        assert all(c["rows"] is not None for c in as_dict["children"])
        import json

        json.dumps(as_dict)  # must be JSON-serialisable for the API

    def test_analyze_attaches_plan_to_active_span(self, populated):
        platform, _ = populated
        with obs.span("test.explain") as sp:
            explain(platform, TemporalQuery(start=0.0), analyze=True)
            attached = sp.attrs.get("plan")
        assert attached is not None
        assert attached["query_type"] == "temporal"
        assert attached["rows"] == 20

    def test_render_includes_probe_line(self, populated):
        platform, _ = populated
        plan = explain(
            platform, TextualQuery(text="trash encampment"), analyze=True
        )
        text = plan.render()
        assert "probes:" in text
        assert "rows=" in text

    def test_analyze_feeds_hot_query_tracker(self, populated):
        platform, _ = populated
        explain(platform, TemporalQuery(start=0.0), analyze=True)
        shapes = [e["shape"] for e in obs.hot_queries().top()]
        assert "temporal(field=timestamp_capturing,start)" in shapes


class TestCostAnnotations:
    """Static COST_MODEL annotations on plan nodes, cross-checked
    against the probe counters ANALYZE actually measures."""

    def test_spatial_visual_hybrid_plans_carry_cost(self, populated):
        platform, records = populated
        spatial = SpatialQuery(region=BoundingBox(34.0, -118.3, 34.1, -118.2))
        visual = VisualQuery(
            extractor_name="color_hsv_20_20_10", example=records[0].image, k=5
        )
        for query in (spatial, visual):
            plan = explain(platform, query)
            assert plan.cost is not None
            assert plan.cost["cost"].startswith("O(")
        hybrid_plan = explain(platform, HybridQuery(queries=(spatial, visual)))
        assert hybrid_plan.cost is not None
        for child in hybrid_plan.children:
            assert child.cost is not None

    def test_dominant_counters_move_under_analyze(self, populated):
        """The model's claim is checkable: ANALYZE on a spatial query
        must bump at least one counter the annotation calls dominant."""
        platform, _ = populated
        plan = explain(
            platform,
            SpatialQuery(region=BoundingBox(34.0, -118.3, 34.1, -118.2)),
            analyze=True,
        )
        dominant = plan.cost["dominant_counters"]
        assert dominant
        moved = [
            name for name in dominant if plan.counter_deltas.get(name, 0) > 0
        ]
        assert moved, (
            f"none of the declared dominant counters {dominant} moved; "
            f"measured deltas: {plan.counter_deltas}"
        )

    def test_analyze_names_the_column_scan_and_moves_its_counters(self, populated):
        """Every spatial query — camera mode, scene mode, the fused
        hybrid — is answered from the columns: EXPLAIN says so, the
        scan's counters are among the dominant ones, and the bill is the
        rows examined — not zero, though no tree was walked and no row
        fetched."""
        platform, records = populated
        everywhere = BoundingBox(33.0, -119.0, 35.0, -117.0)
        camera = SpatialQuery(region=everywhere, mode="camera")
        fused = HybridQuery(
            queries=(
                SpatialQuery(region=everywhere),
                VisualQuery("color_hsv_20_20_10", example=records[0].image, k=5),
            )
        )
        for query, path in (
            (camera, "columns.camera_scan"),
            (SpatialQuery(region=everywhere), "columns.scene_scan"),
            (SpatialQuery(point=records[0].fov.camera, radius_m=0.0), "columns.scene_scan"),
            (fused, "columns.filter_then_rank"),
        ):
            assert path in explain(platform, query).access_path
            plan = explain(platform, query, analyze=True)
            assert path in plan.access_path and path in plan.render()
            assert plan.counter_deltas["index.columns.scans"] == 1
            assert plan.counter_deltas["index.columns.rows_examined"] == len(records)
            assert "index.columns.rows_examined" in plan.cost["dominant_counters"]
            assert plan.charges["probes.columns"] == len(records)
            assert "rows_scanned" not in plan.charges
            assert not any(
                name.startswith(("index.rtree", "index.oriented", "index.visual_rtree"))
                for name in plan.counter_deltas
            )

    def test_render_and_dict_include_cost(self, populated):
        platform, _ = populated
        plan = explain(
            platform, SpatialQuery(region=BoundingBox(34.0, -118.3, 34.1, -118.2))
        )
        assert "cost:" in plan.render()
        as_dict = plan.to_dict()
        assert as_dict["cost"]["dominant_counters"]


class TestAnalyzeBilling:
    def test_bare_analyze_bills_the_usage_table_as_local(self, populated):
        platform, _ = populated
        region = BoundingBox(34.0, -118.3, 34.1, -118.2)
        explain(platform, SpatialQuery(region=region), analyze=True)
        report = obs.usage().report()
        [row] = report["by_principal"]
        assert row["key"] == "local"
        assert row["charges"].get("probes.columns", 0) > 0
        assert [r["key"] for r in report["by_shape"]] == [
            "spatial(mode=scene,region)"
        ]
        assert [r["key"] for r in report["by_operation"]] == ["execute.spatial"]

    def test_analyze_under_a_ledger_bills_the_enclosing_principal(self, populated):
        from repro.obs.accounting import UsageTable, ledger_scope

        platform, _ = populated
        table = UsageTable()
        region = BoundingBox(34.0, -118.3, 34.1, -118.2)
        with ledger_scope(table=table, principal="key:abcd1234") as outer:
            explain(platform, SpatialQuery(region=region), analyze=True)
        assert outer.charges.get("probes.columns", 0) > 0
        [row] = table.report()["by_principal"]
        assert row["key"] == "key:abcd1234"
        # Nothing leaked to the process-wide table as a duplicate bill.
        assert obs.usage().report()["by_principal"] == []
