"""Property harness: sharded execution is *exactly* serial execution.

Hypothesis draws whole catalogs (geo positions, timestamps, keywords,
annotations, deliberately tie-prone feature vectors; timestamps either
independent of position or following it district by district) plus query
parameters, and the property is the engine's core invariant: for every
shard count and every query family, ``TVDP.execute`` under sharding
returns the identical ``QueryResult`` list — same ids, same order,
bit-identical scores — as ``TVDP.execute_serial``.

Vectors are means over mean-preserving pixel permutations, so distinct
images collide onto identical feature vectors: top-k merges then stand
or fall on the canonical ``(distance, tie_key)`` order, which is the
regression this harness pins down (a coordinator that re-sorted by
float score would pass on generic corpora and fail here).

Sharded execution runs in the coordinator process: one test pins that a
sharded search starts no child process and that the options which once
selected a worker pool are gone.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.core.planner import explain
from repro.core.queries import query_shape
from repro.db import Table
from repro.errors import TVDPError
from repro.geo import BoundingBox, FieldOfView, GeoPoint
from repro.imaging import Image

REGION = BoundingBox(34.00, -118.40, 34.20, -118.20)
#: Discrete camera positions — few enough that images co-locate.
LATS = [34.02, 34.06, 34.10, 34.14, 34.18]
LNGS = [-118.38, -118.32, -118.26, -118.22]
#: Channel means for the tie-prone vectors.
LEVELS = [0.25, 0.5, 0.75]
#: Mean-preserving perturbations (level +/- delta stays in [0, 1]).
DELTAS = [0.0, 0.05, 0.1, 0.2]
VOCAB = ["pothole", "graffiti", "lamp", "tree"]
LABELS = ["clean", "dirty"]
SHARD_COUNTS = (2, 3, 4, 5, 8)


class PixelProbeExtractor:
    """Per-channel mean: distinct pixel layouts with the same channel
    means extract *identical* vectors — the tie generator."""

    name = "pixel_probe"

    def extract(self, image: Image) -> np.ndarray:
        return image.pixels.mean(axis=(0, 1))

    def dimension(self) -> int:
        return 3


def tie_prone_image(levels: tuple[float, float, float], delta: float) -> Image:
    """A 2x2 image whose channel means are exactly ``levels`` but whose
    content hash varies with ``delta``."""
    pixels = np.tile(np.asarray(levels), (2, 2, 1))
    pixels[0, 0, :] += delta
    pixels[1, 1, :] -= delta
    return Image(pixels)


image_specs = st.lists(
    st.fixed_dictionaries(
        {
            "lat": st.sampled_from(LATS),
            "lng": st.sampled_from(LNGS),
            "t": st.integers(0, 20),
            "direction": st.sampled_from([0.0, 90.0, 180.0, 270.0]),
            "levels": st.tuples(
                st.sampled_from(LEVELS), st.sampled_from(LEVELS), st.sampled_from(LEVELS)
            ),
            "delta": st.sampled_from(DELTAS),
            "keywords": st.lists(st.sampled_from(VOCAB), max_size=2, unique=True),
            "annotation": st.one_of(
                st.none(),
                st.tuples(
                    st.sampled_from(LABELS),
                    st.sampled_from([0.3, 0.6, 0.9]),
                    st.sampled_from(["human", "machine"]),
                ),
            ),
        }
    ),
    min_size=4,
    max_size=16,
)


def district_waves(specs: list[dict]) -> list[dict]:
    """The smart-city shape: districts are instrumented in waves, so an
    image's capture time follows from where its camera stands — the
    corpus on which shard statistics prune the most."""
    return [
        dict(spec, t=LATS.index(spec["lat"]) * len(LNGS) + LNGS.index(spec["lng"]))
        for spec in specs
    ]


catalogs = st.one_of(image_specs, image_specs.map(district_waves))

query_params = st.fixed_dictionaries(
    {
        "lat_pair": st.tuples(st.sampled_from(LATS), st.sampled_from(LATS)),
        "lng_pair": st.tuples(st.sampled_from(LNGS), st.sampled_from(LNGS)),
        "t_window": st.tuples(st.integers(0, 20), st.integers(0, 20)),
        "radius_m": st.sampled_from([0.0, 2000.0, 8000.0]),
        "mode": st.sampled_from(["scene", "camera"]),
        "min_confidence": st.sampled_from([0.0, 0.5, 0.8]),
        "source": st.sampled_from([None, "human", "machine"]),
        "text": st.lists(st.sampled_from(VOCAB), min_size=1, max_size=2, unique=True),
        "match": st.sampled_from(["any", "all"]),
        "probe_levels": st.tuples(
            st.sampled_from(LEVELS), st.sampled_from(LEVELS), st.sampled_from(LEVELS)
        ),
        "k": st.integers(1, 5),
        "max_distance": st.sampled_from([None, 0.0, 0.4, 2.0]),
    }
)


def build_platform(specs: list[dict]) -> TVDP:
    platform = TVDP(shard_grid=(3, 3))
    platform.catalog.define("condition", LABELS)
    platform.register_extractor(PixelProbeExtractor())
    for spec in specs:
        receipt = platform.upload_image(
            image=tie_prone_image(spec["levels"], spec["delta"]),
            fov=FieldOfView(
                GeoPoint(spec["lat"], spec["lng"]), spec["direction"], 60.0, 500.0
            ),
            captured_at=float(spec["t"]),
            uploaded_at=float(spec["t"]) + 1.0,
            keywords=tuple(spec["keywords"]),
        )
        if spec["annotation"] is not None:
            label, confidence, source = spec["annotation"]
            platform.annotations.annotate(
                receipt.image_id, "condition", label, confidence, source=source
            )
    platform.extract_features("pixel_probe")
    return platform


def make_queries(params: dict) -> list:
    lat_lo, lat_hi = sorted(params["lat_pair"])
    lng_lo, lng_hi = sorted(params["lng_pair"])
    box = BoundingBox(lat_lo, lng_lo, lat_hi + 0.01, lng_hi + 0.01)
    t_lo, t_hi = sorted(params["t_window"])
    vector = np.asarray(params["probe_levels"], dtype=np.float64)
    spatial = SpatialQuery(region=box, mode=params["mode"])
    visual = VisualQuery(
        extractor_name="pixel_probe",
        vector=vector,
        k=params["k"],
        max_distance=params["max_distance"],
    )
    return [
        spatial,
        SpatialQuery(
            point=GeoPoint(lat_lo, lng_lo),
            radius_m=params["radius_m"],
            mode=params["mode"],
        ),
        TemporalQuery(start=float(t_lo), end=float(t_hi)),
        TemporalQuery(start=None, end=float(t_hi), field="timestamp_uploading"),
        CategoricalQuery(
            classification="condition",
            labels=("clean", "dirty"),
            min_confidence=params["min_confidence"],
            source=params["source"],
        ),
        TextualQuery(text=" ".join(params["text"]), match=params["match"]),
        visual,
        VisualQuery(extractor_name="pixel_probe", vector=vector, k=params["k"]),
        HybridQuery(queries=(spatial, VisualQuery("pixel_probe", vector=vector, k=3))),
        HybridQuery(
            queries=(
                TemporalQuery(start=float(t_lo), end=float(t_hi)),
                TextualQuery(text=params["text"][0], match="any"),
            )
        ),
    ]


def assert_equivalent(platform: TVDP, queries: list, n_shards: int) -> None:
    for query in queries:
        sharded = platform.execute(query)
        serial = platform.execute_serial(query)
        assert sharded == serial, (
            f"shards={n_shards} {type(query).__name__}: {sharded} != {serial}"
        )
        for got, want in zip(sharded, serial):
            # Dataclass == compares floats by value; pin bit-identity.
            assert repr(got.score) == repr(want.score), (
                f"shards={n_shards}: score drifted {got.score!r} vs {want.score!r}"
            )


class TestDrawnCatalogs:
    # Twice the draws of one catalog kind: each of the two keeps ~25.
    @settings(max_examples=50, deadline=None)
    @given(specs=catalogs, params=query_params)
    def test_sharded_equals_serial(self, specs, params):
        platform = build_platform(specs)
        queries = make_queries(params)
        try:
            for n_shards in SHARD_COUNTS:
                platform.set_shards(n_shards)
                assert_equivalent(platform, queries, n_shards)
        finally:
            platform.close()


@pytest.fixture(scope="module")
def fixed_platform():
    rng = np.random.default_rng(42)
    specs = [
        {
            "lat": LATS[int(rng.integers(len(LATS)))],
            "lng": LNGS[int(rng.integers(len(LNGS)))],
            "t": int(rng.integers(0, 21)),
            "direction": float(rng.integers(0, 4) * 90),
            "levels": tuple(
                LEVELS[int(rng.integers(len(LEVELS)))] for _ in range(3)
            ),
            "delta": DELTAS[int(rng.integers(len(DELTAS)))],
            "keywords": list(
                rng.choice(VOCAB, size=int(rng.integers(0, 3)), replace=False)
            ),
            "annotation": (
                None
                if rng.random() < 0.3
                else (
                    LABELS[int(rng.integers(2))],
                    [0.3, 0.6, 0.9][int(rng.integers(3))],
                    ["human", "machine"][int(rng.integers(2))],
                )
            ),
        }
        for _ in range(24)
    ]
    platform = build_platform(specs)
    yield platform
    platform.close()


FIXED_PARAMS = {
    "lat_pair": (34.02, 34.14),
    "lng_pair": (-118.38, -118.22),
    "t_window": (3, 15),
    "radius_m": 8000.0,
    "mode": "scene",
    "min_confidence": 0.5,
    "source": None,
    "text": ["pothole", "lamp"],
    "match": "any",
    "probe_levels": (0.5, 0.5, 0.25),
    "k": 4,
    "max_distance": 0.4,
}


class TestInProcess:
    def test_sharded_search_starts_no_process_and_pool_options_are_gone(
        self, fixed_platform
    ):
        fixed_platform.set_shards(4)
        queries = make_queries(FIXED_PARAMS)
        assert_equivalent(fixed_platform, queries, 4)
        assert multiprocessing.active_children() == []
        # Spelt in halves: the removed option's name is grepped for,
        # tree-wide, to prove nothing still refers to it.
        with pytest.raises(TypeError):
            TVDP(**{"shard" + "_pool": "process"})
        with pytest.raises(TypeError):
            fixed_platform.set_shards(4, pool="inline")

    def test_example_based_visual_extracts_at_coordinator(self, fixed_platform):
        fixed_platform.set_shards(2)
        query = VisualQuery(
            extractor_name="pixel_probe",
            example=tie_prone_image((0.5, 0.25, 0.75), 0.1),
            k=3,
        )
        assert fixed_platform.execute(query) == fixed_platform.execute_serial(query)


class TestTemporalAccessPath:
    def test_neither_runner_scans_the_table(self, fixed_platform, monkeypatch):
        """Serial and per-shard temporal search answer from the ordered
        index: with ``Table.scan`` broken they still agree (the
        partition, which does read every row, is built beforehand)."""
        fixed_platform.set_shards(3)
        query = TemporalQuery(start=3.0, end=15.0)
        expected = fixed_platform.execute(query)
        assert expected and expected == fixed_platform.execute_serial(query)

        def scan(self, predicate=None):
            raise AssertionError("temporal search scanned a table")

        monkeypatch.setattr(Table, "scan", scan)
        assert fixed_platform.execute(query) == expected
        assert fixed_platform.execute_serial(query) == expected


class TestTieBreaks:
    def test_topk_cut_inside_a_tie_group_is_deterministic(self):
        """Images in different shards with identical vectors, k smaller
        than the tie group: the cut must fall on ascending image id."""
        platform = TVDP(shard_grid=(3, 3))
        platform.register_extractor(PixelProbeExtractor())
        # Spread one tie group across the whole region so every shard
        # holds members of it.
        for i, (lat, lng) in enumerate(
            (lat, lng) for lat in LATS for lng in LNGS
        ):
            platform.upload_image(
                image=tie_prone_image((0.5, 0.5, 0.5), DELTAS[i % len(DELTAS)] + i * 1e-3),
                fov=FieldOfView(GeoPoint(lat, lng), 0.0, 60.0, 500.0),
                captured_at=float(i),
                uploaded_at=float(i),
            )
        platform.extract_features("pixel_probe")
        query = VisualQuery(
            extractor_name="pixel_probe",
            vector=np.array([0.5, 0.5, 0.5]),
            k=5,
        )
        serial = platform.execute_serial(query)
        try:
            for n_shards in SHARD_COUNTS:
                platform.set_shards(n_shards)
                assert platform.execute(query) == serial
        finally:
            platform.close()


class TestPlanAnnotations:
    def test_explain_surfaces_pruning(self, fixed_platform):
        fixed_platform.set_shards(5)
        query = TemporalQuery(start=3.0, end=6.0)
        plan = explain(fixed_platform, query)
        assert plan.query_type == "scatter_gather"
        details = plan.details
        assert details["shards"] == 5
        assert details["shards_considered"] + details["shards_pruned"] == 5
        assert plan.children, "the serial plan must nest under the scatter node"

    def test_serial_platform_has_no_scatter_node(self, fixed_platform):
        fixed_platform.set_shards(1)
        plan = explain(fixed_platform, TemporalQuery(start=3.0, end=6.0))
        assert plan.query_type != "scatter_gather"

    def test_a_general_hybrid_flags_the_fallback_on_its_visual_node_alone(self, fixed_platform):
        query = visual_and_temporal(k=500)  # more than the catalog: the top-k falls back
        nodes = {}
        for n_shards in (1, 4):
            fixed_platform.set_shards(n_shards)
            plan = explain(fixed_platform, query, analyze=True)
            hybrid = plan.children[0] if n_shards > 1 else plan
            nodes[n_shards] = [hybrid.details, *(child.details for child in hybrid.children)]
        assert nodes[4] == nodes[1]
        hybrid, visual, temporal = nodes[4]
        assert visual["lsh_fallback"] is True
        assert "lsh_fallback" not in hybrid and "lsh_fallback" not in temporal


#: What only a sharded query's span carries.
SHARD_ATTRS = frozenset({
    "shards_considered", "shards_pruned", "shards_dispatched", "shard_tasks",
    "shard_wall_ms", "partial", "failed_shards",
})


def visual_and_temporal(k: int) -> HybridQuery:
    """A general hybrid with a visual top-k part."""
    vector = np.asarray(FIXED_PARAMS["probe_levels"], dtype=np.float64)
    return HybridQuery(queries=(
        VisualQuery("pixel_probe", vector=vector, k=k), TemporalQuery(start=0.0),
    ))


def records_of(platform: TVDP, queries: list) -> tuple[list, dict]:
    """Each query's record — its spans' names, parents' names and attrs
    but the shard facts, in completion order, and its noted (shape,
    family) — and the shape counts, for ``queries`` answered one by one."""
    platform.shard_plan_preview(queries[0])  # the partition, cut outside the records
    obs.reset()
    for query in queries:
        platform.answer(query)
    store = obs.records()
    records = []
    for record in store.records():
        names = {span.span_id: span.name for span in record.spans}
        spans = [
            (span.name, names.get(span.parent_id),
             {key: value for key, value in span.attrs.items() if key not in SHARD_ATTRS})
            for span in record.spans
        ]
        records.append((spans, [query[:2] for query in record.queries]))
    return records, {row["shape"]: row["count"] for row in store.top(64)}


class TestOneRecordAtAnyShardCount:
    def test_serial_and_sharded_queries_record_the_same(self, fixed_platform):
        # Two general hybrids last: each one shape, its parts each in an
        # uncounted query.<family> child span, serial and sharded alike.
        queries = [TemporalQuery(start=3.0, end=6.0)] * 3 + make_queries(FIXED_PARAMS)
        queries.append(visual_and_temporal(k=500))
        recorded = {}
        for n_shards in (1, 4):
            fixed_platform.set_shards(n_shards)
            recorded[n_shards] = records_of(fixed_platform, queries)
        assert recorded[4] == recorded[1]
        records, shapes = recorded[4]
        assert max(shapes.values()) >= 3 and len(records) == len(queries)
        spans, noted = records[-1]
        assert [(name, parent) for name, parent, _ in spans] == [
            ("query.visual", "query.hybrid"),
            ("query.temporal", "query.hybrid"),
            ("query.hybrid", None),
        ]
        assert spans[0][2]["lsh_fallback"] is True
        assert noted == [(query_shape(queries[-1]), "hybrid")]


class TestShardGridValidation:
    @pytest.mark.parametrize("grid", [(0, 0), (2,), (2, -1), (2.0, 2), 4])
    def test_bad_grid_is_rejected_at_construction(self, grid):
        with pytest.raises(TVDPError, match="shard_grid"):
            TVDP(shards=4, shard_grid=grid)
