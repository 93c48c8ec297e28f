"""Property tests: every access path against its oracle.

A catalog slice answers camera-mode spatial queries and fused
spatial-visual hybrids by scanning its point columns.  The answer must
be the one the trees beside them give (the Oriented R-tree plus a row
fetch per hit; the Visual R-tree's best-first search) and the one a
brute-force pass over the rows gives — compared here under interleaved
uploads, augmentations, feature extraction and queries.

The partial-selection top-k (``repro.index.ordering.nearest``) is held
against the full sort it replaced, on vectors drawn from a handful of
values so that equal distances straddle the k boundary.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HybridQuery, SpatialQuery, TVDP, VisualQuery
from repro.core.queries import scored_pairs
from repro.geo import BoundingBox, FieldOfView, GeoPoint
from repro.imaging.augment import Augmentation, flip_vertical
from repro.index import LSHIndex, tie_key
from repro.index.ordering import nearest
from tests.shard.test_equivalence import (
    DELTAS,
    LATS,
    LEVELS,
    LNGS,
    PixelProbeExtractor,
    tie_prone_image,
)

EXTRACTOR = PixelProbeExtractor.name


# -- interleaved operations ---------------------------------------------------------

uploads = st.fixed_dictionaries(
    {
        "op": st.just("upload"),
        "lat": st.sampled_from(LATS),
        "lng": st.sampled_from(LNGS),
        "direction": st.sampled_from([0.0, 44.0, 90.0, 181.5, 270.0, 359.9]),
        "levels": st.tuples(*[st.sampled_from(LEVELS)] * 3),
        "delta": st.sampled_from(DELTAS),
    }
)
boxes = st.tuples(
    st.sampled_from(LATS), st.sampled_from(LATS), st.sampled_from(LNGS), st.sampled_from(LNGS)
).map(
    lambda c: BoundingBox(min(c[0], c[1]), min(c[2], c[3]), max(c[0], c[1]), max(c[2], c[3]))
)
#: Boxes that touch no camera: every lattice point lies outside.
empty_boxes = st.just(BoundingBox(34.03, -118.37, 34.05, -118.33))
directions = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from([0.0, 45.0, 90.0, 270.0, 359.0, 720.0, -90.0]),
        st.sampled_from([0.0, 1.0, 45.0, 180.0]),
    ),
)
camera_queries = st.fixed_dictionaries(
    {
        "op": st.just("camera"),
        "box": st.one_of(boxes, empty_boxes),
        "point": st.tuples(st.sampled_from(LATS), st.sampled_from(LNGS)),
        "radius_m": st.sampled_from([0.0, 3000.0, 9000.0]),
        "direction": directions,
    }
)
hybrid_queries = st.fixed_dictionaries(
    {
        "op": st.just("hybrid"),
        "box": st.one_of(boxes, empty_boxes),
        "probe": st.tuples(*[st.sampled_from(LEVELS)] * 3),
        "k": st.integers(1, 24),
        "max_distance": st.sampled_from([None, 0.0, 0.3, 2.0]),
    }
)
operations = st.lists(
    st.one_of(
        uploads,
        uploads,
        st.fixed_dictionaries({"op": st.just("extract"), "pick": st.integers(0, 63)}),
        st.fixed_dictionaries({"op": st.just("augment"), "pick": st.integers(0, 63)}),
        camera_queries,
        hybrid_queries,
    ),
    min_size=6,
    max_size=28,
)


def fovs_by_id(platform: TVDP) -> dict[int, FieldOfView]:
    cameras = {
        row["image_id"]: GeoPoint(row["lat"], row["lng"])
        for row in platform.db.table("images").all_rows()
    }
    return {
        row["image_id"]: FieldOfView(
            cameras[row["image_id"]], row["direction_deg"], row["angle_deg"], row["range_m"]
        )
        for row in platform.db.table("image_fov").all_rows()
    }


def tree_camera(platform: TVDP, query: SpatialQuery) -> list[int]:
    """Camera mode the way the slice answered it before the columns:
    walk the Oriented R-tree, fetch each hit's row, keep the cameras
    inside."""
    region = query.bounding_region()
    hits = platform.slice.spatial.search_range(
        region,
        direction_deg=query.direction_deg,
        tolerance_deg=query.direction_tolerance_deg,
    )
    images = platform.db.table("images")
    rows = {image_id: images.get(image_id) for image_id in hits}
    return sorted(
        image_id
        for image_id, row in rows.items()
        if region.contains_point(GeoPoint(row["lat"], row["lng"]))
    )


def brute_camera(platform: TVDP, query: SpatialQuery) -> list[int]:
    """Camera mode by definition, row by row: the image has an FOV that
    intersects the region, looks the asked way, and was taken inside."""
    region = query.bounding_region()
    hits = []
    for image_id, fov in fovs_by_id(platform).items():
        if query.direction_deg is not None and not fov.direction_matches(
            query.direction_deg, query.direction_tolerance_deg
        ):
            continue
        if fov.intersects_box(region) and region.contains_point(fov.camera):
            hits.append(image_id)
    return sorted(hits)


def brute_hybrid(platform: TVDP, box: BoundingBox, vector: np.ndarray, k: int) -> list:
    """Filter the stored vectors' images by camera point, full sort."""
    cameras = {
        row["image_id"]: GeoPoint(row["lat"], row["lng"])
        for row in platform.db.table("images").all_rows()
    }
    pairs = [
        (row["image_id"], float(np.linalg.norm(np.array(row["vector"]) - vector)))
        for row in platform.db.table("image_visual_features").all_rows()
        if box.contains_point(cameras[row["image_id"]])
    ]
    pairs.sort(key=lambda pair: (pair[1], tie_key(pair[0])))
    return pairs[:k]


def camera_forms(op: dict) -> list[SpatialQuery]:
    direction = {}
    if op["direction"] is not None:
        direction = {
            "direction_deg": op["direction"][0],
            "direction_tolerance_deg": op["direction"][1],
        }
    return [
        SpatialQuery(region=op["box"], mode="camera", **direction),
        SpatialQuery(
            point=GeoPoint(*op["point"]), radius_m=op["radius_m"], mode="camera", **direction
        ),
    ]


@settings(max_examples=60, deadline=None)
@given(operations)
def test_camera_and_hybrid_answers_equal_their_oracles(ops):
    platform = TVDP()
    platform.register_extractor(PixelProbeExtractor())
    stored: list[int] = []
    for op in ops:
        if op["op"] == "upload":
            receipt = platform.upload_image(
                tie_prone_image(op["levels"], op["delta"]),
                FieldOfView(GeoPoint(op["lat"], op["lng"]), op["direction"], 60.0, 500.0),
                captured_at=0.0,
                uploaded_at=1.0,
            )
            if not receipt.deduplicated:
                stored.append(receipt.image_id)
        elif op["op"] == "extract" and stored:
            # Out of id order, and over augmented images too.
            ids = platform.image_ids()
            platform.feature_vector(ids[op["pick"] % len(ids)], EXTRACTOR)
        elif op["op"] == "augment" and stored:
            platform.add_augmented(
                stored[op["pick"] % len(stored)], [Augmentation("flip_v", flip_vertical)]
            )
        elif op["op"] == "camera":
            for query in camera_forms(op):
                scan = platform.slice.spatial_ids(query)
                assert scan == tree_camera(platform, query), query
                assert scan == brute_camera(platform, query), query
                assert set(scan) <= set(stored)  # augmented images have no FOV
                assert all(type(image_id) is int for image_id in scan)
        elif op["op"] == "hybrid" and EXTRACTOR in platform.visual_indexes():
            box, k = op["box"], op["k"]
            vector = np.asarray(op["probe"], dtype=np.float64)
            scan = platform.slice.spatial_visual_topk(EXTRACTOR, box, vector, k)
            index = platform.slice.hybrid(EXTRACTOR)
            tree = index.spatial_visual_knn(box, vector, k)
            assert scan == tree == index.linear_spatial_visual_knn(box, vector, k)
            assert scan == brute_hybrid(platform, box, vector, k)
            assert repr(scan) == repr(tree)  # bit-identical distances, int ids
            query = HybridQuery(
                queries=(
                    SpatialQuery(region=box),
                    VisualQuery(EXTRACTOR, vector=vector, k=k, max_distance=op["max_distance"]),
                )
            )
            want = tree
            if op["max_distance"] is not None:
                want = [pair for pair in tree if pair[1] <= op["max_distance"]]
            assert repr(platform.execute(query)) == repr(scored_pairs(want))


# -- partial selection ---------------------------------------------------------------

tie_prone_vectors = st.lists(
    st.tuples(*[st.sampled_from([0.0, 0.5, 1.0])] * 3), min_size=1, max_size=40
)


def full_sort(items: list, distances: np.ndarray, k: int | None) -> list:
    """What ``nearest`` replaced: sort everything, then cut."""
    order = sorted(
        range(len(items)), key=lambda i: (float(distances[i]), tie_key(items[i]))
    )
    return [(items[i], float(distances[i])) for i in order[:k]]


@settings(max_examples=200, deadline=None)
@given(
    tie_prone_vectors,
    st.tuples(*[st.sampled_from([0.0, 0.25, 0.5, 1.0])] * 3),
    st.one_of(st.none(), st.integers(1, 50)),
    st.randoms(use_true_random=False),
)
def test_partial_selection_equals_the_full_sort(vectors, probe, k, shuffler):
    items = list(range(100, 100 + len(vectors)))
    shuffler.shuffle(items)  # ids must not follow row order
    matrix = np.asarray(vectors, dtype=np.float64)
    distances = np.linalg.norm(matrix - np.asarray(probe), axis=1)
    assert nearest(items, distances, k) == full_sort(items, distances, k)

    # One bucket per table holds everything: the hash candidates are
    # every item, so _rank ranks what linear_topk ranks.
    index = LSHIndex(dimension=3, bucket_width=1e6)
    for item, vector in zip(items, matrix):
        index.insert(item, vector)
    want = full_sort(items, distances, k)
    assert index.query_radius(np.asarray(probe), 10.0) == full_sort(items, distances, None)
    if k is not None:
        assert index.linear_topk(np.asarray(probe), k) == want
        assert index.query_topk(np.asarray(probe), k) == want
        assert index.topk_with_stats(np.asarray(probe), k) == (want, len(items))
