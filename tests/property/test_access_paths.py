"""Property tests: every access path against its oracle.

A catalog slice answers camera-mode spatial queries and fused
spatial-visual hybrids by scanning its point columns.  The answer must
be the one the trees beside them give (the Oriented R-tree plus a row
fetch per hit; the Visual R-tree's best-first search) and the one a
brute-force pass over the rows gives — compared here under interleaved
uploads, augmentations, feature extraction and queries.

Scene-mode spatial queries are answered from the same columns (an
MBR-overlaps-region mask, then the exact FOV predicate on the
survivors); the walk of the Oriented R-tree they replaced is kept here
as the oracle, on a tree filled eagerly beside the slice.  The slice's
own trees are filled by whoever reads them: caught up after every k-th
write or once at the end, they must be node for node the eager ones.

The top-k in canonical order (``repro.index.ordering.nearest``) is held
against the full sort it replaced, on vectors drawn from a handful of
values so that equal distances straddle the k boundary; and the one
exact ranking under every visual path (``LSHIndex.nearest_rows``: a
dot-product prefilter, a guard band, an exact re-rank) against the
distance to every row and that full sort, across magnitudes.

Categorical, textual and the transport are held the same way.  The
label columns' mask-and-group answer must be the row walk it replaced
(kept here as the oracle) and a brute force over ``all_rows()``.  The
inverted index's one scoring function must give, float for float, what
the ``search_any`` / ``search_all`` pair it replaced gave (kept here
too).  And whatever the family, ``answer(q)``, ``execute(q)`` and the
``POST /search`` body are the same ids and the same floats, serial and
sharded.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import TVDPClient, TVDPService, schema
from repro.core import (
    CatalogSlice,
    CategoricalQuery,
    HybridQuery,
    SpatialQuery,
    TVDP,
    VisualQuery,
)
from repro.core.queries import QueryResult, scored_pairs
from repro.db import Column, ColumnType, Database, TableSchema
from repro.geo import BoundingBox, FieldOfView, GeoPoint
from repro.imaging.augment import Augmentation, flip_vertical
from repro.index import InvertedIndex, LSHIndex, OrientedRTree, VisualRTree, tie_key, tokenize
from repro.index import lsh as lsh_module
from repro.index.ordering import nearest, pairs
from tests.shard.test_equivalence import (
    DELTAS,
    LATS,
    LEVELS,
    LNGS,
    PixelProbeExtractor,
    build_platform,
    image_specs,
    query_params,
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
        st.fixed_dictionaries({"op": st.just("localize"), "pick": st.integers(0, 63)}),
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
        elif op["op"] == "localize" and stored:
            # A row update (the scene box) and a catch-up of the
            # Oriented R-tree, between the queries.
            platform.localize_scene(stored[op["pick"] % len(stored)])
        elif op["op"] == "camera":
            for query in camera_forms(op):
                scan = platform.slice.spatial_ids(query).tolist()
                assert scan == tree_camera(platform, query), query
                assert scan == brute_camera(platform, query), query
                assert set(scan) <= set(stored)  # augmented images have no FOV
                assert all(type(image_id) is int for image_id in scan)
        elif op["op"] == "hybrid" and EXTRACTOR in platform.visual_indexes():
            box, k = op["box"], op["k"]
            vector = np.asarray(op["probe"], dtype=np.float64)
            scan = platform.slice.spatial_visual_topk(EXTRACTOR, box, vector, k)
            index = platform.slice.hybrid_indexes()[EXTRACTOR]
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


# -- scene mode on the FOV columns; the trees caught up by their readers -------------

NAME = "probe"
fov_writes = st.fixed_dictionaries(
    {
        "op": st.just("image"),
        "lat": st.sampled_from(LATS),
        "lng": st.sampled_from(LNGS),
        "direction": st.sampled_from([0.0, 44.0, 90.0, 181.5, 270.0, 359.9]),
        # 360: the whole disc; 120 about 44 deg: the MBR bulges past two
        # cardinal bearings; 4 km: sectors of neighbouring cameras overlap.
        "angle": st.sampled_from([30.0, 60.0, 120.0, 360.0]),
        "range_m": st.sampled_from([120.0, 500.0, 4000.0]),
    }
)
scene_directions = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from([0.0, 45.0, 90.0, 181.5, 359.0, 720.0, -90.0]),
        st.sampled_from([0.0, 45.0, 180.0]),
    ),
)
scene_queries = st.fixed_dictionaries(
    {
        "op": st.just("scene"),
        "box": st.one_of(boxes, empty_boxes),
        # A stored FOV and a side of its MBR: the box that shares only
        # that border with it, and a point on its optical axis.
        "pick": st.integers(0, 63),
        "side": st.sampled_from(["north", "south", "east", "west"]),
        "point": st.tuples(st.sampled_from(LATS), st.sampled_from(LNGS)),
        "radius_m": st.sampled_from([0.0, 300.0, 5000.0]),
        "direction": scene_directions,
    }
)
tree_ops = st.lists(
    st.one_of(
        fov_writes,
        fov_writes,
        st.fixed_dictionaries({"op": st.just("augmented"), "pick": st.integers(0, 63)}),
        st.fixed_dictionaries(
            {
                "op": st.just("vector"),
                "pick": st.integers(0, 63),
                "levels": st.tuples(*[st.sampled_from(LEVELS)] * 3),
            }
        ),
        scene_queries,
        hybrid_queries,
    ),
    min_size=6,
    max_size=30,
)


def touching(box: BoundingBox, side: str) -> BoundingBox:
    """The box beyond ``side`` of ``box`` that shares only that border."""
    return {
        "north": BoundingBox(box.max_lat, box.min_lng, box.max_lat + 0.01, box.max_lng),
        "south": BoundingBox(box.min_lat - 0.01, box.min_lng, box.min_lat, box.max_lng),
        "east": BoundingBox(box.min_lat, box.max_lng, box.max_lat, box.max_lng + 0.01),
        "west": BoundingBox(box.min_lat, box.min_lng - 0.01, box.max_lat, box.min_lng),
    }[side]


def walk(tree: OrientedRTree, query: SpatialQuery) -> list[int]:
    """Scene mode the way the slice answered it before the columns."""
    direction = {
        "direction_deg": query.direction_deg,
        "tolerance_deg": query.direction_tolerance_deg,
    }
    if query.point is not None and query.radius_m == 0.0:
        return sorted(tree.search_point(query.point.lat, query.point.lng, **direction))
    return sorted(tree.search_range(query.bounding_region(), **direction))


def rtree_shape(node) -> list:
    if node.leaf:
        return [(entry.item, entry.box) for entry in node.entries]
    return [(child.box, rtree_shape(child)) for child in node.entries]


def visual_shape(node) -> tuple:
    summary = (node.box, node.count, node.radius, node.centroid.tobytes())
    if node.leaf:
        return summary, [(box, v.tobytes(), item) for box, v, item in node.entries]
    return summary, [visual_shape(child) for child in node.entries]


@settings(max_examples=80, deadline=None)
@given(tree_ops, st.sampled_from([0, 1, 3, 7]))
def test_scene_scan_and_caught_up_trees_equal_the_trees_filled_eagerly(ops, every):
    """``every``: the slice's trees are asked for after every that-many
    writes (and probed wherever a hybrid query falls), or — 0 — only
    once, at the end."""
    built = CatalogSlice(Database.tvdp())
    built.add_extractor(NAME, 3)
    eager, eager_visual = OrientedRTree(), VisualRTree(dimension=3)
    fovs: dict[int, FieldOfView] = {}
    points: dict[int, GeoPoint] = {}
    vectored: set[int] = set()
    writes = 0

    def store(lat: float, lng: float, fov: FieldOfView | None) -> None:
        image_id = built.db.insert(
            "images",
            {
                "uri": f"scene://{len(points)}", "content_hash": str(len(points)),
                "lat": lat, "lng": lng, "is_augmented": fov is None,
                "timestamp_capturing": 0.0, "timestamp_uploading": 0.0,
            },
        )
        points[image_id] = GeoPoint(lat, lng)
        built.index_image(image_id, fov, ())
        if fov is not None:
            fovs[image_id] = fov
            eager.insert(image_id, fov)

    for op in ops:
        wrote = True
        if op["op"] == "image":
            camera = GeoPoint(op["lat"], op["lng"])
            store(
                op["lat"], op["lng"],
                FieldOfView(camera, op["direction"], op["angle"], op["range_m"]),
            )
        elif op["op"] == "augmented" and points:
            twin = points[sorted(points)[op["pick"] % len(points)]]
            store(twin.lat, twin.lng, None)
        elif op["op"] == "vector" and len(vectored) < len(points):
            pending = sorted(set(points) - vectored)  # out of id order
            image_id = pending[op["pick"] % len(pending)]
            vector = np.asarray(op["levels"], dtype=np.float64)
            built.index_vector(NAME, image_id, vector)
            eager_visual.insert(image_id, points[image_id], vector)
            vectored.add(image_id)
        else:
            wrote = False
        writes += wrote
        if wrote and every and writes % every == 0:
            assert len(built.spatial) == len(eager)
            assert len(built.hybrid_indexes()[NAME]) == len(eager_visual)
        if op["op"] == "scene":
            direction = {}
            if op["direction"] is not None:
                direction = {
                    "direction_deg": op["direction"][0],
                    "direction_tolerance_deg": op["direction"][1],
                }
            queries = [
                SpatialQuery(region=op["box"], **direction),
                SpatialQuery(
                    point=GeoPoint(*op["point"]), radius_m=op["radius_m"], **direction
                ),
            ]
            if fovs:
                picked = fovs[sorted(fovs)[op["pick"] % len(fovs)]]
                queries += [
                    SpatialQuery(region=touching(picked.mbr(), op["side"]), **direction),
                    SpatialQuery(point=picked.midpoint(), radius_m=0.0, **direction),
                    SpatialQuery(point=picked.camera, radius_m=0.0, **direction),
                ]
            for query in queries:
                scan = built.spatial_ids(query).tolist()
                assert scan == walk(eager, query), query
                assert all(type(image_id) is int for image_id in scan)
        elif op["op"] == "hybrid" and every:
            box, k = op["box"], op["k"]
            vector = np.asarray(op["probe"], dtype=np.float64)
            assert repr(built.hybrid_indexes()[NAME].spatial_visual_knn(box, vector, k)) == repr(
                eager_visual.spatial_visual_knn(box, vector, k)
            )
            assert built.spatial.search_range(box) == eager.search_range(box)
    # Node for node the trees an eager fill builds, hence every answer.
    assert rtree_shape(built.spatial._tree._root) == rtree_shape(eager._tree._root)
    assert built.spatial._fovs == fovs
    caught_up = built.hybrid_indexes()[NAME]
    assert len(caught_up) == len(eager_visual) == len(vectored)
    if vectored:
        assert visual_shape(caught_up._root) == visual_shape(eager_visual._root)
    for image_id, fov in fovs.items():
        camera = fov.camera
        assert built.spatial.search_overlapping(fov) == eager.search_overlapping(fov)
        assert built.spatial.search_point(camera.lat, camera.lng) == eager.search_point(
            camera.lat, camera.lng
        )


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
        probe = np.asarray(probe)
        columns, candidates = index.topk_in_buckets(index.bucket_keys(probe), probe, k)
        assert (pairs(*columns), candidates) == (want, len(items))


# -- the one exact ranking: prefilter, band, re-rank -------------------------------

#: Vectors whose squared norm spans 1e-320 to 3e300, in one index.
SCALES = [1e-160, 1e-80, 1.0, 1e80, 1e150]
#: Huge and one or a few ulps apart: ``|x|^2 - 2 x.q`` cancels to noise,
#: so the band has to swallow such rows, never drop them.
TWINS = [1e150, 1e150 * (1 + 2**-52), 1e150 * (1 + 2**-50), 1e150 * (1 + 2**-40)]
tie_prone = st.tuples(*[st.sampled_from([0.0, 0.5, 1.0])] * 3)
ranked_vectors = st.one_of(
    tie_prone,
    st.builds(lambda v, scale: tuple(c * scale for c in v), tie_prone, st.sampled_from(SCALES)),
    st.tuples(*[st.sampled_from(TWINS)] * 3),
)
#: How item ``i`` is called.  ``big`` is a plain int numpy has no
#: 64-bit place for (spaced so that ``tie_key``'s float tells them
#: apart); ``True`` equals no other id drawn here.
ID_KINDS = {
    "int": lambda i: 100 + i,
    "big": lambda i: 2**70 * (i + 1),
    "float": lambda i: 100.5 + i,
    "str": lambda i: f"img{i}",
    "bool": lambda i: True,
}


@st.composite
def ranked_cases(draw):
    vectors = draw(st.lists(ranked_vectors, min_size=1, max_size=40))
    n = len(vectors)
    probe = draw(
        st.one_of(
            ranked_vectors,
            st.sampled_from(vectors),  # an exact duplicate: distance 0.0, tied
            # Its squared norm overflows: no band, every row ranked exactly.
            st.just((1e155, 0.0, 1e155)),
        )
    )
    k = draw(st.one_of(st.sampled_from([1, max(1, n - 1), n, n + 1]), st.integers(1, 50)))
    kinds = draw(
        st.one_of(
            st.just(["int"] * n),
            st.lists(st.sampled_from(["int", "big"]), min_size=n, max_size=n),
            st.lists(st.sampled_from(["int", "float", "str"]), min_size=n, max_size=n),
        )
    )
    items = [ID_KINDS[kind](i) for i, kind in enumerate(kinds)]
    if draw(st.booleans()) and kinds[0] != kinds[-1]:
        items[0] = ID_KINDS["bool"](0)
    draw(st.randoms(use_true_random=False)).shuffle(items)  # ids must not follow row order
    # Ranked at each: the buffer starts with 16 rows and doubles.
    checkpoints = sorted({n, *draw(st.lists(st.integers(1, n), max_size=2))})
    return vectors, probe, k, items, checkpoints


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is part of the input
@settings(max_examples=150, deadline=None)
@given(
    ranked_cases(),
    st.sampled_from([0.0, 0.5, 1.5, 1e150, math.inf]),
    st.lists(st.booleans(), min_size=40, max_size=40),
    st.randoms(use_true_random=False),
)
def test_one_ranking_routine_equals_the_full_computation(case, radius, inside, picker):
    """``LSHIndex.nearest_rows`` — under the fallback scan, the hash
    candidates, the radius query and the fused hybrid — against the code
    it replaced, kept here as the oracle: the exact distance to every
    row and a full ``(distance, tie_key)`` sort.  ``==`` on the ids and
    on the floats."""
    vectors, probe, k, items, checkpoints = case
    matrix = np.asarray(vectors, dtype=np.float64)
    probe = np.asarray(probe, dtype=np.float64)
    distances = np.linalg.norm(matrix - probe, axis=1)
    assert nearest(items, distances, k) == full_sort(items, distances, k)

    # One bucket per table holds everything, whatever the magnitude: the
    # hash candidates are every item indexed so far.
    index = LSHIndex(dimension=3, bucket_width=1e300)
    # The slice calls its items by int, and keeps some outside the box.
    ids = list(range(100, 100 + len(items)))
    picker.shuffle(ids)
    db = Database(
        [TableSchema("images", (Column("image_id", ColumnType.INTEGER, primary_key=True),
                                Column("lat", ColumnType.REAL), Column("lng", ColumnType.REAL)))]
    )
    catalog_slice = CatalogSlice(db)
    catalog_slice.add_extractor("raw", 3)
    box = BoundingBox(34.0, -118.4, 34.2, -118.2)
    done = 0
    for m in checkpoints:
        for row in range(done, m):
            index.insert(items[row], matrix[row])
            db.insert("images", {"image_id": ids[row], "lat": 34.1 if inside[row] else 35.0, "lng": -118.3})
            catalog_slice.index_vector("raw", ids[row], matrix[row])
        done = m
        want = full_sort(items[:m], distances[:m], k)
        assert index.linear_topk(probe, k) == want
        assert index.query_topk(probe, k) == want  # the fallback when k > m
        columns, candidates = index.topk_in_buckets(index.bucket_keys(probe), probe, k)
        assert (pairs(*columns), candidates) == (want, m)
        assert index.query_radius(probe, radius) == [
            pair for pair in full_sort(items[:m], distances[:m], None) if pair[1] <= radius
        ]
        for size in {0, 1, k, k + 1, picker.randint(0, m)}:
            rows = np.array(picker.sample(range(m), min(size, m)), dtype=np.intp)
            assert index.nearest_rows(probe, k, rows) == full_sort(
                [items[row] for row in rows], distances[rows], k
            )
        held = [row for row in range(m) if inside[row]]
        assert catalog_slice.spatial_visual_topk("raw", box, probe, k) == full_sort(
            [ids[row] for row in held], distances[held], k
        )


def test_a_product_in_blocks_is_the_product():
    """Longer than two blocks: the blocked matrix-vector product is the
    single one float for float, and the scan over it the oracle's."""
    rng = np.random.default_rng(5)
    matrix = rng.normal(0.0, 1.0, (2 * lsh_module._BLOCK_ROWS + 100, 8))
    probe = rng.normal(0.0, 1.0, 8)
    assert np.array_equal(lsh_module._row_dots(matrix, probe), matrix @ probe)
    index = LSHIndex(dimension=8)
    for item, vector in enumerate(matrix):
        index.insert(item, vector)
    items = list(range(len(matrix)))
    distances = np.linalg.norm(matrix - probe, axis=1)
    for k in (1, 100, len(matrix)):
        assert index.linear_topk(probe, k) == full_sort(items, distances, k)


# -- categorical: label columns ------------------------------------------------------

CONDITIONS = ["clean", "dirty", "flooded", "never_used"]
#: Confidences and thresholds share values, so a threshold lands exactly
#: on a stored confidence; -0.0 is a confidence the API lets through.
CONFIDENCES = [0.0, -0.0, 0.3, 0.5, 0.8, 1.0]
label_operations = st.lists(
    st.one_of(
        uploads,
        st.fixed_dictionaries(
            {
                "op": st.just("annotate"),
                "pick": st.integers(0, 63),
                # A label can land on one image many times over.
                "label": st.sampled_from(CONDITIONS[:3]),
                "confidence": st.sampled_from(CONFIDENCES),
                "source": st.sampled_from(["human", "machine"]),
            }
        ),
        st.fixed_dictionaries(
            {
                "op": st.just("categorical"),
                # Not unique: a query may name a label twice.
                "labels": st.lists(st.sampled_from(CONDITIONS), min_size=1, max_size=4),
                "min_confidence": st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]),
                "source": st.sampled_from([None, "human", "machine"]),
            }
        ),
    ),
    min_size=6,
    max_size=40,
)


def row_walk(platform: TVDP, type_ids: list, min_confidence: float, source) -> dict:
    """``best_confidence`` the way the slice answered it before the
    columns: walk the ``type_id`` hash index row by row."""
    out: dict[int, float] = {}
    table = platform.db.table("image_content_annotation")
    for type_id in type_ids:
        for row in table.find("type_id", type_id):
            if row["confidence"] < min_confidence:
                continue
            if source is not None and row["source"] != source:
                continue
            image_id = row["image_id"]
            out[image_id] = max(out.get(image_id, 0.0), row["confidence"])
    return out


def brute_labels(platform: TVDP, type_ids: list, min_confidence: float, source) -> dict:
    """Best confidence per image by definition, over every stored row."""
    out: dict[int, float] = {}
    for row in platform.db.table("image_content_annotation").all_rows():
        if (
            row["type_id"] in type_ids
            and row["confidence"] >= min_confidence
            and source in (None, row["source"])
        ):
            out[row["image_id"]] = max(out.get(row["image_id"], 0.0), row["confidence"])
    return out


@settings(max_examples=80, deadline=None)
@given(label_operations)
def test_label_columns_answer_like_the_row_walk(ops):
    platform = TVDP()
    platform.catalog.define("condition", CONDITIONS)
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
        elif op["op"] == "annotate" and stored:
            platform.annotations.annotate(
                stored[op["pick"] % len(stored)],
                "condition",
                op["label"],
                op["confidence"],
                source=op["source"],
            )
        elif op["op"] == "categorical":
            labels, floor, source = op["labels"], op["min_confidence"], op["source"]
            type_ids = [platform.catalog.type_id("condition", label) for label in labels]
            ids, best = platform.slice.best_confidence(type_ids, floor, source)
            ids, best = ids.tolist(), best.tolist()
            want = row_walk(platform, type_ids, floor, source)
            assert ids == sorted(want) and all(type(i) is int for i in ids)
            assert repr(best) == repr([want[i] for i in ids])  # -0.0 reads 0.0
            assert want == brute_labels(platform, type_ids, floor, source)
            hits = platform.annotations.images_with_label("condition", labels, floor, source)
            assert hits == want and list(hits) == ids
            query = CategoricalQuery("condition", tuple(labels), floor, source)
            assert repr(platform.execute(query)) == repr(
                [QueryResult(i, want[i]) for i in ids]
            )
    assert platform.annotations.label_histogram("condition") == {
        label: len(
            platform.db.table("image_content_annotation").find(
                "type_id", platform.catalog.type_id("condition", label)
            )
        )
        for label in CONDITIONS
    }


# -- textual: one scoring function ----------------------------------------------------


class ReplacedInvertedIndex:
    """The postings and the ``search_any`` / ``search_all`` pair as they
    were before :meth:`InvertedIndex.scores`: score every posting of
    every term, then (for ``all``) throw away what misses a term."""

    def __init__(self) -> None:
        self._postings: dict[str, dict[object, int]] = {}
        self._doc_lengths: dict[object, int] = {}

    def add(self, doc_id: object, text: str) -> None:
        tokens = tokenize(text)
        self._doc_lengths[doc_id] = self._doc_lengths.get(doc_id, 0) + len(tokens)
        for term, count in Counter(tokens).items():
            bucket = self._postings.setdefault(term, {})
            bucket[doc_id] = bucket.get(doc_id, 0) + count

    def search_any(self, query: str) -> dict[object, float]:
        scores: dict[object, float] = {}
        for term in sorted(set(tokenize(query))):
            postings = self._postings.get(term, {})
            idf = math.log(1.0 + len(self._doc_lengths) / len(postings)) if postings else 0.0
            for doc_id, tf in postings.items():
                length = max(self._doc_lengths[doc_id], 1)
                scores[doc_id] = scores.get(doc_id, 0.0) + (tf / length) * idf
        return scores

    def search_all(self, query: str) -> dict[object, float]:
        terms = set(tokenize(query))
        if not terms:
            return {}
        common = set.intersection(*[set(self._postings.get(term, {})) for term in terms])
        return {doc: s for doc, s in self.search_any(query).items() if doc in common}


def canonical(scores: dict) -> list:
    """``(doc, score)`` best first, ties on ``tie_key`` — the one order."""
    return sorted(scores.items(), key=lambda pair: (-pair[1], tie_key(pair[0])))


WORDS = ["tent", "trash", "lamp", "tree", "cart"]
documents = st.lists(
    st.tuples(
        # 9 and 10 order differently as numbers and as strings; an id
        # drawn twice is indexed once, with its last words.
        st.sampled_from([2, 9, 10, 11, 100, "cam-7"]),
        st.lists(st.sampled_from(WORDS), min_size=0, max_size=5),
    ),
    min_size=1,
    max_size=12,
)
text_queries = st.lists(
    st.lists(st.sampled_from(WORDS + ["unknown", "the"]), min_size=0, max_size=4),
    min_size=1,
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(documents, text_queries)
def test_one_scoring_function_scores_like_the_pair_it_replaced(docs, queries):
    index, replaced = InvertedIndex(), ReplacedInvertedIndex()
    for doc_id, words in dict(docs).items():
        index.add(doc_id, " ".join(words))
        replaced.add(doc_id, " ".join(words))
    for words in queries:
        query = " ".join(words)
        any_hits, all_hits = index.search_any(query), index.search_all(query)
        assert repr(any_hits) == repr(canonical(replaced.search_any(query)))
        assert repr(all_hits) == repr(canonical(replaced.search_all(query)))
        assert dict(all_hits).items() <= dict(any_hits).items()


def test_ranked_ties_break_on_the_total_order_not_on_strings():
    index = InvertedIndex()
    for doc_id in (10, 9, 100):
        index.add(doc_id, "tent trash")
    assert [doc for doc, _ in index.search_any("tent")] == [9, 10, 100]
    assert [doc for doc, _ in index.search_all("trash tent")] == [9, 10, 100]


# -- the transport: answer == execute == POST /search ---------------------------------


def search_specs(params: dict) -> list[dict]:
    """One ``POST /search`` spec per family, a fused hybrid and a
    general one, from the equivalence suite's drawn parameters."""
    lat_lo, lat_hi = sorted(params["lat_pair"])
    lng_lo, lng_hi = sorted(params["lng_pair"])
    t_lo, t_hi = sorted(params["t_window"])
    spatial = {
        "type": "spatial",
        "mode": params["mode"],
        "region": {
            "min_lat": lat_lo, "min_lng": lng_lo,
            "max_lat": lat_hi + 0.01, "max_lng": lng_hi + 0.01,
        },
    }
    visual = {
        "type": "visual",
        "extractor": EXTRACTOR,
        "vector": list(params["probe_levels"]),
        "k": params["k"],
        "max_distance": params["max_distance"],
    }
    temporal = {"type": "temporal", "start": float(t_lo), "end": float(t_hi)}
    textual = {"type": "textual", "text": " ".join(params["text"]), "match": params["match"]}
    categorical = {
        "type": "categorical",
        "classification": "condition",
        "labels": ["clean", "dirty", "clean"],
        "min_confidence": params["min_confidence"],
        "source": params["source"],
    }
    return [
        spatial,
        visual,
        temporal,
        textual,
        categorical,
        {"type": "hybrid", "queries": [spatial, visual]},
        {"type": "hybrid", "queries": [temporal, textual, categorical]},
    ]


@settings(max_examples=20, deadline=None)
@given(specs=image_specs, params=query_params)
def test_answer_execute_and_the_search_body_agree(specs, params):
    platform = build_platform(specs)
    client = TVDPClient(TVDPService(platform, deterministic_keys=True))
    client.create_key(client.register_user("reader", role="researcher"))
    try:
        for n_shards in (1, 4):
            platform.set_shards(n_shards)
            for spec in search_specs(params):
                _, _, query = schema.ROUTES["POST /search"].check({}, {}, spec)
                results = platform.execute(query)
                assert platform.answer(query).results() == results
                assert results == platform.execute_serial(query)
                body = client.search(spec)
                assert repr(body) == repr(
                    [{"image_id": r.image_id, "score": r.score} for r in results]
                ), (n_shards, spec)
    finally:
        platform.close()
