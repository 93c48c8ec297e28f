"""A cut is one table, and it prunes and tiles as the per-shard objects did.

Two properties against oracles kept here from the code the table
replaced:

* **Pruning.**  For drawn catalogs on two to four shards and every
  family — the fused spatial-visual hybrid and a general hybrid's
  parts included, prepared leaves and plan-only ones (EXPLAIN's
  preview: no label resolved, no vector), unknown labels, terms and
  extractors, ``match="all"`` / ``"any"``, token-less text and
  open-ended windows — each leaf's ``survivors(cut)`` bitmask is the
  set of shards the old per-shard statistics kept: a ``ShardStats`` per
  shard built as ``partition_catalog`` built it, and each family's
  ``survives`` predicate applied to every non-empty one.  This is what
  keeps EXPLAIN's ``shards_considered`` / ``shards_pruned`` unchanged.
* **Tiles.**  For drawn camera points — degenerate extents, points on
  the max edges, the poles and the antimeridian, one image, none, ids
  that are not dense — the array arithmetic gives every image the code
  the ``GridIndex`` loop gave it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CategoricalQuery,
    SpatialQuery,
    TemporalQuery,
    TextualQuery,
    VisualQuery,
)
from repro.core.families import (
    Categorical,
    Conjunction,
    Spatial,
    SpatialVisual,
    Temporal,
    Textual,
    Visual,
    prepare,
)
from repro.geo.point import BoundingBox, GeoPoint
from repro.index.grid import GridIndex
from repro.shard import partition_catalog
from repro.shard.partition import _assign_shards, _image_columns
from tests.shard.test_equivalence import build_platform, catalogs, make_queries, query_params

GRID = (3, 3)
_TIME_FIELDS = ("timestamp_capturing", "timestamp_uploading")


# -- the oracle: per-shard statistics and predicates -------------------------


@dataclass(frozen=True)
class ShardStats:
    shard_id: int
    n_images: int
    bounds: BoundingBox | None
    term_dfs: dict
    time_ranges: dict
    annotation_types: dict
    extractors: tuple


def shard_stats(platform, codes: np.ndarray, shard_id: int) -> ShardStats:
    """One shard's statistics, read off the slice through its owner map."""
    catalog, images = platform.slice, _image_columns(platform)

    def owns(ids):
        return codes.take(ids, mode="clip") == shard_id

    mine = owns(images["image_id"])
    lat, lng = images["lat"][mine], images["lng"][mine]
    cameras = catalog._cameras.view()
    mbrs = np.array(cameras.extra[3:])[:, owns(cameras.ids)]
    bounds = None
    if mbrs.shape[1]:
        bounds = BoundingBox(*mbrs[:2].min(axis=1).tolist(), *mbrs[2:].max(axis=1).tolist())
    time_ranges = {}
    if len(lat):
        points = BoundingBox(float(lat.min()), float(lng.min()), float(lat.max()), float(lng.max()))
        bounds = points if bounds is None else bounds.union(points)
        time_ranges = {
            field: (float(np.fmin.reduce(times)), float(np.fmax.reduce(times)))
            for field in _TIME_FIELDS
            if len(times := images[field][mine])
        }
    labels, vectors = (
        {
            key: n
            for key, columns in registry.items()
            if (n := int(np.count_nonzero(owns(columns.live()[0]))))
        }
        for registry in (catalog._labels, catalog._vector_points)
    )
    index = catalog.text
    dfs = {
        term: n
        for term, postings in index._postings.items()
        if (n := int(np.count_nonzero(owns(index._ids[postings.live()[0]]))))
    }
    return ShardStats(
        shard_id, len(lat), bounds, dfs, time_ranges, labels, tuple(sorted(vectors))
    )


def survives(leaf, stats: ShardStats) -> bool:
    if isinstance(leaf, Conjunction):
        return any(survives(part, stats) for part in leaf.parts)
    if isinstance(leaf, SpatialVisual):
        return survives(leaf.spatial, stats) and survives(leaf.visual, stats)
    if isinstance(leaf, Spatial):
        return stats.bounds is not None and stats.bounds.intersects(leaf.region)
    if isinstance(leaf, Temporal):
        query, window = leaf.query, stats.time_ranges.get(leaf.query.field)
        return (
            window is not None
            and (query.end is None or window[0] <= query.end)
            and (query.start is None or query.start <= window[1])
        )
    if isinstance(leaf, Categorical):
        counts = stats.annotation_types
        return leaf.type_ids is None or any(counts.get(t, 0) > 0 for t in leaf.type_ids)
    if isinstance(leaf, Textual):
        every, dfs = all if leaf.query.match == "all" else any, stats.term_dfs
        return bool(leaf.terms) and every(dfs.get(term, 0) > 0 for term in leaf.terms)
    assert isinstance(leaf, Visual)
    return leaf.query.extractor_name in stats.extractors


def survivors(leaf, stats: list) -> int:
    """The router's old ``_survivors``, as a bitmask."""
    return sum(1 << s.shard_id for s in stats if s.n_images and survives(leaf, s))


# -- pruning -----------------------------------------------------------------


def edge_queries(params: dict) -> list:
    """Queries the drawn ones leave out: a box an FOV reaches but no
    camera is in, open windows, unknown keys, token-less text."""
    t = float(params["t_window"][0])
    vector = np.asarray(params["probe_levels"], dtype=np.float64)
    lat, lng = params["lat_pair"][0], params["lng_pair"][0]
    return [
        SpatialQuery(region=BoundingBox(lat + 0.002, lng - 0.002, lat + 0.003, lng + 0.002)),
        TemporalQuery(start=t, end=None),
        TemporalQuery(start=None, end=t, field="timestamp_uploading"),
        TemporalQuery(start=-5.0, end=-1.0),  # before every capture
        TextualQuery(text="zebra pothole", match="all"),
        TextualQuery(text="zebra pothole", match="any"),
        TextualQuery(text="the of", match="any"),
        TextualQuery(text="the of", match="all"),
        CategoricalQuery(classification="extra", labels=("unused",)),
        CategoricalQuery(classification="condition", labels=("dirty",), min_confidence=0.9),
        VisualQuery(extractor_name="pixel_probe", vector=vector, k=1, max_distance=0.0),
    ]


@settings(max_examples=40, deadline=None)
@given(specs=catalogs, params=query_params, n_shards=st.integers(2, 4))
def test_a_leaf_prunes_to_the_shards_the_per_shard_statistics_kept(specs, params, n_shards):
    platform = build_platform(specs)
    platform.catalog.define("extra", ["unused"])  # a label no image carries
    try:
        cut = partition_catalog(platform, n_shards, grid=GRID)
        stats = [shard_stats(platform, cut.codes, s) for s in range(n_shards)]
        assert cut.counts == tuple(s.n_images for s in stats)
        queries = make_queries(params) + edge_queries(params)
        leaves = [prepare(query, platform) for query in queries]
        leaves += [prepare(query) for query in queries]  # plan-only, as EXPLAIN previews
        unknown = prepare(queries[4], platform)
        unknown.type_ids = (999,)  # a type id no annotation has
        leaves += [unknown, prepare(VisualQuery("unindexed", vector=np.zeros(3)))]
        for leaf in leaves:
            for part in (leaf, *leaf.parts):
                assert part.survivors(cut) == survivors(part, stats), repr(part.query)
    finally:
        platform.close()


# -- tiles -------------------------------------------------------------------


def grid_codes(images: dict, n_shards: int, grid: tuple[int, int]) -> np.ndarray:
    """Every image inserted into a ``GridIndex`` over the data's box,
    then its occupied cells walked in row-major order and cut into runs
    balanced by cumulative count; overflow to shard 0."""
    ids = images["image_id"]
    codes = np.full(int(ids.max(initial=0)) + 2, -1, dtype=np.min_scalar_type(-n_shards))
    lat, lng = images["lat"], images["lng"]
    if not len(lat):
        return codes
    box = BoundingBox(float(lat.min()), float(lng.min()), float(lat.max()), float(lng.max()))
    pad = 1e-6
    if box.max_lat - box.min_lat < pad:
        box = BoundingBox(box.min_lat - pad, box.min_lng, box.max_lat + pad, box.max_lng)
    if box.max_lng - box.min_lng < pad:
        box = BoundingBox(box.min_lat, box.min_lng - pad, box.max_lat, box.max_lng + pad)
    tile_index = GridIndex(box, rows=grid[0], cols=grid[1])
    for image_id, at_lat, at_lng in zip(ids.tolist(), lat.tolist(), lng.tolist()):
        tile_index.insert(image_id, GeoPoint(at_lat, at_lng))
    cells = sorted(tile_index._cells.items())
    total = sum(len(bucket) for _, bucket in cells)
    assigned = 0
    shard = 0
    for _, bucket in cells:
        while shard < n_shards - 1 and assigned >= (shard + 1) * total / n_shards:
            shard += 1
        codes[[image_id for image_id, _ in bucket]] = shard
        assigned += len(bucket)
    codes[[image_id for image_id, _ in tile_index._overflow]] = 0
    return codes


def coordinates(low: float, high: float):
    """Draws that pile up on the extremes, the edges and one value."""
    return st.one_of(
        st.sampled_from([low, high, 0.0, 34.05]),
        st.floats(low, high, allow_nan=False),
    )


@st.composite
def camera_columns(draw) -> dict:
    n = draw(st.integers(0, 60))
    ids = draw(st.lists(st.integers(1, 500), min_size=n, max_size=n, unique=True))
    single = draw(st.booleans())  # a degenerate extent: one latitude
    lat = [draw(coordinates(-90.0, 90.0))] * n if single else [
        draw(coordinates(-90.0, 90.0)) for _ in range(n)
    ]
    lng = [draw(coordinates(-180.0, 180.0)) for _ in range(n)]
    return {
        "image_id": np.array(sorted(ids), dtype=np.int64),
        "lat": np.array(lat, dtype=np.float64),
        "lng": np.array(lng, dtype=np.float64),
    }


@settings(max_examples=300, deadline=None)
@given(
    images=camera_columns(),
    n_shards=st.integers(2, 6),
    grid=st.tuples(st.integers(1, 9), st.integers(1, 9)),
)
def test_tiles_are_assigned_as_the_grid_index_loop_assigned_them(images, n_shards, grid):
    got = _assign_shards(images, n_shards, grid)
    want = grid_codes(images, n_shards, grid)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


def test_a_catalog_of_one_image_and_one_of_none():
    one = {"image_id": np.array([7]), "lat": np.array([90.0]), "lng": np.array([-180.0])}
    assert _assign_shards(one, 3, (2, 2)).tolist() == [-1] * 7 + [0, -1]
    none = {key: np.array([]) for key in ("lat", "lng")}
    none["image_id"] = np.array([], dtype=np.int64)
    assert _assign_shards(none, 3, (2, 2)).tolist() == [-1, -1]
