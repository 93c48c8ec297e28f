"""Geo-tile catalog partitioning.

A shard is a *vertical slice of the whole platform*: its own relational
database holding exactly the rows for its images, plus its own
Oriented R-tree, inverted index, LSH tables, and Visual R-tree built
over that slice.  Shards are assigned by geo-tile — the uniform lattice
of :class:`repro.index.grid.GridIndex` over camera points — so spatial
queries tend to touch few shards and the planner can prune the rest.

Invariants the equivalence proof (``docs/sharding.md``) rests on:

* **Disjoint cover** — every image lands in exactly one shard
  (out-of-region cameras go to shard 0 via the grid's overflow bucket),
  so enumeration merges are disjoint unions.
* **Preserved ids** — shard tables keep the coordinator's primary keys,
  so a shard's answer rows are the coordinator's answer rows.
* **Identical hash functions** — per-shard LSH indexes are
  :meth:`~repro.index.lsh.LSHIndex.clone_empty` clones of the parent,
  so per-shard candidate sets *partition* the serial candidate set.
* **Insertion-order parity** — indexes are rebuilt in ascending image
  id, the platform's upload order, so tree shapes are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.planner import ShardStats
from repro.core.platform import TVDP
from repro.db.database import Database
from repro.geo.fov import FieldOfView
from repro.geo.point import BoundingBox, GeoPoint
from repro.index.grid import GridIndex
from repro.index.hybrid import VisualRTree
from repro.index.inverted import InvertedIndex
from repro.index.lsh import LSHIndex
from repro.index.oriented_rtree import OrientedRTree

#: Tables replicated whole into every shard (tiny, read-mostly, FK
#: targets of the sliced tables).
_REPLICATED_TABLES = ("users", "videos")

#: Tables sliced by ``image_id`` into the owning shard, in FK order.
_SLICED_TABLES = (
    "images",
    "image_fov",
    "image_scene_location",
    "image_visual_features",
    "image_manual_keywords",
    "image_content_annotation",
)


@dataclass
class ShardHandle:
    """One shard's database and index suite — the unit the executor
    runs per-shard plans against."""

    shard_id: int
    n_shards: int
    db: Database
    spatial: OrientedRTree
    text: InvertedIndex
    lsh: dict
    hybrid: dict
    stats: ShardStats


#: Degenerate-extent pad: a catalog whose cameras all share one
#: latitude (or longitude) still needs a grid with nonzero cell sizes.
_MIN_EXTENT_DEG = 1e-6


def _data_region(platform: TVDP) -> BoundingBox | None:
    """Tightest box around every camera point, ``None`` when empty."""
    points = [
        GeoPoint(row["lat"], row["lng"])
        for row in platform.db.table("images").all_rows()
    ]
    if not points:
        return None
    box = BoundingBox.from_points(points)
    if box.max_lat - box.min_lat < _MIN_EXTENT_DEG:
        box = BoundingBox(
            box.min_lat - _MIN_EXTENT_DEG,
            box.min_lng,
            box.max_lat + _MIN_EXTENT_DEG,
            box.max_lng,
        )
    if box.max_lng - box.min_lng < _MIN_EXTENT_DEG:
        box = BoundingBox(
            box.min_lat,
            box.min_lng - _MIN_EXTENT_DEG,
            box.max_lat,
            box.max_lng + _MIN_EXTENT_DEG,
        )
    return box


def _assign_shards(
    platform: TVDP,
    n_shards: int,
    grid: tuple[int, int],
    region: BoundingBox | None,
) -> dict[int, list[int]]:
    """image ids per shard (ascending), via contiguous geo-tile runs.

    Occupied cells are walked in row-major order and chunked into
    ``n_shards`` runs balanced by cumulative image count.  Whole cells
    stay together and runs are spatially contiguous, so both a tight
    spatial query and anything *correlated* with geography (timestamps:
    districts come online in waves; vocabulary: per-district tags)
    concentrates in few shards — exactly what the planner's min/max
    pruning statistics can exploit.  Round-robin dealing would balance
    equally well but smear every correlated attribute across all
    shards, making ``ShardStats`` ranges vacuous.
    Out-of-region cameras join shard 0 — data never silently drops.
    """
    if region is None:
        region = _data_region(platform)
    rows, cols = grid
    assignment: dict[int, list[int]] = {s: [] for s in range(n_shards)}
    if region is None:
        return assignment
    tile_index = GridIndex(region, rows=rows, cols=cols)
    for row in platform.db.table("images").all_rows():
        tile_index.insert(row["image_id"], GeoPoint(row["lat"], row["lng"]))
    cells = sorted(tile_index.cell_items().items())
    total = sum(len(bucket) for _, bucket in cells)
    assigned = 0
    shard = 0
    for _, bucket in cells:
        while shard < n_shards - 1 and assigned >= (shard + 1) * total / n_shards:
            shard += 1
        assignment[shard].extend(image_id for image_id, _ in bucket)
        assigned += len(bucket)
    assignment[0].extend(image_id for image_id, _ in tile_index.overflow_items())
    return {shard: sorted(ids) for shard, ids in assignment.items()}


def _slice_database(platform: TVDP, image_ids: set[int]) -> Database:
    """A fresh TVDP database holding the replicated tables plus every
    per-image row for ``image_ids``, primary keys preserved."""
    db = Database.tvdp()
    for table_name in _REPLICATED_TABLES:
        for row in platform.db.table(table_name).all_rows():
            db.insert(table_name, dict(row))
    platform.catalog.replicate_into(db)
    for table_name in _SLICED_TABLES:
        for row in platform.db.table(table_name).all_rows():
            if row["image_id"] in image_ids:
                db.insert(table_name, dict(row))
    return db


def _build_indexes(
    platform: TVDP, db: Database, image_ids: list[int]
) -> tuple[OrientedRTree, InvertedIndex, dict, dict]:
    """Rebuild the shard's index suite in ascending image-id order."""
    spatial = OrientedRTree()
    text = InvertedIndex()
    fov_rows = {
        row["image_id"]: row for row in db.table("image_fov").all_rows()
    }
    keywords: dict[int, list[str]] = {}
    for row in db.table("image_manual_keywords").all_rows():
        keywords.setdefault(row["image_id"], []).append(row["keyword"])
    images = db.table("images")
    for image_id in image_ids:
        fov_row = fov_rows.get(image_id)
        if fov_row is not None:
            image_row = images.get(image_id)
            spatial.insert(
                image_id,
                FieldOfView(
                    camera=GeoPoint(image_row["lat"], image_row["lng"]),
                    direction_deg=fov_row["direction_deg"],
                    angle_deg=fov_row["angle_deg"],
                    range_m=fov_row["range_m"],
                ),
            )
        words = keywords.get(image_id)
        if words:
            # Same document text as upload time: keywords joined in
            # insertion (= primary key) order.
            text.add(image_id, " ".join(words))
    vectors: dict[str, dict[int, np.ndarray]] = {}
    for row in db.table("image_visual_features").all_rows():
        vectors.setdefault(row["extractor_name"], {})[row["image_id"]] = np.array(
            row["vector"], dtype=np.float64
        )
    lsh: dict[str, LSHIndex] = {}
    hybrid: dict[str, VisualRTree] = {}
    for extractor_name, source in sorted(platform.visual_indexes().items()):
        shard_lsh = source.clone_empty()
        shard_hybrid = VisualRTree(
            dimension=source.dimension,
            max_entries=platform.hybrid_indexes()[extractor_name].max_entries,
        )
        for image_id in image_ids:
            vector = vectors.get(extractor_name, {}).get(image_id)
            if vector is None:
                continue
            image_row = images.get(image_id)
            shard_lsh.insert(image_id, vector)
            shard_hybrid.insert(
                image_id, GeoPoint(image_row["lat"], image_row["lng"]), vector
            )
        lsh[extractor_name] = shard_lsh
        hybrid[extractor_name] = shard_hybrid
    return spatial, text, lsh, hybrid


def _shard_stats(
    shard_id: int,
    db: Database,
    text: InvertedIndex,
    lsh: dict,
    image_ids: list[int],
) -> ShardStats:
    """Pruning statistics over one shard's slice (see
    :class:`repro.core.planner.ShardStats` for the soundness notes)."""
    bounds: BoundingBox | None = None
    time_mins: dict[str, float] = {}
    time_maxs: dict[str, float] = {}
    for row in db.table("images").all_rows():
        # Camera-point box: augmented images have no FOV row but still
        # carry a camera point, and camera-mode spatial queries (plus
        # the hybrid index) match on camera points.
        point_box = BoundingBox(row["lat"], row["lng"], row["lat"], row["lng"])
        bounds = point_box if bounds is None else bounds.union(point_box)
        for field in ("timestamp_capturing", "timestamp_uploading"):
            value = row[field]
            if field not in time_mins or value < time_mins[field]:
                time_mins[field] = value
            if field not in time_maxs or value > time_maxs[field]:
                time_maxs[field] = value
    annotation_types: dict[int, int] = {}
    for row in db.table("image_content_annotation").all_rows():
        annotation_types[row["type_id"]] = annotation_types.get(row["type_id"], 0) + 1
    return ShardStats(
        shard_id=shard_id,
        n_images=len(image_ids),
        bounds=bounds,
        text_docs=text.doc_count(),
        term_dfs=text.term_dfs(),
        time_ranges={
            field: (time_mins[field], time_maxs[field]) for field in time_mins
        },
        annotation_types=annotation_types,
        extractors=tuple(sorted(name for name, index in lsh.items() if len(index))),
    )


def partition_catalog(
    platform: TVDP,
    n_shards: int,
    grid: tuple[int, int] = (8, 8),
    region: BoundingBox | None = None,
) -> list[ShardHandle]:
    """Partition ``platform``'s catalog into ``n_shards`` shard handles.

    ``region`` defaults to the tight bounding box of the data (so every
    tile is populated ground, not empty city); pass one explicitly to
    pin tiles to a fixed lattice.  Empty shards are still returned —
    the planner prunes them for free via ``n_images == 0``.
    """
    assignment = _assign_shards(platform, n_shards, grid, region)
    handles: list[ShardHandle] = []
    for shard_id in range(n_shards):
        image_ids = assignment.get(shard_id, [])
        db = _slice_database(platform, set(image_ids))
        spatial, text, lsh, hybrid = _build_indexes(platform, db, image_ids)
        stats = _shard_stats(shard_id, db, text, lsh, image_ids)
        if stats.bounds is not None and spatial.bounds() is not None:
            stats = ShardStats(
                shard_id=stats.shard_id,
                n_images=stats.n_images,
                bounds=stats.bounds.union(spatial.bounds()),
                text_docs=stats.text_docs,
                term_dfs=stats.term_dfs,
                time_ranges=stats.time_ranges,
                annotation_types=stats.annotation_types,
                extractors=stats.extractors,
            )
        handles.append(
            ShardHandle(
                shard_id=shard_id,
                n_shards=n_shards,
                db=db,
                spatial=spatial,
                text=text,
                lsh=lsh,
                hybrid=hybrid,
                stats=stats,
            )
        )
    return handles
