"""Geo-tile catalog partitioning.

A shard *is* a catalog slice — the same
:class:`~repro.core.slice.CatalogSlice` the platform holds over the
whole catalog, here over a relational database holding exactly the rows
for the shard's images, its index suite rebuilt from those rows.
Shards are assigned by geo-tile — the uniform lattice of
:class:`repro.index.grid.GridIndex` over camera points — so spatial
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

The last two are :meth:`CatalogSlice.rebuild`'s contract when given the
platform's slice as ``parent``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.families import ShardStats
from repro.core.platform import TVDP
from repro.core.slice import CatalogSlice
from repro.db.database import Database
from repro.geo.point import BoundingBox, GeoPoint
from repro.index.grid import GridIndex

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
    """One shard: its catalog slice (the rows and index suite scatter
    units run against) and the statistics the planner prunes it by."""

    shard_id: int
    slice: CatalogSlice
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
    platform: TVDP, n_shards: int, grid: tuple[int, int]
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


def _slice_databases(platform: TVDP, assignment: dict[int, list[int]]) -> list[Database]:
    """One fresh TVDP database per shard: the replicated tables whole,
    plus every per-image row dealt to the shard that owns its image —
    one pass per table, primary keys preserved, each shard's rows in the
    catalog's order."""
    owner = {
        image_id: shard_id
        for shard_id, image_ids in assignment.items()
        for image_id in image_ids
    }
    dbs = [Database.tvdp() for _ in assignment]
    for db in dbs:
        for table_name in _REPLICATED_TABLES:
            for row in platform.db.table(table_name).all_rows():
                db.insert(table_name, row)
        platform.catalog.replicate_into(db)
    for table_name in _SLICED_TABLES:
        for row in platform.db.table(table_name).all_rows():
            # An image uploaded since the assignment is in no shard yet;
            # the write version has moved and the router repartitions.
            shard_id = owner.get(row["image_id"])
            if shard_id is not None:
                dbs[shard_id].insert(table_name, row)
    return dbs


def _shard_stats(shard_id: int, shard: CatalogSlice) -> ShardStats:
    """Pruning statistics over one shard's slice (see
    :class:`repro.core.families.ShardStats` for the soundness notes)."""
    # FOV extents plus every camera point: augmented images have no FOV
    # row but still carry a camera point, and camera-mode spatial
    # queries (plus the hybrid index) match on camera points.
    bounds = shard.fov_bounds()
    time_mins: dict[str, float] = {}
    time_maxs: dict[str, float] = {}
    images = shard.db.table("images").all_rows()
    for row in images:
        point_box = BoundingBox(row["lat"], row["lng"], row["lat"], row["lng"])
        bounds = point_box if bounds is None else bounds.union(point_box)
        for field in ("timestamp_capturing", "timestamp_uploading"):
            value = row[field]
            if field not in time_mins or value < time_mins[field]:
                time_mins[field] = value
            if field not in time_maxs or value > time_maxs[field]:
                time_maxs[field] = value
    annotation_types: dict[int, int] = {}
    for row in shard.db.table("image_content_annotation").all_rows():
        annotation_types[row["type_id"]] = annotation_types.get(row["type_id"], 0) + 1
    return ShardStats(
        shard_id=shard_id,
        n_images=len(images),
        bounds=bounds,
        text_docs=shard.text.doc_count(),
        term_dfs=shard.text.term_dfs(),
        time_ranges={
            field: (time_mins[field], time_maxs[field]) for field in time_mins
        },
        annotation_types=annotation_types,
        extractors=tuple(
            sorted(name for name, index in shard.visual_indexes().items() if len(index))
        ),
    )


def partition_catalog(
    platform: TVDP, n_shards: int, grid: tuple[int, int] = (8, 8)
) -> list[ShardHandle]:
    """Partition ``platform``'s catalog into ``n_shards`` shard handles.

    Tiles are laid over the tight bounding box of the data (so every
    tile is populated ground, not empty city).  Empty shards are still
    returned — the planner prunes them for free via ``n_images == 0``.
    """
    assignment = _assign_shards(platform, n_shards, grid)
    handles: list[ShardHandle] = []
    for shard_id, db in enumerate(_slice_databases(platform, assignment)):
        shard = CatalogSlice.rebuild(db, parent=platform.slice)
        handles.append(ShardHandle(shard_id, shard, _shard_stats(shard_id, shard)))
    return handles
