"""Geo-tile catalog partitioning.

A shard is a row set over the platform's own
:class:`~repro.core.slice.CatalogSlice`, not a copy of it: one shard
code per image id, taken at the cut, says which shard owns each image —
and with it the image's FOV, keywords, annotations and feature vectors.
A :class:`Partition` is one cut: the code column and a
:class:`ShardHandle` per shard (its id, the code column and its
:class:`~repro.core.families.ShardStats`); for a query that lost a
shard it makes the owner mask of the shards that answered, which every
scan of the slice applies before any per-row work.  Nothing holds a
table, column or index of its own; partitioning is assigning tiles and
computing each shard's statistics from the coordinator's columns.  Shards are assigned by
geo-tile — the uniform lattice of :class:`repro.index.grid.GridIndex`
over camera points — so spatial queries tend to touch few shards and
the planner can prune the rest.

Invariants the equivalence proof (``docs/sharding.md``) rests on:

* **Disjoint cover** — every image has exactly one code (out-of-region
  cameras go to shard 0 via the grid's overflow bucket), so the rows of
  a set of shards are the disjoint union of each one's rows.
* **One index suite** — every pass reads the coordinator's columns,
  postings and LSH buffer, so its answer rows are the coordinator's
  rows, its scores use the catalog's idf and its visual candidates are
  the shards' share of the query's one candidate set: no hash function,
  tree or insertion order has to agree with another copy's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro.core.families import ShardStats
from repro.core.platform import TVDP
from repro.core.slice import CatalogSlice
from repro.geo.point import BoundingBox, GeoPoint
from repro.index.grid import GridIndex

#: The ``images`` columns a partition reads, one pass over the rows.
_TIME_FIELDS = ("timestamp_capturing", "timestamp_uploading")
_IMAGE_COLUMNS = ("image_id", "lat", "lng", *_TIME_FIELDS)


@dataclass
class ShardHandle:
    """One shard: the code column that says which images it owns, and
    the statistics the planner prunes it by."""

    shard_id: int
    codes: np.ndarray  # image id -> owning shard at the cut; -1: none
    stats: ShardStats | None = None

    def owns(self, ids: np.ndarray) -> np.ndarray:
        """Which of ``ids`` this shard owns: one gather through the code
        column (an id past the cut clips to its last code, which is -1)."""
        return self.codes.take(ids, mode="clip") == self.shard_id


class Partition:
    """One cut of the catalog: the write version it was cut at, a handle
    per shard and their statistics, in shard order."""

    def __init__(self, version: int, codes: np.ndarray, shards: list[ShardHandle]) -> None:
        self.version = version
        self.shards = shards
        self.stats = [shard.stats for shard in shards]
        self._codes = codes

    def owns(self, shard_ids: list) -> Callable[[np.ndarray], np.ndarray]:
        """The map from an id column to the mask of the ids ``shard_ids``
        own: one gather through a bool column over image ids, the code
        column looked up in a per-shard table (an id past the cut clips
        to the last entry, which no shard owns)."""
        lookup = np.zeros(len(self.shards) + 1, dtype=bool)  # [-1]: no shard
        lookup[shard_ids] = True
        return partial(lookup[self._codes].take, mode="clip")


#: Degenerate-extent pad: a catalog whose cameras all share one
#: latitude (or longitude) still needs a grid with nonzero cell sizes.
_MIN_EXTENT_DEG = 1e-6


def _image_columns(platform: TVDP) -> dict[str, np.ndarray]:
    """Every image's id, camera point and timestamps, as columns."""
    rows = platform.db.table("images").all_rows()
    return {
        name: np.array([row[name] for row in rows], dtype=np.int64 if name == "image_id" else None)
        for name in _IMAGE_COLUMNS
    }


def _data_region(images: dict) -> BoundingBox | None:
    """Tightest box around every camera point, ``None`` when empty."""
    lat, lng = images["lat"], images["lng"]
    if not len(lat):
        return None
    box = BoundingBox(float(lat.min()), float(lng.min()), float(lat.max()), float(lng.max()))
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


def _assign_shards(images: dict, n_shards: int, grid: tuple[int, int]) -> np.ndarray:
    """The shard code of every image id (-1: no image), via contiguous
    geo-tile runs.

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
    ids = images["image_id"]
    # One past the largest id, so that the last code is always -1.
    codes = np.full(int(ids.max(initial=0)) + 2, -1, dtype=np.min_scalar_type(-n_shards))
    region = _data_region(images)
    if region is None:
        return codes
    rows, cols = grid
    tile_index = GridIndex(region, rows=rows, cols=cols)
    for image_id, lat, lng in zip(ids.tolist(), images["lat"].tolist(), images["lng"].tolist()):
        tile_index.insert(image_id, GeoPoint(lat, lng))
    cells = sorted(tile_index.cell_items().items())
    total = sum(len(bucket) for _, bucket in cells)
    assigned = 0
    shard = 0
    for _, bucket in cells:
        while shard < n_shards - 1 and assigned >= (shard + 1) * total / n_shards:
            shard += 1
        codes[[image_id for image_id, _ in bucket]] = shard
        assigned += len(bucket)
    codes[[image_id for image_id, _ in tile_index.overflow_items()]] = 0
    return codes


def _shard_stats(shard: ShardHandle, images: dict, catalog: CatalogSlice) -> ShardStats:
    """Pruning statistics over one shard's rows (see
    :class:`repro.core.families.ShardStats` for the soundness notes)."""
    mine = shard.owns(images["image_id"])
    lat, lng = images["lat"][mine], images["lng"][mine]
    # FOV extents plus every camera point: augmented images have no FOV
    # but still carry a camera point, and camera-mode spatial queries
    # (plus the hybrid index) match on camera points.
    bounds = catalog.fov_bounds(shard.owns)
    time_ranges = {}
    if len(lat):
        points = BoundingBox(float(lat.min()), float(lng.min()), float(lat.max()), float(lng.max()))
        bounds = points if bounds is None else bounds.union(points)
        time_ranges = {
            field: (float(np.fmin.reduce(times)), float(np.fmax.reduce(times)))
            for field in _TIME_FIELDS
            if len(times := images[field][mine])
        }
    annotation_types, vectors = catalog.owned_counts(shard.owns)
    return ShardStats(
        shard_id=shard.shard_id,
        n_images=len(lat),
        bounds=bounds,
        term_dfs=catalog.text.term_dfs(shard.owns),
        time_ranges=time_ranges,
        annotation_types=annotation_types,
        extractors=tuple(sorted(vectors)),
    )


def partition_catalog(
    platform: TVDP, n_shards: int, grid: tuple[int, int] = (8, 8)
) -> Partition:
    """Partition ``platform``'s catalog into ``n_shards`` shards, cut at
    its current write version.

    Tiles are laid over the tight bounding box of the data (so every
    tile is populated ground, not empty city).  Empty shards are still
    returned — the planner prunes them for free via ``n_images == 0``.
    """
    version = platform.db.version
    images = _image_columns(platform)
    codes = _assign_shards(images, n_shards, grid)
    shards = [ShardHandle(shard_id, codes) for shard_id in range(n_shards)]
    for shard in shards:
        shard.stats = _shard_stats(shard, images, platform.slice)
    return Partition(version, codes, shards)
