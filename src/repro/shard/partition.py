"""Geo-tile catalog partitioning.

A shard is a row set over the platform's own
:class:`~repro.core.slice.CatalogSlice`, not a copy of it: one shard
code per image id, taken at the cut, says which shard owns each image —
and with it the image's FOV, keywords, annotations and feature vectors.
A :class:`Partition` is one cut, held as one table: the code column
and what the planner prunes by — per shard a bounds tuple and a
``(min, max)`` window per time field, per term, label type id and
extractor a bitmask of the shards that hold it (bit ``s``: shard
``s``).  A leaf's ``survivors(cut)`` reads it in one call
(:mod:`repro.core.families`).  For a query that lost a shard the cut
makes the owner mask of the shards that answered, which every scan of
the slice applies before any per-row work.  Nothing holds a table,
column or index of its own; partitioning is assigning tiles and
reading each source's id columns once through the code column.  Shards
are assigned by geo-tile — a uniform lattice over camera points — so
spatial queries tend to touch few shards and the planner can prune the
rest.

Invariants the equivalence proof (``docs/sharding.md``) rests on:

* **Disjoint cover** — every image has exactly one code (the lattice
  covers every camera point), so the rows of a set of shards are the
  disjoint union of each one's rows.
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

from repro.core.platform import TVDP

#: The ``images`` columns a partition reads, one pass over the rows.
_TIME_FIELDS = ("timestamp_capturing", "timestamp_uploading")
_IMAGE_COLUMNS = ("image_id", "lat", "lng", *_TIME_FIELDS)


@dataclass(frozen=True, eq=False)
class Partition:
    """One cut of the catalog, at the write version it was cut at, as
    one table.  Per-shard tuples are in shard order, ``None`` for an
    empty shard; a mask is an int, bit ``s`` for shard ``s``, and a key
    no shard holds is missing from its dict."""

    version: int
    codes: np.ndarray  # image id -> owning shard at the cut; -1: none
    counts: tuple  # images per shard
    nonempty: int  # the shards with an image
    bounds: tuple  # (min_lat, min_lng, max_lat, max_lng) of every FOV MBR and camera point
    windows: dict  # time field -> per shard (min, max)
    terms: dict  # term -> the shards with a document holding it
    labels: dict  # annotation type id -> the shards with one
    extractors: dict  # extractor name -> the shards with a vector

    def owns(self, shard_ids: list) -> Callable[[np.ndarray], np.ndarray]:
        """The map from an id column to the mask of the ids ``shard_ids``
        own: one gather through a bool column over image ids, the code
        column looked up in a per-shard table (an id past the cut clips
        to the last entry, which no shard owns)."""
        lookup = np.zeros(len(self.counts) + 1, dtype=bool)  # [-1]: no shard
        lookup[shard_ids] = True
        return partial(lookup[self.codes].take, mode="clip")


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


def _extent(values: np.ndarray) -> tuple[float, float]:
    """``(min, max)`` of a non-empty coordinate column, padded when
    degenerate."""
    low, high = float(values.min()), float(values.max())
    if high - low < _MIN_EXTENT_DEG:
        return low - _MIN_EXTENT_DEG, high + _MIN_EXTENT_DEG
    return low, high


def _assign_shards(images: dict, n_shards: int, grid: tuple[int, int]) -> np.ndarray:
    """The shard code of every image id (-1: no image), via contiguous
    geo-tile runs.

    The lattice is laid over the tight box of the camera points (so
    every tile is populated ground, not empty city, and every point
    lies in a cell).  Occupied cells are walked in row-major order and
    chunked into ``n_shards`` runs balanced by cumulative image count: a
    cell joins the run whose threshold ``(j+1)·total/n_shards`` the
    images before it reach.  Whole cells stay together and runs are
    spatially contiguous, so both a tight spatial query and anything
    *correlated* with geography (timestamps: districts come online in
    waves; vocabulary: per-district tags) concentrates in few shards —
    exactly what the planner's min/max pruning statistics can exploit.
    Round-robin dealing would balance equally well but smear every
    correlated attribute across all shards, making those ranges vacuous.
    """
    ids = images["image_id"]
    # One past the largest id, so that the last code is always -1.
    codes = np.full(int(ids.max(initial=0)) + 2, -1, dtype=np.min_scalar_type(-n_shards))
    if not len(ids):
        return codes
    cell = 0
    for axis, cells in zip(("lat", "lng"), grid):
        # RegionGrid.cell_of, on a column: a point on the max edge is in the last cell.
        low, high = _extent(images[axis])
        at = ((images[axis] - low) / ((high - low) / cells)).astype(np.int64)
        cell = cell * cells + np.minimum(at, cells - 1)
    per_cell = np.bincount(cell, minlength=grid[0] * grid[1])
    thresholds = np.arange(1, n_shards) * len(ids) / n_shards
    codes[ids] = np.searchsorted(thresholds, np.cumsum(per_cell) - per_cell, side="right")[cell]
    return codes


def _per_shard(shards: np.ndarray, counts: list, reduced: list) -> tuple:
    """Per shard, a tuple of each ``(ufunc, values)`` of ``reduced``
    reduced over its rows (``shards``: each row's code); ``None`` for an
    empty shard.  A row past the cut, code -1, lands in a slot past the
    last shard."""
    out = np.full((len(reduced), len(counts) + 1), np.nan)
    for row, (reduce, values) in zip(out, reduced):
        reduce.at(row, shards, values)
    return tuple(tuple(column) if n else None for n, column in zip(counts, out[:, :-1].T.tolist()))


def _shard_masks(columns: dict, codes: np.ndarray, n_shards: int) -> dict:
    """Per key of ``columns`` (key -> id column), the bitmask of the
    shards that own any of its ids; keys no shard owns are left out."""
    if not columns:
        return {}
    keys = list(columns)
    held = np.zeros((len(keys), n_shards + 1), dtype=bool)  # [:, -1]: past the cut
    ids = np.concatenate(list(columns.values()))
    key_rows = np.repeat(np.arange(len(keys)), [len(column) for column in columns.values()])
    held[key_rows, codes.take(ids, mode="clip")] = True
    masks: dict = {}
    for key, shard in zip(*np.nonzero(held[:, :n_shards])):
        masks[keys[key]] = masks.get(keys[key], 0) | 1 << int(shard)
    return masks


def partition_catalog(
    platform: TVDP, n_shards: int, grid: tuple[int, int] = (8, 8)
) -> Partition:
    """Partition ``platform``'s catalog into ``n_shards`` shards, cut at
    its current write version: the tiles, then one pass over each
    source — the image rows, the FOV columns, the postings, the label
    and vector id columns.  Empty shards are still counted; no leaf
    survives on one."""
    version = platform.db.version
    images = _image_columns(platform)
    codes = _assign_shards(images, n_shards, grid)
    cameras, terms, labels, vectors = platform.slice.id_columns()
    owner = codes[images["image_id"]]
    counts = np.bincount(owner, minlength=n_shards).tolist()
    # FOV MBRs plus every camera point: augmented images have no FOV
    # but still carry a camera point, and camera-mode spatial queries
    # (plus the hybrid index) match on camera points.
    min_lat, min_lng, max_lat, max_lng = cameras.extra[3:]
    lat, lng = images["lat"], images["lng"]
    bounds = _per_shard(np.concatenate([owner, codes.take(cameras.ids, mode="clip")]), counts, [
        (np.fmin, np.concatenate([lat, min_lat])),
        (np.fmin, np.concatenate([lng, min_lng])),
        (np.fmax, np.concatenate([lat, max_lat])),
        (np.fmax, np.concatenate([lng, max_lng])),
    ])
    return Partition(
        version,
        codes,
        counts=tuple(counts),
        nonempty=sum(1 << shard for shard, n in enumerate(counts) if n),
        bounds=bounds,
        windows={
            field: _per_shard(owner, counts, [(np.fmin, images[field]), (np.fmax, images[field])])
            for field in _TIME_FIELDS
        },
        terms=_shard_masks(terms, codes, n_shards),
        labels=_shard_masks(labels, codes, n_shards),
        extractors=_shard_masks(vectors, codes, n_shards),
    )
