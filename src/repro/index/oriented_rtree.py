"""Oriented R-tree: an R-tree over FOVs that also prunes by direction.

Follows the idea of Lu, Shahabi & Kim (GeoInformatica 2016, paper
ref. [25]): each node augments its MBR with a summary of the viewing
directions stored beneath it, so directional queries ("images looking
north at this intersection") skip subtrees whose orientations can't
match.  We summarise directions as a bitmask over 16 equal sectors of
the compass — compact, unions are single ORs, and pruning is exact at
the sector granularity.
"""

from __future__ import annotations

import threading

from repro.errors import IndexError_
from repro.geo.fov import FieldOfView
from repro.geo.geodesy import angular_difference_deg, normalize_bearing
from repro.geo.point import BoundingBox, GeoPoint
from repro.index.rtree import RTree
from repro.obs import metrics as _metrics
from repro.obs.accounting import charge_probes

# Probe counters: how many MBR candidates each query pulled from the
# underlying tree, how many the direction bitmask pruned before the
# exact angular check, and how many survived full refinement.
_QUERIES = _metrics().counter("index.oriented.queries")
_CANDIDATES = _metrics().counter("index.oriented.candidates")
_MASK_PRUNED = _metrics().counter("index.oriented.mask_pruned")
_REFINED_HITS = _metrics().counter("index.oriented.refined_hits")

#: Number of compass sectors in a direction bitmask.
SECTORS = 16
_SECTOR_DEG = 360.0 / SECTORS


def direction_mask(direction_deg: float, tolerance_deg: float = 0.0) -> int:
    """Bitmask of compass sectors within ``tolerance_deg`` of a bearing."""
    direction = normalize_bearing(direction_deg)
    mask = 0
    for sector in range(SECTORS):
        center = (sector + 0.5) * _SECTOR_DEG
        if angular_difference_deg(center, direction) <= tolerance_deg + _SECTOR_DEG / 2.0:
            mask |= 1 << sector
    return mask


class OrientedRTree:
    """R-tree over FOV sectors with per-entry direction masks.

    Items are indexed by the MBR of their FOV; each leaf entry also
    carries its FOV so queries can refine exactly (sector containment /
    intersection) after the filter step.
    """

    def __init__(self, max_entries: int = 8) -> None:
        self._tree = RTree(max_entries=max_entries)
        self._fovs: dict[object, FieldOfView] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._tree)

    def insert(self, item: object, fov: FieldOfView) -> None:
        """Index one image's FOV."""
        with self._lock:
            if item in self._fovs:
                raise IndexError_(f"item {item!r} already indexed")
            self._fovs[item] = fov
            self._tree.insert((item, direction_mask(fov.direction_deg)), fov.mbr())

    def fov_of(self, item: object) -> FieldOfView:
        """The FOV an item was indexed with."""
        if item not in self._fovs:
            raise IndexError_(f"item {item!r} not in index")
        return self._fovs[item]

    def bounds(self) -> BoundingBox | None:
        """Union MBR of every indexed FOV (``None`` when empty) — the
        spatial extent the shard planner prunes against."""
        return self._tree.bounds()

    # -- queries ------------------------------------------------------------

    def search_range(
        self,
        box: BoundingBox,
        direction_deg: float | None = None,
        tolerance_deg: float = 45.0,
    ) -> list[object]:
        """Items whose FOV sector intersects ``box``; optionally only
        those looking within ``tolerance_deg`` of ``direction_deg``.

        Two-phase: MBR + direction-mask filter in the tree, exact
        sector-vs-box and angular refinement on candidates.
        """
        query_mask = (
            direction_mask(direction_deg, tolerance_deg)
            if direction_deg is not None
            else None
        )
        results = []
        candidates = self._tree.search_range(box)
        mask_pruned = 0
        for payload in candidates:
            item, mask = payload
            if query_mask is not None and not (mask & query_mask):
                mask_pruned += 1
                continue
            fov = self._fovs[item]
            if direction_deg is not None and not fov.direction_matches(
                direction_deg, tolerance_deg
            ):
                continue
            if fov.intersects_box(box):
                results.append(item)
        _QUERIES.inc()
        _CANDIDATES.inc(len(candidates))
        charge_probes("oriented", len(candidates))
        _MASK_PRUNED.inc(mask_pruned)
        _REFINED_HITS.inc(len(results))
        return results

    def search_point(
        self,
        lat: float,
        lng: float,
        direction_deg: float | None = None,
        tolerance_deg: float = 45.0,
    ) -> list[object]:
        """Items whose FOV contains the query point (i.e. images that
        *depict* this location), optionally direction-filtered."""
        point = GeoPoint(lat, lng)
        probe = BoundingBox(lat, lng, lat, lng)
        results = []
        candidates = self._tree.search_range(probe)
        for payload in candidates:
            item, _ = payload
            fov = self._fovs[item]
            if direction_deg is not None and not fov.direction_matches(
                direction_deg, tolerance_deg
            ):
                continue
            if fov.contains_point(point):
                results.append(item)
        _QUERIES.inc()
        _CANDIDATES.inc(len(candidates))
        charge_probes("oriented", len(candidates))
        _REFINED_HITS.inc(len(results))
        return results

    def search_overlapping(self, fov: FieldOfView) -> list[object]:
        """Items whose FOV overlaps the query FOV (used to find other
        images of the same scene for multi-view localisation)."""
        results = []
        candidates = self._tree.search_range(fov.mbr())
        for payload in candidates:
            item, _ = payload
            if self._fovs[item].overlaps_fov(fov):
                results.append(item)
        _QUERIES.inc()
        _CANDIDATES.inc(len(candidates))
        charge_probes("oriented", len(candidates))
        _REFINED_HITS.inc(len(results))
        return results
