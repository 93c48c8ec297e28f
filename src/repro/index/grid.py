"""Uniform grid index over point data.

A simple alternative to the R-tree for uniformly dense city data; the
ablation bench compares the two.
"""

from __future__ import annotations

import threading

from repro.geo.point import BoundingBox, GeoPoint
from repro.geo.regions import RegionGrid


class GridIndex:
    """Point index bucketing items into a fixed lat/lng lattice.

    Out-of-region points land in an overflow bucket scanned by every
    query, so the index never silently drops data.
    """

    def __init__(self, region: BoundingBox, rows: int = 32, cols: int = 32) -> None:
        self._grid = RegionGrid(region, rows, cols)
        self._cells: dict[tuple[int, int], list[tuple[object, GeoPoint]]] = {}
        self._overflow: list[tuple[object, GeoPoint]] = []
        self._size = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._size

    def insert(self, item: object, point: GeoPoint) -> None:
        """Index an item at a point."""
        cell = self._grid.cell_of(point)
        with self._lock:
            if cell is None:
                self._overflow.append((item, point))
            else:
                self._cells.setdefault((cell.row, cell.col), []).append((item, point))
            self._size += 1

    def search_range(self, box: BoundingBox) -> list[object]:
        """Items whose point lies inside ``box``."""
        results = []
        for cell in self._grid.cells_intersecting(box):
            for item, point in self._cells.get((cell.row, cell.col), ()):
                if box.contains_point(point):
                    results.append(item)
        for item, point in self._overflow:
            if box.contains_point(point):
                results.append(item)
        return results
