"""Struct-of-arrays sidecar: items as plain numpy columns.

The trees answer a selective question by visiting the few entries that
match it; a broad one — a quarter of the catalog — makes them visit
hundreds of nodes and build one Python object per hit.  Held as columns
(item id, latitude, longitude, plus any per-item floats such as a
viewing direction), the same items answer a box predicate in one
vectorised pass whose cost barely depends on how many match.  The same
growable block, without the point, holds each label's annotations.
"""

from __future__ import annotations

import numpy as np

from repro.geo.point import BoundingBox
from repro.obs import metrics as _metrics
from repro.obs.accounting import charge_probes

# Scan counters: how many column scans ran and how many rows their
# predicates examined (every live row, whatever the region).
_SCANS = _metrics().counter("index.columns.scans")
_ROWS_EXAMINED = _metrics().counter("index.columns.rows_examined")

#: Rows the columns start with; they double when full.
_INITIAL_ROWS = 16


def count_scan(rows: int) -> None:
    """Book one column scan whose predicate examined ``rows`` rows: the
    two counters, and ``probes.columns`` on the request's bill."""
    _SCANS.inc()
    _ROWS_EXAMINED.inc(rows)
    charge_probes("columns", rows)


class Columns:
    """A growable struct-of-arrays block, in insertion order: one int64
    id column and ``width`` float columns of equal length.

    Not locked: the owner serialises :meth:`append` against
    :meth:`live`.  What :meth:`live` returned stays valid while appends
    go on — live rows are never rewritten, and growing allocates new
    blocks rather than resizing the ones a view points into.
    """

    def __init__(self, width: int) -> None:
        self._ids = np.empty(_INITIAL_ROWS, dtype=np.int64)
        # One row per column, so each column is contiguous.
        self._values = np.empty((width, _INITIAL_ROWS))
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def append(self, item: int, *values: float) -> None:
        """Add one item with its ``width`` values."""
        row = self._count
        if row == len(self._ids):
            ids = np.empty(2 * row, dtype=np.int64)
            ids[:row] = self._ids
            grown = np.empty((len(self._values), 2 * row))
            grown[:, :row] = self._values
            self._ids, self._values = ids, grown
        self._ids[row] = item
        self._values[:, row] = values
        self._count = row + 1

    def live(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, values)`` of the live rows as of now — views to read,
        never to write through; ``values[c]`` is column ``c``."""
        n = self._count
        return self._ids[:n], self._values[:, :n]


class ColumnView:
    """The live rows of a :class:`PointColumns` at one moment: ``ids``,
    ``lat``, ``lng`` and the ``extra`` float columns as views of equal
    length (to read, never to write through)."""

    __slots__ = ("ids", "lat", "lng", "extra")

    def __init__(self, ids: np.ndarray, values: np.ndarray) -> None:
        self.ids = ids
        self.lat, self.lng, *self.extra = values

    def rows_in(self, box: BoundingBox) -> np.ndarray:
        """Positions of the rows whose point lies inside ``box`` (border
        included, as :meth:`BoundingBox.contains_point`) — one scan."""
        count_scan(len(self.ids))
        lat, lng = self.lat, self.lng
        return np.flatnonzero(
            (lat >= box.min_lat)
            & (lat <= box.max_lat)
            & (lng >= box.min_lng)
            & (lng <= box.max_lng)
        )


class PointColumns(Columns):
    """Columns over located items: latitude, longitude, then ``extra``
    per-item floats (``append(item, lat, lng, *extra)``)."""

    def __init__(self, extra: int = 0) -> None:
        super().__init__(2 + extra)

    def view(self) -> ColumnView:
        """The live rows as of now."""
        return ColumnView(*self.live())
