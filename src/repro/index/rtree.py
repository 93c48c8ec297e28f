"""R-tree spatial index (quadratic split) over lat/lng bounding boxes.

The platform's spatial queries ("search visual data using a referential
spatial point or spatial range") run against this structure; the
oriented and hybrid variants subclass its node machinery.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

from repro.errors import IndexError_
from repro.geo.point import BoundingBox, GeoPoint
from repro.obs import metrics as _metrics
from repro.obs.accounting import charge_probes

# Probe counters shared by every tree instance; incremented once per
# query with locally-accumulated totals so the traversal loop stays hot.
_RANGE_QUERIES = _metrics().counter("index.rtree.range_queries")
_NODE_VISITS = _metrics().counter("index.rtree.node_visits")
_ENTRIES_TESTED = _metrics().counter("index.rtree.entries_tested")


@dataclass
class _Entry:
    """Leaf payload: a box and an opaque item id."""

    box: BoundingBox
    item: object


@dataclass
class _Node:
    """Tree node: leaves hold entries, internals hold children."""

    leaf: bool
    entries: list = field(default_factory=list)  # _Entry (leaf) or _Node (internal)
    box: BoundingBox | None = None

    def recompute_box(self) -> None:
        """The union of the entries' boxes (a node that has any: entries
        are never removed)."""
        box = self.entries[0].box
        for entry in self.entries[1:]:
            box = box.union(entry.box)
        self.box = box


def _enlargement(box: BoundingBox, other: BoundingBox) -> float:
    return box.union_area(other) - box.area


class RTree:
    """Quadratic-split R-tree with range search.

    ``max_entries`` controls the node fan-out; ``min_entries`` defaults
    to 40% of it, the classic Guttman recommendation.
    """

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 4:
            raise IndexError_(f"max_entries must be >= 4, got {max_entries}")
        self.max_entries = max_entries
        self.min_entries = max(2, int(0.4 * max_entries))
        self._root = _Node(leaf=True)
        self._size = 0
        # Guards structural mutation: the API layer shares one tree
        # across worker threads, and a reader racing a node split would
        # see a half-linked tree.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._size

    # -- insertion ----------------------------------------------------------

    def insert(self, item: object, box: BoundingBox) -> None:
        """Insert an item under its bounding box."""
        entry = _Entry(box=box, item=item)
        with self._lock:
            split = self._insert(self._root, entry)
            if split is not None:
                old_root = self._root
                self._root = _Node(leaf=False, entries=[old_root, split])
                self._root.recompute_box()
            self._size += 1

    def insert_point(self, item: object, point: GeoPoint) -> None:
        """Convenience: insert a degenerate (point) box."""
        self.insert(item, BoundingBox(point.lat, point.lng, point.lat, point.lng))

    def _insert(self, node: _Node, entry: _Entry) -> _Node | None:
        if node.leaf:
            node.entries.append(entry)
            node.box = entry.box if node.box is None else node.box.union(entry.box)
            if len(node.entries) > self.max_entries:
                return self._split(node)
            return None
        child = self._choose_subtree(node, entry.box)
        split = self._insert(child, entry)
        if split is not None:
            node.entries.append(split)
        node.box = entry.box if node.box is None else node.box.union(entry.box)
        if len(node.entries) > self.max_entries:
            return self._split(node)
        return None

    def _choose_subtree(self, node: _Node, box: BoundingBox) -> _Node:
        best = None
        best_key = None
        for child in node.entries:
            area = child.box.area
            key = (child.box.union_area(box) - area, area)
            if best_key is None or key < best_key:
                best_key = key
                best = child
        return best

    def _split(self, node: _Node) -> _Node:
        """Guttman quadratic split; mutates ``node`` into group 1 and
        returns a new sibling holding group 2."""
        entries = node.entries
        # Pick seeds: the pair wasting the most area together.
        worst, seeds = -1.0, (0, 1)
        for i, j in itertools.combinations(range(len(entries)), 2):
            box_i, box_j = entries[i].box, entries[j].box
            waste = box_i.union_area(box_j) - box_i.area - box_j.area
            if waste > worst:
                worst, seeds = waste, (i, j)
        group1 = [entries[seeds[0]]]
        group2 = [entries[seeds[1]]]
        box1, box2 = group1[0].box, group2[0].box
        rest = [e for idx, e in enumerate(entries) if idx not in seeds]
        while rest:
            # Honour minimum fill first.
            if len(group1) + len(rest) == self.min_entries:
                group1.extend(rest)
                for e in rest:
                    box1 = box1.union(e.box)
                break
            if len(group2) + len(rest) == self.min_entries:
                group2.extend(rest)
                for e in rest:
                    box2 = box2.union(e.box)
                break
            # Assign the entry with the strongest preference.
            best_idx, best_diff, to_first = 0, -1.0, True
            for idx, e in enumerate(rest):
                d1 = _enlargement(box1, e.box)
                d2 = _enlargement(box2, e.box)
                diff = abs(d1 - d2)
                if diff > best_diff:
                    best_idx, best_diff, to_first = idx, diff, d1 < d2
            chosen = rest.pop(best_idx)
            if to_first:
                group1.append(chosen)
                box1 = box1.union(chosen.box)
            else:
                group2.append(chosen)
                box2 = box2.union(chosen.box)
        node.entries = group1
        node.recompute_box()
        sibling = _Node(leaf=node.leaf, entries=group2)
        sibling.recompute_box()
        return sibling

    # -- queries ------------------------------------------------------------

    def search_range(self, box: BoundingBox) -> list[object]:
        """Items whose boxes intersect ``box``."""
        out: list[object] = []
        visited = 0
        tested = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            visited += 1
            if node.box is None or not node.box.intersects(box):
                continue
            if node.leaf:
                tested += len(node.entries)
                for entry in node.entries:
                    if entry.box.intersects(box):
                        out.append(entry.item)
            else:
                stack.extend(node.entries)
        _RANGE_QUERIES.inc()
        _NODE_VISITS.inc(visited)
        _ENTRIES_TESTED.inc(tested)
        charge_probes("rtree", visited + tested)
        return out
