"""R-tree spatial index (quadratic split) over lat/lng bounding boxes.

The platform's spatial queries ("search visual data using a referential
spatial point or spatial range") run against this structure; the
oriented and hybrid variants subclass its node machinery.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import IndexError_
from repro.geo.point import BoundingBox, GeoPoint
from repro.obs import metrics as _metrics
from repro.obs.accounting import charge_probes

# Probe counters shared by every tree instance; incremented once per
# query with locally-accumulated totals so the traversal loop stays hot.
_RANGE_QUERIES = _metrics().counter("index.rtree.range_queries")
_NODE_VISITS = _metrics().counter("index.rtree.node_visits")
_ENTRIES_TESTED = _metrics().counter("index.rtree.entries_tested")
_KNN_QUERIES = _metrics().counter("index.rtree.knn_queries")
_KNN_HEAP_POPS = _metrics().counter("index.rtree.knn_heap_pops")


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
        boxes = [e.box for e in self.entries]
        if not boxes:
            self.box = None
            return
        box = boxes[0]
        for other in boxes[1:]:
            box = box.union(other)
        self.box = box


def _enlargement(box: BoundingBox, other: BoundingBox) -> float:
    return box.union_area(other) - box.area


def box_point_distance_deg(box: BoundingBox, point: GeoPoint) -> float:
    """Euclidean degree-space distance from a point to a box (0 inside).

    Longitude is scaled by cos(lat) so distances are locally isotropic —
    sufficient for nearest-neighbour ordering at city scale.
    """
    scale = max(math.cos(math.radians(point.lat)), 1e-12)
    dlat = max(box.min_lat - point.lat, 0.0, point.lat - box.max_lat)
    dlng = max(box.min_lng - point.lng, 0.0, point.lng - box.max_lng) * scale
    return math.hypot(dlat, dlng)


class RTree:
    """Quadratic-split R-tree with range and k-NN search.

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

    @classmethod
    def bulk_load(
        cls, entries: list[tuple[object, BoundingBox]], max_entries: int = 8
    ) -> "RTree":
        """Sort-Tile-Recursive (STR) packing: builds a near-optimally
        packed tree in one pass — the right way to index a batch upload
        (e.g. a whole LASAN collection run) instead of N inserts."""
        tree = cls(max_entries=max_entries)
        if not entries:
            return tree
        leaves = [
            _Entry(box=box, item=item) for item, box in entries
        ]
        nodes = tree._str_pack(leaves, leaf=True)
        while len(nodes) > 1:
            nodes = tree._str_pack(nodes, leaf=False)
        # The tree is still thread-local, but _root/_size are declared
        # lock-guarded — install the packed structure under the lock.
        with tree._lock:
            tree._root = nodes[0]
            tree._size = len(entries)
        return tree

    def _str_pack(self, children: list, leaf: bool) -> list[_Node]:
        """One STR level: sort by lat-center, slice into vertical runs,
        sort each run by lng-center, chunk into nodes."""
        capacity = self.max_entries

        def center(child):
            box = child.box
            return ((box.min_lat + box.max_lat) / 2.0, (box.min_lng + box.max_lng) / 2.0)

        ordered = sorted(children, key=lambda c: center(c)[0])
        n_nodes = math.ceil(len(ordered) / capacity)
        n_slices = max(1, math.ceil(math.sqrt(n_nodes)))
        slice_size = math.ceil(len(ordered) / n_slices) if n_slices else len(ordered)
        nodes: list[_Node] = []
        for start in range(0, len(ordered), slice_size):
            run = sorted(
                ordered[start : start + slice_size], key=lambda c: center(c)[1]
            )
            for chunk_start in range(0, len(run), capacity):
                node = _Node(leaf=leaf, entries=run[chunk_start : chunk_start + capacity])
                node.recompute_box()
                nodes.append(node)
        return nodes

    def delete(self, item: object, box: BoundingBox) -> bool:
        """Remove one entry matching ``(item, box)``; returns whether an
        entry was found.  Underfull nodes are condensed by reinserting
        their remaining entries (Guttman's CondenseTree)."""
        path: list[_Node] = []

        def find(node: _Node) -> _Entry | None:
            if node.box is None or not node.box.intersects(box):
                return None
            path.append(node)
            if node.leaf:
                for entry in node.entries:
                    if entry.item == item and entry.box == box:
                        return entry
                path.pop()
                return None
            for child in node.entries:
                found = find(child)
                if found is not None:
                    return found
            path.pop()
            return None

        with self._lock:
            entry = find(self._root)
            if entry is None:
                return False
            leaf = path[-1]
            leaf.entries.remove(entry)
            self._size -= 1

            orphans: list[_Entry] = []
            for depth in range(len(path) - 1, 0, -1):
                node, parent = path[depth], path[depth - 1]
                if len(node.entries) < self.min_entries:
                    parent.entries.remove(node)
                    stack = [node]
                    while stack:
                        current = stack.pop()
                        if current.leaf:
                            orphans.extend(current.entries)
                        else:
                            stack.extend(current.entries)
                else:
                    node.recompute_box()
            for node in reversed(path):
                node.recompute_box()
            if not self._root.leaf and len(self._root.entries) == 1:
                self._root = self._root.entries[0]
            for orphan in orphans:
                split = self._insert(self._root, orphan)
                if split is not None:
                    old_root = self._root
                    self._root = _Node(leaf=False, entries=[old_root, split])
                    self._root.recompute_box()
            return True

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

    def bounds(self) -> BoundingBox | None:
        """Root MBR — the union of every indexed box (``None`` when
        empty).  The shard planner prunes a shard when its bounds miss
        the query region."""
        return self._root.box

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

    def _range_entries(self, box: BoundingBox) -> Iterator[_Entry]:
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.box is None or not node.box.intersects(box):
                continue
            if node.leaf:
                for entry in node.entries:
                    if entry.box.intersects(box):
                        yield entry
            else:
                stack.extend(node.entries)

    def search_knn(self, point: GeoPoint, k: int) -> list[tuple[object, float]]:
        """The ``k`` nearest items to ``point`` with degree-space
        distances, best-first traversal."""
        if k < 1:
            raise IndexError_(f"k must be >= 1, got {k}")
        counter = itertools.count()
        heap: list[tuple[float, int, object]] = []
        if self._root.box is not None:
            heap.append((box_point_distance_deg(self._root.box, point), next(counter), self._root))
        results: list[tuple[object, float]] = []
        pops = 0
        while heap and len(results) < k:
            pops += 1
            distance, _, node_or_entry = heapq.heappop(heap)
            if isinstance(node_or_entry, _Entry):
                results.append((node_or_entry.item, distance))
                continue
            node = node_or_entry
            for child in node.entries:
                child_box = child.box
                if child_box is None:
                    continue
                heapq.heappush(
                    heap,
                    (box_point_distance_deg(child_box, point), next(counter), child),
                )
        _KNN_QUERIES.inc()
        _KNN_HEAP_POPS.inc(pops)
        charge_probes("rtree", pops)
        return results

    def height(self) -> int:
        """Tree height (leaf root = 1)."""
        node, height = self._root, 1
        while not node.leaf:
            node = node.entries[0]
            height += 1
        return height

    def all_items(self) -> list[object]:
        """Every stored item (order unspecified)."""
        out = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.leaf:
                out.extend(e.item for e in node.entries)
            else:
                stack.extend(node.entries)
        return out
