"""Visual R*-tree: the paper's hybrid index for spatial-visual search.

Following Alfarrarjeh, Shahabi & Kim (ACM MM Workshops 2017, paper
ref. [28]), each R-tree node is augmented with a summary of the feature
vectors stored beneath it — the centroid and a covering radius — so a
spatial-visual query can prune subtrees on *either* modality:

* spatially, when the node MBR misses the query region, and
* visually, when ``|query - centroid| - radius`` already exceeds the
  current k-th best feature distance.
"""

from __future__ import annotations

import heapq
import itertools
import threading

import numpy as np

from repro.errors import IndexError_
from repro.geo.point import BoundingBox, GeoPoint
from repro.index.ordering import tie_key
from repro.obs import metrics as _metrics
from repro.obs.accounting import charge_probes

# Probe counters for the best-first spatial-visual search: heap pops
# (nodes + entries expanded) and subtrees discarded by spatial pruning.
_QUERIES = _metrics().counter("index.visual_rtree.queries")
_HEAP_POPS = _metrics().counter("index.visual_rtree.heap_pops")
_SPATIAL_PRUNED = _metrics().counter("index.visual_rtree.spatial_pruned")


class _VNode:
    """Node carrying a box plus a feature-space bounding sphere.

    The sphere is taken over the node's *summary rows*, which the node
    owns: row ``i`` of ``vectors`` / ``radii`` holds entry ``i``'s
    vector and 0.0 in a leaf, child ``i``'s centroid and radius above
    one (one spare row for the overflow a split resolves).  An insert
    therefore rewrites the one row it changed and grows the box by the
    one new point; nothing is restacked.
    """

    __slots__ = (
        "leaf", "entries", "box", "centroid", "radius", "count", "vectors", "radii"
    )

    def __init__(self, leaf: bool, rows: int, dimension: int) -> None:
        self.leaf = leaf
        self.entries: list = []
        self.box: BoundingBox | None = None
        self.centroid: np.ndarray | None = None
        self.radius: float = 0.0
        self.count: int = 0
        self.vectors = np.empty((rows, dimension))
        self.radii = np.zeros(rows)

    def summarise(self, row: int) -> None:
        """Copy entry ``row``'s summary into the node's arrays."""
        entry = self.entries[row]
        if self.leaf:
            self.vectors[row] = entry[1]
        else:
            self.vectors[row] = entry.centroid
            self.radii[row] = entry.radius

    def absorb(self, box: BoundingBox, row: int) -> None:
        """One item with spatial key ``box`` arrived under entry ``row``."""
        self.box = box if self.box is None else self.box.union(box)
        self.count += 1
        self.summarise(row)

    def enclose(self) -> None:
        """Centroid and covering radius from the summary rows."""
        n = len(self.entries)
        vectors = self.vectors[:n]
        self.centroid = centroid = vectors.sum(axis=0) / n
        offsets = vectors - centroid
        reach = np.sqrt((offsets * offsets).sum(axis=1)) + self.radii[:n]
        self.radius = float(reach.max())

    def recompute(self) -> None:
        """Box, count, summary rows and sphere from the entries alone —
        for a node whose membership was replaced (a split, a new root)."""
        if self.leaf:
            boxes = [e[0] for e in self.entries]
            self.count = len(self.entries)
        else:
            boxes = [c.box for c in self.entries]
            self.count = sum(c.count for c in self.entries)
        box = boxes[0]
        for other in boxes[1:]:
            box = box.union(other)
        self.box = box
        for row in range(len(self.entries)):
            self.summarise(row)
        self.enclose()


class VisualRTree:
    """Hybrid spatial-visual index.

    Entries are ``(box, vector, item)``; construction uses the same
    quadratic-split policy as the plain R-tree on the spatial keys, with
    feature spheres maintained alongside.
    """

    def __init__(self, dimension: int, max_entries: int = 8) -> None:
        if dimension < 1:
            raise IndexError_(f"dimension must be >= 1, got {dimension}")
        if max_entries < 4:
            raise IndexError_(f"max_entries must be >= 4, got {max_entries}")
        self.dimension = dimension
        self.max_entries = max_entries
        self.min_entries = max(2, int(0.4 * max_entries))
        self._root = _VNode(True, max_entries + 1, dimension)
        self._size = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._size

    def _node(self, leaf: bool, entries: list) -> _VNode:
        """A new node over ``entries``."""
        node = _VNode(leaf, self.max_entries + 1, self.dimension)
        node.entries = entries
        node.recompute()
        return node

    # -- insertion ----------------------------------------------------------

    def insert(self, item: object, point: GeoPoint, vector: np.ndarray) -> None:
        """Index an item by camera location and feature vector."""
        vector = np.asarray(vector, dtype=np.float64).ravel()
        if vector.shape[0] != self.dimension:
            raise IndexError_(
                f"expected {self.dimension}-D vector, got {vector.shape[0]}-D"
            )
        box = BoundingBox(point.lat, point.lng, point.lat, point.lng)
        with self._lock:
            split = self._insert(self._root, (box, vector, item))
            if split is not None:
                self._root = self._node(leaf=False, entries=[self._root, split])
            self._size += 1

    def _insert(self, node: _VNode, entry: tuple) -> "_VNode | None":
        box = entry[0]
        if node.leaf:
            node.entries.append(entry)
            node.absorb(box, len(node.entries) - 1)
        else:
            best, best_key = 0, None
            for row, child in enumerate(node.entries):
                area = child.box.area
                key = (child.box.union_area(box) - area, area)
                if best_key is None or key < best_key:
                    best_key, best = key, row
            split = self._insert(node.entries[best], entry)
            node.absorb(box, best)
            if split is not None:
                node.entries.append(split)
                node.summarise(len(node.entries) - 1)
        if len(node.entries) > self.max_entries:
            return self._split(node)
        node.enclose()
        return None

    def _split(self, node: _VNode) -> "_VNode":
        boxes = [e[0] if node.leaf else e.box for e in node.entries]
        worst, seeds = -1.0, (0, 1)
        for i, j in itertools.combinations(range(len(boxes)), 2):
            waste = boxes[i].union_area(boxes[j]) - boxes[i].area - boxes[j].area
            if waste > worst:
                worst, seeds = waste, (i, j)
        group1 = [node.entries[seeds[0]]]
        group2 = [node.entries[seeds[1]]]
        box1, box2 = boxes[seeds[0]], boxes[seeds[1]]
        rest = [e for idx, e in enumerate(node.entries) if idx not in seeds]
        for entry in rest:
            box = entry[0] if node.leaf else entry.box
            grow1 = box1.union_area(box) - box1.area
            grow2 = box2.union_area(box) - box2.area
            if len(group1) + (len(rest)) == self.min_entries or grow1 <= grow2:
                group1.append(entry)
                box1 = box1.union(box)
            else:
                group2.append(entry)
                box2 = box2.union(box)
        node.entries = group1
        node.recompute()
        return self._node(leaf=node.leaf, entries=group2)

    # -- queries ------------------------------------------------------------

    def spatial_visual_knn(
        self, region: BoundingBox, vector: np.ndarray, k: int
    ) -> list[tuple[object, float]]:
        """Top-``k`` most visually similar items *within* ``region``.

        Best-first search on the visual lower bound
        ``max(0, |q - centroid| - radius)``, with spatial pruning at
        every node.  Returns ``(item, feature_distance)`` ascending.
        """
        if k < 1:
            raise IndexError_(f"k must be >= 1, got {k}")
        vector = np.asarray(vector, dtype=np.float64).ravel()
        if vector.shape[0] != self.dimension:
            raise IndexError_(
                f"expected {self.dimension}-D vector, got {vector.shape[0]}-D"
            )
        counter = itertools.count()
        heap: list[tuple[float, int, object, bool]] = []
        if self._root.box is not None:
            heap.append((0.0, next(counter), self._root, False))
        results: list[tuple[object, float]] = []
        pops = 0
        pruned = 0

        def expand(node: _VNode) -> None:
            nonlocal pruned
            if node.leaf:
                kept = [e for e in node.entries if e[0].intersects(region)]
                if kept:
                    # One vectorised distance op per visited leaf, not a
                    # NumPy call per entry.
                    distances = np.linalg.norm(
                        np.vstack([e[1] for e in kept]) - vector, axis=1
                    )
                    for entry, distance in zip(kept, distances):
                        heapq.heappush(
                            heap, (float(distance), next(counter), entry, True)
                        )
            else:
                kept_children = [
                    c
                    for c in node.entries
                    if c.box is not None and c.box.intersects(region)
                ]
                pruned += len(node.entries) - len(kept_children)
                if kept_children:
                    lowers = np.maximum(
                        0.0,
                        np.linalg.norm(
                            np.vstack([c.centroid for c in kept_children]) - vector,
                            axis=1,
                        )
                        - np.array([c.radius for c in kept_children]),
                    )
                    for child, lower in zip(kept_children, lowers):
                        heapq.heappush(heap, (float(lower), next(counter), child, False))

        while heap and len(results) < k:
            pops += 1
            bound, _, payload, is_entry = heapq.heappop(heap)
            if is_entry:
                results.append((payload[2], bound))
                continue
            node = payload
            if node.box is None or not node.box.intersects(region):
                pruned += 1
                continue
            expand(node)
        # Drain the equal-distance frontier: anything whose lower bound
        # still equals the k-th collected distance could legitimately
        # displace a collected tie, so ties at the boundary must be
        # decided by the canonical order, not by heap insertion order.
        if results:
            kth = max(distance for _, distance in results)
            while heap and heap[0][0] <= kth:
                pops += 1
                bound, _, payload, is_entry = heapq.heappop(heap)
                if is_entry:
                    results.append((payload[2], bound))
                    continue
                node = payload
                if node.box is None or not node.box.intersects(region):
                    pruned += 1
                    continue
                expand(node)
        results.sort(key=lambda pair: (pair[1], tie_key(pair[0])))
        results = results[:k]
        _QUERIES.inc()
        _HEAP_POPS.inc(pops)
        _SPATIAL_PRUNED.inc(pruned)
        charge_probes("visual_rtree", pops)
        return results

    def linear_spatial_visual_knn(
        self, region: BoundingBox, vector: np.ndarray, k: int
    ) -> list[tuple[object, float]]:
        """Exact baseline: scan everything, filter by region, sort by
        feature distance (used by the ablation bench)."""
        vector = np.asarray(vector, dtype=np.float64).ravel()
        out = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.leaf:
                kept = [e for e in node.entries if e[0].intersects(region)]
                if kept:
                    distances = np.linalg.norm(
                        np.vstack([e[1] for e in kept]) - vector, axis=1
                    )
                    out.extend(
                        (entry[2], float(distance))
                        for entry, distance in zip(kept, distances)
                    )
            else:
                stack.extend(node.entries)
        out.sort(key=lambda pair: (pair[1], tie_key(pair[0])))
        return out[:k]
