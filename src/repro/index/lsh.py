"""Locality-sensitive hashing for visual similarity search.

p-stable LSH (Datar et al., SoCG 2004 — the paper's ref. [26]): each of
``n_tables`` hash tables applies ``n_projections`` random Gaussian
projections quantised with bucket width ``w``; near vectors collide
with high probability.  Used for the platform's visual queries
("retrieve top-k similar images to the example image or all similar
images using a similarity threshold").
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import IndexError_
from repro.index.ordering import nearest
from repro.obs import metrics as _metrics
from repro.obs.accounting import charge_probes

# Probe counters: per query, how many table buckets had a collision and
# how many distinct candidates those buckets yielded for exact ranking.
_QUERIES = _metrics().counter("index.lsh.queries")
_BUCKET_HITS = _metrics().counter("index.lsh.bucket_hits")
_CANDIDATES = _metrics().counter("index.lsh.candidates")
_FALLBACK_SCANS = _metrics().counter("index.lsh.fallback_scans")

#: Rows the dense vector buffer starts with; it doubles when full.
_INITIAL_ROWS = 16


class LSHIndex:
    """Euclidean LSH over fixed-dimension feature vectors."""

    def __init__(
        self,
        dimension: int,
        n_tables: int = 8,
        n_projections: int = 12,
        bucket_width: float = 0.5,
        seed: int = 0,
    ) -> None:
        if dimension < 1:
            raise IndexError_(f"dimension must be >= 1, got {dimension}")
        if n_tables < 1 or n_projections < 1:
            raise IndexError_("n_tables and n_projections must be >= 1")
        if bucket_width <= 0:
            raise IndexError_(f"bucket_width must be positive, got {bucket_width}")
        self.dimension = dimension
        self.n_tables = n_tables
        self.n_projections = n_projections
        self.bucket_width = bucket_width
        rng = np.random.default_rng(seed)
        self._projections = rng.normal(0.0, 1.0, (n_tables, n_projections, dimension))
        self._offsets = rng.uniform(0.0, bucket_width, (n_tables, n_projections))
        self._tables: list[dict[tuple, list[object]]] = [{} for _ in range(n_tables)]
        self._vectors: dict[object, np.ndarray] = {}
        # Dense mirror of the vector store for vectorised ranking: row
        # ``_row_of[item]`` of ``_buffer`` is the item's vector, and the
        # first ``len(_items)`` rows are live.  The buffer doubles when
        # full, so an insert is an amortised O(dimension) row write and
        # never invalidates what queries rank against.
        self._items: list[object] = []
        self._row_of: dict[object, int] = {}
        self._buffer = np.empty((_INITIAL_ROWS, dimension))
        # One lock covers inserts and taking the live-rows view: a query
        # racing an insert must see items and rows from the same moment.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._vectors)

    def clone_empty(self) -> "LSHIndex":
        """An empty index sharing this one's exact hash functions.

        Shard slices built from clones produce candidate sets that
        *partition* the parent's: a vector hashes to the same buckets in
        every clone, so the union of per-shard candidates equals the
        serial candidate set — the invariant the scatter-gather
        equivalence proof rests on.
        """
        clone = LSHIndex(
            self.dimension, self.n_tables, self.n_projections, self.bucket_width
        )
        clone._projections = self._projections.copy()
        clone._offsets = self._offsets.copy()
        return clone

    def _check_vector(self, vector: np.ndarray) -> np.ndarray:
        vector = np.asarray(vector, dtype=np.float64).ravel()
        if vector.shape[0] != self.dimension:
            raise IndexError_(
                f"expected {self.dimension}-D vector, got {vector.shape[0]}-D"
            )
        return vector

    def _keys(self, vector: np.ndarray) -> list[tuple]:
        # (tables, projections) bucket ids in one shot.
        buckets = np.floor(
            (self._projections @ vector + self._offsets) / self.bucket_width
        ).astype(np.int64)
        return [tuple(row) for row in buckets.tolist()]

    def bucket_keys(self, vector: np.ndarray) -> list[tuple]:
        """The bucket ``vector`` falls in, one key per table.

        A function of the hash functions alone, so this index and every
        :meth:`clone_empty` of it return the same keys: a coordinator
        hashes a query once and hands the keys to each clone's
        :meth:`topk_in_buckets`.
        """
        return self._keys(self._check_vector(vector))

    # -- mutations ----------------------------------------------------------

    def insert(self, item: object, vector: np.ndarray) -> int:
        """Index a feature vector under an opaque item id.  Returns the
        buffer row the vector now occupies — its insertion position,
        which never changes — for :meth:`row_distances`."""
        vector = self._check_vector(vector)
        keys = self._keys(vector)
        with self._lock:
            if item in self._vectors:
                raise IndexError_(f"item {item!r} already indexed")
            row = len(self._items)
            if row == len(self._buffer):
                # Views handed out earlier keep the old block alive and
                # stay valid: live rows are never rewritten.
                grown = np.empty((2 * row, self.dimension))
                grown[:row] = self._buffer
                self._buffer = grown
            self._buffer[row] = vector
            self._vectors[item] = vector
            self._row_of[item] = row
            self._items.append(item)
            for table, key in zip(self._tables, keys):
                table.setdefault(key, []).append(item)
        return row

    # -- queries ------------------------------------------------------------

    def _candidates(self, keys: list[tuple]) -> set[object]:
        found: set[object] = set()
        bucket_hits = 0
        for table, key in zip(self._tables, keys):
            bucket = table.get(key)
            if bucket:
                bucket_hits += 1
                found.update(bucket)
        _QUERIES.inc()
        _BUCKET_HITS.inc(bucket_hits)
        _CANDIDATES.inc(len(found))
        charge_probes("lsh", len(found))
        return found

    def query_topk(
        self, vector: np.ndarray, k: int, exhaustive_fallback: bool = True
    ) -> list[tuple[object, float]]:
        """Top-``k`` nearest items by true L2 distance among hash
        candidates, ``(item, distance)`` sorted ascending.

        When the candidate set is smaller than ``k`` and
        ``exhaustive_fallback`` is set, falls back to a linear scan so
        recall never silently collapses (the platform prefers a slower
        exact answer over a wrong one).
        """
        if k < 1:
            raise IndexError_(f"k must be >= 1, got {k}")
        vector = self._check_vector(vector)
        candidates = self._candidates(self._keys(vector))
        if exhaustive_fallback and len(candidates) < k:
            _FALLBACK_SCANS.inc()
            with self._lock:
                n_indexed = len(self._vectors)
            charge_probes("lsh", n_indexed)
            return self.linear_topk(vector, k)
        return self._rank(list(candidates), vector, k)

    def topk_with_stats(
        self, vector: np.ndarray, k: int
    ) -> tuple[list[tuple[object, float]], int]:
        """:meth:`topk_in_buckets` of ``vector``'s own buckets."""
        return self.topk_in_buckets(self.bucket_keys(vector), vector, k)

    def topk_in_buckets(
        self, keys: list[tuple], vector: np.ndarray, k: int
    ) -> tuple[list[tuple[object, float]], int]:
        """Phase-1 scatter probe: ranked top-``k`` among the items in
        the buckets ``keys`` (:meth:`bucket_keys` of ``vector``, from
        this index or any index it is a clone of) plus the candidate-set
        size, *without* the exhaustive fallback.

        The scatter-gather coordinator sums the per-shard candidate
        counts and triggers the exact fallback globally iff the total is
        below ``k`` — reproducing the serial fallback decision exactly.
        """
        if k < 1:
            raise IndexError_(f"k must be >= 1, got {k}")
        candidates = self._candidates(keys)
        return self._rank(list(candidates), vector, k), len(candidates)

    def _rank(
        self, items: list[object], vector: np.ndarray, k: int | None
    ) -> list[tuple[object, float]]:
        """Vectorised exact ranking of ``items`` by distance to
        ``vector``, equal distances broken by item id (canonical order —
        see :mod:`repro.index.ordering`)."""
        if not items:
            return []
        rows = np.array([self._row_of[item] for item in items])
        return nearest(items, self.row_distances(rows, vector), k)

    def query_radius(self, vector: np.ndarray, radius: float) -> list[tuple[object, float]]:
        """All hash candidates within true distance ``radius``."""
        if radius < 0:
            raise IndexError_(f"radius must be >= 0, got {radius}")
        vector = self._check_vector(vector)
        ranked = self._rank(list(self._candidates(self._keys(vector))), vector, k=None)
        return [(item, d) for item, d in ranked if d <= radius]

    def linear_topk(self, vector: np.ndarray, k: int) -> list[tuple[object, float]]:
        """Exact brute-force top-k — the baseline the LSH ablation bench
        compares against."""
        if k < 1:
            raise IndexError_(f"k must be >= 1, got {k}")
        vector = self._check_vector(vector)
        # Items and matrix must come from one locked snapshot: a
        # concurrent insert between the two reads would leave more
        # items than matrix rows, and so than distances.
        with self._lock:
            items = list(self._items)
            matrix = self._dense_matrix_locked()
        return nearest(items, np.linalg.norm(matrix - vector, axis=1), k)

    def row_distances(self, rows: np.ndarray, vector: np.ndarray) -> np.ndarray:
        """True L2 distance from ``vector`` to the vector in each of the
        buffer ``rows``, as :meth:`insert` returned them.  Lets a caller
        that keeps those rows beside its own columns rank a subset
        without a copy of the vector store."""
        vector = self._check_vector(vector)
        return np.linalg.norm(self._dense_matrix()[rows] - vector, axis=1)

    def _dense_matrix(self) -> np.ndarray:
        with self._lock:
            return self._dense_matrix_locked()

    def _dense_matrix_locked(self) -> np.ndarray:
        """The live rows as a view (no copy); the caller holds the lock
        and must not write through it."""
        return self._buffer[: len(self._items)]
