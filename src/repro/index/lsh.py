"""Locality-sensitive hashing for visual similarity search.

p-stable LSH (Datar et al., SoCG 2004 — the paper's ref. [26]): each of
``n_tables`` hash tables applies ``n_projections`` random Gaussian
projections quantised with bucket width ``w``; near vectors collide
with high probability.  Used for the platform's visual queries
("retrieve top-k similar images to the example image or all similar
images using a similarity threshold").
"""

from __future__ import annotations

import math
import sys
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

#: Rows per matrix-vector product.  On the 2-vCPU development host
#: OpenBLAS goes multi-threaded somewhere above ~5,000 x 50 and a single
#: ``M @ q`` then stalls for milliseconds (12,000 x 50: p50 0.13 ms, p95
#: 8.0 ms, max 12 ms; 6,000 x 50: max 4.2 ms); in 2,048-row blocks the
#: same product reads p95 0.31 ms at 12,000 rows and costs nothing at
#: 4,000 (p50 36 vs 33 us).  Table in DESIGN.md section 6.
_BLOCK_ROWS = 2048

#: Half-width of the prefilter's guard band, relative to ``max|x|^2 +
#: |q|^2`` — about 10^5 times the rounding bound it has to cover at
#: d = 50 (see :meth:`LSHIndex.nearest_rows`), and above it for any
#: dimension under ~10^6.
_BAND = 1e-9


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
        # The vector store, held once: row ``_row_of[item]`` of
        # ``_buffer`` is the item's vector and the same row of
        # ``_sq_norms`` its squared norm; the first ``len(_items)`` rows
        # are live.  Both double when full, so an insert is an amortised
        # O(dimension) row write and never invalidates what queries rank
        # against.
        self._items: list[object] = []
        self._row_of: dict[object, int] = {}
        self._buffer = np.empty((_INITIAL_ROWS, dimension))
        self._sq_norms = np.empty(_INITIAL_ROWS)
        # One lock covers inserts and taking the live-rows view: a query
        # racing an insert must see items and rows from the same moment.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

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
        which never changes — for :meth:`nearest_rows`.

        A vector whose squared norm overflows is refused: its entry in
        the norm column would poison every later prefilter."""
        vector = self._check_vector(vector)
        sq_norm = squared_norm(vector)
        if not math.isfinite(sq_norm):
            raise IndexError_(
                f"vector of item {item!r} has no finite squared norm"
            )
        keys = self._keys(vector)
        with self._lock:
            if item in self._row_of:
                raise IndexError_(f"item {item!r} already indexed")
            row = len(self._items)
            if row == len(self._buffer):
                # Views handed out earlier keep the old blocks alive and
                # stay valid: live rows are never rewritten.
                grown = np.empty((2 * row, self.dimension))
                grown[:row] = self._buffer
                self._buffer = grown
                grown_norms = np.empty(2 * row)
                grown_norms[:row] = self._sq_norms
                self._sq_norms = grown_norms
            self._buffer[row] = vector
            self._sq_norms[row] = sq_norm
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
                n_indexed = len(self._items)
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
        vector = self._check_vector(vector)
        candidates = self._candidates(keys)
        return self._rank(list(candidates), vector, k), len(candidates)

    def _rank(
        self, items: list[object], vector: np.ndarray, k: int | None
    ) -> list[tuple[object, float]]:
        """Exact ranking of the indexed ``items`` by distance to
        ``vector`` (:meth:`nearest_rows` of their rows)."""
        if not items:
            return []
        rows = np.array([self._row_of[item] for item in items])
        return self._nearest(vector, k, rows)

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
        return self.nearest_rows(vector, k)

    def nearest_rows(
        self, vector: np.ndarray, k: int | None, rows: np.ndarray | None = None
    ) -> list[tuple[object, float]]:
        """The ``k`` nearest (all, for ``k=None``) to ``vector`` of the
        vectors in the buffer ``rows`` — as :meth:`insert` returned
        them; every live row when ``None`` — as ``(item, true L2
        distance)`` in canonical order (:mod:`repro.index.ordering`).
        The one exact ranking: the fallback scan, the hash candidates
        and a caller that keeps rows beside its own columns all end
        here.

        With more rows than ``k``, one dot product per row selects and
        the exact ``norm(x - q)`` is computed only for the rows that can
        matter: ``a = |x|^2 - 2 x.q`` (the norm column and one
        matrix-vector product; ``+ |q|^2`` is the same for every row)
        orders rows as the squared distance does, up to rounding.  With
        ``e`` the largest ``|a + |q|^2 - exact^2|`` over the rows, the
        ``k`` rows of smallest ``a`` have ``exact^2 <= kth + e``, so the
        k-th exact distance does too, and every row at or under it —
        the exact top-k with its ties — has ``a <= kth + 2e``.  Dot
        products and norms of ``d`` terms give ``e <= c d u (max|x|^2 +
        |q|^2)`` for a small ``c`` and ``u`` = 1.1e-16; the band kept
        is ``_BAND`` of that sum on each side, far above ``2e``.  The
        survivors are then ranked exactly as all rows would have been,
        so distances, ties and order are those of the full computation.

        When ``k`` covers the rows, or the band is no use — not finite
        (the sum overflows), below the normal range (underflow breaks
        the relative bound), or as wide as the rows' spread (huge
        near-identical vectors) — every row is ranked exactly."""
        return self._nearest(self._check_vector(vector), k, rows)

    def _nearest(
        self, vector: np.ndarray, k: int | None, rows: np.ndarray | None
    ) -> list[tuple[object, float]]:
        """:meth:`nearest_rows` of a vector its caller has checked."""
        with self._lock:
            items = self._items
            live = len(items)
            matrix, sq_norms = self._buffer[:live], self._sq_norms[:live]
        if rows is not None:
            # Rank a subset from a gather: the product below must cost
            # what the subset costs, never what the buffer does.
            matrix, sq_norms = matrix[rows], sq_norms[rows]
        if k is not None and k < len(matrix):
            band = _BAND * float(sq_norms.max() + vector @ vector)
            if sys.float_info.min <= band < math.inf:
                approx = sq_norms - 2.0 * _row_dots(matrix, vector)
                kth = np.partition(approx, k - 1)[k - 1]
                near = np.flatnonzero(approx <= kth + band)
                if len(near) < len(matrix):
                    matrix = matrix[near]
                    rows = near if rows is None else rows[near]
        distances = np.linalg.norm(matrix - vector, axis=1)
        if rows is None:
            return nearest(items[:live], distances, k)
        return nearest([items[row] for row in rows.tolist()], distances, k)

    def vectors_at(self, rows: np.ndarray) -> np.ndarray:
        """A copy of the vectors in the buffer ``rows`` (as
        :meth:`insert` returned them), one per row of the result."""
        return self._dense_matrix()[rows]

    def _dense_matrix(self) -> np.ndarray:
        """The live rows as a view (no copy); not to be written through."""
        with self._lock:
            return self._buffer[: len(self._items)]


@np.errstate(over="ignore")  # the decorator form: no object built per call
def squared_norm(vector: np.ndarray) -> float:
    """``|vector|^2`` — infinite, and silently so, when it overflows."""
    return float(vector @ vector)


def _row_dots(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """``matrix @ vector``, at most ``_BLOCK_ROWS`` rows per product."""
    if len(matrix) <= _BLOCK_ROWS:
        return matrix @ vector
    dots = np.empty(len(matrix))
    for start in range(0, len(matrix), _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        np.dot(matrix[start:stop], vector, out=dots[start:stop])
    return dots
