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
from repro.index.ordering import by_distance, fits, pairs
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
#: d = 50 (see :meth:`LSHIndex.nearest_columns`), and above it for any
#: dimension under ~10^6.
_BAND = 1e-9

#: Rows at or under which a top-k skips the prefilter and computes
#: every row's exact distance: there the partition, the band mask and
#: the gathers cost more than the distances they save.  Table in
#: DESIGN.md section 6.
_EXACT_ROWS = 128

#: The bucket ids saturate to these before the cast to int64: the
#: largest and the smallest double an int64 holds.  A finite vector can
#: project past them, and the cast of such a float is undefined.
_KEY_MIN = float(-(2**63))
_KEY_MAX = float(2**63 - 1024)


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
        # Each table's buckets list buffer rows, in insertion order.
        self._tables: list[dict[tuple, list[int]]] = [{} for _ in range(n_tables)]
        # The vector store, held once: row ``_row_of[item]`` of
        # ``_buffer`` is the item's vector, the same row of ``_sq_norms``
        # its squared norm and of ``_ids`` the item; the first
        # ``len(_row_of)`` rows are live.  All three double when full, so
        # an insert is an amortised O(dimension) row write and never
        # invalidates what queries rank against.  ``_ids`` is int64
        # while every item is a plain ``int`` that fits, and object dtype
        # from the first one that is not.  ``_max_sq_norm`` is the
        # largest squared norm ever inserted: at least that of any rows
        # a query ranks, which is all the guard band asks of it.
        self._row_of: dict[object, int] = {}
        self._ids = np.empty(_INITIAL_ROWS, dtype=np.int64)
        self._buffer = np.empty((_INITIAL_ROWS, dimension))
        self._sq_norms = np.empty(_INITIAL_ROWS)
        self._max_sq_norm = 0.0
        # One lock covers inserts and taking the live-rows view: a query
        # racing an insert must see ids and rows from the same moment.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._row_of)

    def _check_vector(self, vector: np.ndarray) -> np.ndarray:
        vector = np.asarray(vector, dtype=np.float64).ravel()
        if vector.shape[0] != self.dimension:
            raise IndexError_(
                f"expected {self.dimension}-D vector, got {vector.shape[0]}-D"
            )
        return vector

    def _keys(self, vector: np.ndarray) -> list[tuple]:
        # (tables, projections) bucket ids in one shot, saturated in
        # float, so that the cast is the same on every CPU.
        buckets = np.floor(
            (self._projections @ vector + self._offsets) / self.bucket_width
        )
        np.minimum(np.maximum(buckets, _KEY_MIN, out=buckets), _KEY_MAX, out=buckets)
        return [tuple(row) for row in buckets.astype(np.int64).tolist()]

    def bucket_keys(self, vector: np.ndarray) -> list[tuple]:
        """The bucket ``vector`` falls in, one key per table."""
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
            row = len(self._row_of)
            if not fits(item) and self._ids.dtype != object:
                self._ids = self._ids.astype(object)
            if row == len(self._buffer):
                # Views handed out earlier keep the old blocks alive and
                # stay valid: live rows are never rewritten.
                self._buffer = _doubled(self._buffer)
                self._sq_norms = _doubled(self._sq_norms)
                self._ids = _doubled(self._ids)
            self._buffer[row] = vector
            self._sq_norms[row] = sq_norm
            self._ids[row] = item
            if sq_norm > self._max_sq_norm:
                self._max_sq_norm = sq_norm
            self._row_of[item] = row
            for table, key in zip(self._tables, keys):
                table.setdefault(key, []).append(row)
        return row

    # -- queries ------------------------------------------------------------

    def _candidates(self, keys: list[tuple]) -> np.ndarray:
        """The buffer rows in the buckets ``keys``, each once, counted."""
        found: set[int] = set()
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
        return np.fromiter(found, dtype=np.intp, count=len(found))

    def candidates(self, vector: np.ndarray) -> np.ndarray:
        """The buffer rows in ``vector``'s buckets — its hash candidates,
        gathered and counted once per query, for whoever ranks them
        (:meth:`nearest_columns`; a shard, the rows of them it owns)."""
        return self._candidates(self.bucket_keys(vector))

    def query_topk(self, vector: np.ndarray, k: int) -> list[tuple[object, float]]:
        """Top-``k`` nearest items by true L2 distance among hash
        candidates, ``(item, distance)`` sorted ascending.

        When the candidate set is smaller than ``k`` (:func:`falls_back`)
        the answer is :meth:`scan_topk`'s instead, so recall never
        silently collapses (the platform prefers a slower exact answer
        over a wrong one).
        """
        _check_k(k)
        vector = self._check_vector(vector)
        rows = self._candidates(self._keys(vector))
        if falls_back(len(rows), k):
            return pairs(*self.scan_topk(vector, k))
        return pairs(*self._nearest(vector, k, rows))

    def topk_in_buckets(
        self, keys: list[tuple], vector: np.ndarray, k: int
    ) -> tuple[tuple[np.ndarray, np.ndarray], int]:
        """The ranked top-``k`` columns (:meth:`nearest_columns`) among
        the items in the buckets ``keys`` (:meth:`bucket_keys` of
        ``vector``) plus the candidate-set size, *without* the
        exhaustive fallback."""
        _check_k(k)
        vector = self._check_vector(vector)
        rows = self._candidates(keys)
        return self._nearest(vector, k, rows), len(rows)

    def query_radius(self, vector: np.ndarray, radius: float) -> list[tuple[object, float]]:
        """All hash candidates within true distance ``radius``."""
        if radius < 0:
            raise IndexError_(f"radius must be >= 0, got {radius}")
        vector = self._check_vector(vector)
        ids, distances = self._nearest(vector, None, self._candidates(self._keys(vector)))
        within = distances <= radius
        return pairs(ids[within], distances[within])

    def linear_topk(self, vector: np.ndarray, k: int) -> list[tuple[object, float]]:
        """Exact brute-force top-k — the baseline the LSH ablation bench
        compares against."""
        _check_k(k)
        return self.nearest_rows(vector, k)

    def scan_topk(
        self, vector: np.ndarray, k: int, owns=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`linear_topk`'s columns as the exhaustive fallback runs
        it, over every row — or only those whose items ``owns`` maps to
        true — with one ``probes.lsh`` charged per row it ranks."""
        _check_k(k)
        with self._lock:
            ids = self._ids[: len(self._row_of)]
        rows = None if owns is None else np.flatnonzero(owns(ids))
        charge_probes("lsh", len(ids) if rows is None else len(rows))
        return self.nearest_columns(vector, k, rows)

    def nearest_rows(
        self, vector: np.ndarray, k: int | None, rows: np.ndarray | None = None
    ) -> list[tuple[object, float]]:
        """:meth:`nearest_columns` as ``(item, distance)`` pairs."""
        return pairs(*self.nearest_columns(vector, k, rows))

    def nearest_columns(
        self, vector: np.ndarray, k: int | None, rows: np.ndarray | None = None, owns=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` nearest (all, for ``k=None``) to ``vector`` of the
        vectors in the buffer ``rows`` — as :meth:`insert` returned
        them; every live row when ``None`` — as two columns, the items
        and their true L2 distances, in canonical order
        (:func:`repro.index.ordering.by_distance`).  The one exact
        ranking: the fallback scan, the hash candidates and a caller
        that keeps rows beside its own columns all end here.

        With more rows than ``k`` and than ``_EXACT_ROWS``, one dot
        product per row selects and the exact ``norm(x - q)`` is
        computed only for the rows that can matter: ``a = |x|^2 - 2
        x.q`` (the norm column and one matrix-vector product; ``+ |q|^2``
        is the same for every row) orders rows as the squared distance
        does, up to rounding.  With ``e`` the largest ``|a + |q|^2 -
        exact^2|`` over the rows, the ``k`` rows of smallest ``a`` have
        ``exact^2 <= kth + e``, so the k-th exact distance does too, and
        every row at or under it — the exact top-k with its ties — has
        ``a <= kth + 2e``.  Dot products and norms of ``d`` terms give
        ``e <= c d u (max|x|^2 + |q|^2)`` for a small ``c`` and ``u`` =
        1.1e-16; the band kept is ``_BAND`` of that sum on each side, far
        above ``2e``, with ``max|x|^2`` the index's running maximum (at
        least the rows', so the band is only wider).  The survivors are
        then ranked exactly as all rows would have been, so distances,
        ties and order are those of the full computation.

        When ``k`` covers the rows, they are few, or the band is no use
        — not finite (the sum overflows), below the normal range
        (underflow breaks the relative bound), or as wide as the rows'
        spread (huge near-identical vectors) — every row is ranked
        exactly."""
        return self._nearest(self._check_vector(vector), k, rows, owns)

    def _nearest(
        self, vector: np.ndarray, k: int | None, rows: np.ndarray | None, owns=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`nearest_columns` of a vector its caller has checked."""
        with self._lock:
            live = len(self._row_of)
            ids, matrix = self._ids[:live], self._buffer[:live]
            sq_norms, max_sq_norm = self._sq_norms[:live], self._max_sq_norm
        if rows is not None:
            # Rank a subset from a gather: the product below must cost
            # what the subset costs, never what the buffer does.  (take
            # gathers rows faster than fancy indexing does.)
            ids = ids.take(rows)
            if owns is not None:
                mine = owns(ids)
                rows, ids = rows[mine], ids[mine]
            matrix = matrix.take(rows, axis=0)
        if k is not None and max(k, _EXACT_ROWS) < len(matrix):
            band = _BAND * (max_sq_norm + float(vector @ vector))
            if sys.float_info.min <= band < math.inf:
                if rows is not None:
                    sq_norms = sq_norms.take(rows)
                approx = sq_norms - 2.0 * _row_dots(matrix, vector)
                kth = np.partition(approx, k - 1)[k - 1]
                near = np.flatnonzero(approx <= kth + band)
                if len(near) < len(matrix):
                    ids, matrix = ids.take(near), matrix.take(near, axis=0)
        # np.linalg.norm(diff, axis=1), float for float, without its wrapper.
        diff = matrix - vector
        return by_distance(ids, np.sqrt(np.add.reduce(diff * diff, axis=1)), k)


def _check_k(k: int) -> None:
    if k < 1:
        raise IndexError_(f"k must be >= 1, got {k}")


def _doubled(column: np.ndarray) -> np.ndarray:
    """A copy of ``column`` with twice its rows, the new ones unset."""
    grown = np.empty((2 * len(column), *column.shape[1:]), dtype=column.dtype)
    grown[: len(column)] = column
    return grown


def falls_back(candidates: int, k: int) -> bool:
    """The exhaustive-fallback rule of a top-``k`` query: fewer hash
    candidates than ``k``, and they give way to an exact scan.  Asked
    once per query and counted in ``index.lsh.fallback_scans``."""
    if candidates < k:
        _FALLBACK_SCANS.inc()
        return True
    return False


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
