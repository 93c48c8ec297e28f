"""Static cost annotations for the six query families.

Scale-out planning needs to know, per access path, *where the work is*:
which per-item loops dominate, which probe counters measure them, and
what the asymptotic shape of each family's execution is.  This module
is that knowledge, written down as data:

* :data:`COST_MODEL` maps each query family to a cost class, the
  **dominant probe counters** that measure its hot loops at runtime,
  and the **hot sites** — fully-qualified names of the per-item loops
  static analysis found on that family's execution path (the access
  path itself is the family's ``path`` in :mod:`repro.core.families`).
* :func:`cost_annotation` serves the planner: ``explain()`` attaches
  the entry for a plan node's family so ``/debug/explain`` output can
  be cross-checked against the measured ``counter_deltas`` (an
  annotation whose dominant counters never move under ANALYZE is stale).

The table is deliberately a **pure literal**: the ``hot-path`` pass in
``repro.devtools`` (which may not import this package — the layer DAG
isolates devtools) reads it straight out of the AST with
``ast.literal_eval`` and fails the build when a per-item loop on a
query path is neither listed here nor explicitly allowed inline.
Keeping the literal honest is therefore machine-enforced in both
directions: unlisted hot loops fail the lint, and listed sites that no
longer exist fail it too.
"""

from __future__ import annotations

#: family -> static cost annotation.  Pure literal — parsed by
#: ``repro.devtools.hotpath`` with ``ast.literal_eval``; keep every
#: value a plain str/list/dict literal.
COST_MODEL: dict = {
    "spatial": {
        "cost": (
            "O(n) vectorised column predicate; scene mode: + O(c) sector "
            "refine of the c rows whose MBR overlaps the region"
        ),
        "dominant_counters": [
            "index.columns.scans",
            "index.columns.rows_examined",
        ],
        "hot_sites": [
            "repro.core.slice.CatalogSlice.spatial_ids",
        ],
        "note": (
            "n = the slice's FOV rows, all of them examined "
            "(index.columns.rows_examined), none fetched.  Scene mode "
            "masks MBR-overlaps-region and direction on the columns, then "
            "runs the exact FOV geometry on the survivors only; camera "
            "mode masks camera-in-region and needs no refine.  The "
            "slice holds no Oriented R-tree (DESIGN.md section 6)"
        ),
    },
    "visual": {
        "cost": (
            "O(T*P) hashing + O(c*d) over the gathered candidates; "
            "fallback: O(n*d) one dot product per row + exact re-rank of "
            "the band"
        ),
        "dominant_counters": [
            "index.lsh.queries",
            "index.lsh.bucket_hits",
            "index.lsh.candidates",
        ],
        "hot_sites": [
            "repro.index.lsh.LSHIndex._candidates",
            "repro.index.lsh.LSHIndex._nearest",
            "repro.index.lsh.LSHIndex.nearest_columns",
            "repro.index.lsh._row_dots",
            "repro.index.ordering.by_distance",
        ],
        "note": (
            "c = distinct bucket candidates (buffer rows); n = indexed "
            "vectors, scanned when c < k (index.lsh.fallback_scans).  "
            "LSHIndex.nearest_columns is the one exact ranking: with more "
            "rows than k and than 128, |x|^2 - 2x.q from the norm column "
            "and one matrix-vector product (in 2,048-row blocks: "
            "_row_dots' loop is per block, not per row) selects the rows "
            "within a guard band of the k-th, and only those get the "
            "exact norm; the answer is (ids, distances) arrays in the "
            "canonical order (one lexsort), joined and lexsorted once "
            "more when several shards answer — no object per candidate"
        ),
    },
    "categorical": {
        "cost": "O(a) vectorised mask + group-max over the requested labels' columns",
        "dominant_counters": [
            "index.columns.scans",
            "index.columns.rows_examined",
        ],
        "hot_sites": [
            "repro.core.catalog.ClassificationCatalog._label_map",
        ],
        "note": (
            "a = annotations carrying any requested label, all of them "
            "examined (index.columns.rows_examined) by the min_confidence / "
            "source mask and one lexsort; no annotation row is fetched.  "
            "A label resolves by one map lookup; the map is rebuilt from "
            "both catalog tables' rows (charged rows_scanned) only by the "
            "first lookup after either table was written"
        ),
    },
    "textual": {
        "cost": (
            "any: O(n + sum df(t)) — each term's postings added into one "
            "score column over every document; all: O(min df(t) * q * "
            "log df) — the rarest term's positions bisected into every "
            "other term's; then O(h log h) one lexsort of the h hits"
        ),
        "dominant_counters": [
            "index.inverted.queries",
            "index.inverted.postings_scanned",
        ],
        "hot_sites": [
            "repro.index.inverted.InvertedIndex.scores",
        ],
        "note": (
            "n = documents, q = query terms; a loop runs per term, never "
            "per posting or per hit.  postings_scanned counts every "
            "posting of the query's terms for any; for all, the rarest "
            "term's postings plus one read per other term per document "
            "that holds them all"
        ),
    },
    "temporal": {
        "cost": (
            "O(log n + k) two bisects of the timestamp array + two of "
            "the unmerged tail (t <= 256 rows), then O(k log k) one sort "
            "of the k image ids"
        ),
        "dominant_counters": [],
        "hot_sites": [],
        "note": (
            "k = rows in the window; two bisects find its ends and only "
            "those k keys are touched (rows_scanned is charged k), on "
            "the platform and on every shard slice alike.  Inserts land "
            "in the tail, merged into the arrays every 256, or by a "
            "read that finds the tail as the last read left it"
        ),
    },
    "hybrid": {
        "cost": (
            "O(n) column filter + O(m*d) over the gathered rows: one dot "
            "product per row + exact re-rank of the band"
        ),
        "dominant_counters": [
            "index.columns.scans",
            "index.columns.rows_examined",
        ],
        "hot_sites": [
            "repro.index.lsh.LSHIndex.nearest_columns",
            "repro.index.lsh._row_dots",
            "repro.index.ordering.by_distance",
        ],
        "note": (
            "n = the extractor's indexed vectors, all of them examined "
            "by the region predicate (index.columns.rows_examined); m = "
            "those inside the region, gathered from the LSH buffer and "
            "ranked by LSHIndex.nearest_columns — the visual family's "
            "routine, never a product over the whole buffer, answering "
            "(ids, distances) arrays.  Non-fused "
            "hybrids intersect their parts' own paths"
        ),
    },
    "shard_partition": {
        "cost": (
            "O(n + p + a + v) once per catalog version: one read of the "
            "images rows, the tile assignment on columns, then one pass over "
            "each source's id columns through the code column"
        ),
        "dominant_counters": [],
        "hot_sites": [
            "repro.db.table.Table.all_rows",
            "repro.shard.partition._image_columns",
            "repro.shard.partition._assign_shards",
            "repro.shard.partition._shard_masks",
        ],
        "note": (
            "n = images, p = postings, a = annotations, v = vectors.  "
            "Build-time full scans by design: a partition copies no row, "
            "column or index — it gives every image id a shard code and "
            "reads the shards' bounds, time windows and per-key shard "
            "bitmasks off the coordinator's columns through it; amortised "
            "across queries by the router's catalog-version check (no "
            "per-query cost)"
        ),
    },
    "shard_scatter_gather": {
        "cost": (
            "O(s) retried dispatches per query + one pass per query part over "
            "the rows of its surviving shards that answered"
        ),
        "dominant_counters": [
            "shard.fanouts",
            "shard.shards_pruned",
        ],
        "hot_sites": [
            "repro.shard.router.ShardRouter.answer",
            "repro.shard.executor.ScatterGatherExecutor.dispatch",
        ],
        "note": (
            "s = surviving shards after pruning, dispatched once per query "
            "(shard.fanouts vs shard.shards_pruned); a dispatch runs no scan. "
            "Each part's one pass is its family's serial scan — under the "
            "owner mask of its answering shards only when one was lost — so "
            "it books one index.columns.scans and the rows it examined, and "
            "its payload is ordered once: no per-shard payload is merged"
        ),
    },
}


def cost_annotation(family: str) -> dict | None:
    """The static cost annotation for one query family, shaped for a
    plan node: ``{cost, dominant_counters, note}`` (``None`` for
    families the model does not cover)."""
    entry = COST_MODEL.get(family)
    if entry is None:
        return None
    return {
        "cost": entry["cost"],
        "dominant_counters": list(entry["dominant_counters"]),
        "note": entry["note"],
    }
