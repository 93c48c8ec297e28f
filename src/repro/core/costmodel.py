"""Static cost annotations for the six query families.

Scale-out planning needs to know, per access path, *where the work is*:
which per-item loops dominate, which probe counters measure them, and
what the asymptotic shape of each family's execution is.  This module
is that knowledge, written down as data:

* :data:`COST_MODEL` maps each query family to a cost class, the
  **dominant probe counters** that measure its hot loops at runtime,
  and the **hot sites** — fully-qualified names of the per-item loops
  static analysis found on that family's execution path (the access
  path itself is the family's ``path`` in :mod:`repro.core.families`;
  what each cost string abbreviates is written out in DESIGN.md §6,
  "What each family's cost string means").
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
    },
    "temporal": {
        "cost": (
            "O(log n + k) two bisects of the timestamp array + two of "
            "the unmerged tail (t <= 256 rows), then O(k log k) one sort "
            "of the k image ids"
        ),
        "dominant_counters": [],
        "hot_sites": [],
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
    },
}


def cost_annotation(family: str) -> dict | None:
    """The static cost annotation for one query family, shaped for a
    plan node: ``{cost, dominant_counters}`` (``None`` for families the
    model does not cover)."""
    entry = COST_MODEL.get(family)
    if entry is None:
        return None
    return {
        "cost": entry["cost"],
        "dominant_counters": list(entry["dominant_counters"]),
    }
