"""Coordinator for sharded query execution.

The router owns the planner statistics and the executor that holds the
shard handles and runs per-shard plans.  For every query it

1. **prepares** a coordinator-side plan — validating exactly like the
   serial runners (same :class:`~repro.errors.QueryError` messages, in
   the same order), resolving catalog lookups, extracting query
   vectors, and charging the same coordinator-side ledger entries;
2. **prunes** shards with :func:`repro.core.planner.prune_shards`
   (sound predicates — pruning can only shrink fan-out, never results);
3. **scatters** per-shard batches of plain callables — each one a
   scan or index probe on the shard's
   :class:`~repro.core.slice.CatalogSlice`, the very methods the serial
   runners call on the platform's slice — through a
   :class:`~repro.shard.executor.ScatterGatherExecutor` (batching a
   whole ``execute_many`` round into one dispatch per shard); and
4. **merges** the payloads back into the exact serial answer, as an
   :class:`~repro.core.queries.Answer` (id and score columns): sorted
   unions for enumeration families, a group-max over the shards' label
   columns for categorical, one canonical ordering of the shards'
   disjoint tf-idf scores (each computed with the coordinator's global
   idf) for text, two-phase candidate/fallback top-k for visual,
   distance-level merges for ranked families, and
   :func:`~repro.core.queries.combine_hybrid` for general hybrids.

Failed shards (after retries) degrade the answer to ``partial=True``
instead of raising — surfaced per query in the info dict and on the
query span.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from repro import obs
from repro.core.planner import ShardStats, prune_shards
from repro.core.platform import TVDP
from repro.core.queries import (
    Answer,
    CategoricalQuery,
    HybridQuery,
    SpatialQuery,
    TemporalQuery,
    TextualQuery,
    VisualQuery,
    combine_hybrid,
)
from repro.core.slice import best_per_image
from repro.errors import QueryError, ShardError, TVDPError
from repro.index.inverted import tokenize
from repro.index.ordering import by_score, tie_key
from repro.resilience.clock import Clock
from repro.shard.executor import ScatterGatherExecutor
from repro.shard.partition import partition_catalog

_log = obs.get_logger("shard.router")

_FANOUTS = obs.metrics().counter("shard.fanouts")
_PRUNED = obs.metrics().counter("shard.shards_pruned")
_PARTIAL = obs.metrics().counter("shard.partial_results")


class _Unit:
    """One task — a callable on a catalog slice — fanned out to a set
    of shards, with its gathered payloads (``lost`` records shards that
    failed every attempt)."""

    __slots__ = ("task", "shard_ids", "payloads", "lost")

    def __init__(self, task, shard_ids: list) -> None:
        self.task = task
        self.shard_ids = list(shard_ids)
        self.payloads: dict = {}
        self.lost: list = []

    def ordered_payloads(self) -> list:
        """Payloads in ascending shard order (merge determinism)."""
        return [self.payloads[s] for s in sorted(self.payloads)]


class ShardRouter:
    """Scatter-gather coordinator bound to one :class:`TVDP` platform."""

    def __init__(
        self,
        platform: TVDP,
        n_shards: int,
        grid: tuple = (8, 8),
        max_attempts: int = 3,
        clock: Clock | None = None,
    ) -> None:
        if n_shards < 2:
            raise TVDPError(f"router needs >= 2 shards, got {n_shards}")
        self._platform = platform
        self.n_shards = n_shards
        self.grid = grid
        self.max_attempts = max_attempts
        self.clock = clock
        # Partition lifecycle lock: _ensure() rotates the stats and the
        # executor (which holds the shards) under it.  Execution
        # paths work on the immutable snapshot _ensure() returns, so
        # the lock is never held across a scatter round-trip.
        self._lock = threading.RLock()
        self._stats: list[ShardStats] = []
        self._executor: ScatterGatherExecutor | None = None
        self._fingerprint: tuple | None = None

    # -- shard lifecycle -----------------------------------------------------

    def _current_fingerprint(self) -> tuple:
        """Cheap catalog-freshness token: any upload, annotation,
        keyword, or extraction changes a row count or adds an index."""
        return (
            tuple(sorted(self._platform.db.row_counts().items())),
            tuple(sorted(self._platform.visual_indexes())),
        )

    def _ensure(self) -> tuple[list[ShardStats], ScatterGatherExecutor]:
        """Current ``(stats, executor)`` snapshot, repartitioning when
        the catalog fingerprint moved.  Both are replaced wholesale on
        rotation, so a returned snapshot stays internally consistent
        even if a concurrent call rotates the partition afterwards.

        The partition itself is built with the lock *released*: it is
        slow (index builds) and calls back into platform accessors that
        take the platform's own lock, so pinning this lock across it
        would both stall readers and nest the platform's lock inside
        this one.  A racing rebuild is
        resolved at install time — first install wins, the loser's
        fresh partition is discarded.
        """
        fingerprint = self._current_fingerprint()
        with self._lock:
            if self._executor is not None and fingerprint == self._fingerprint:
                return self._stats, self._executor
        with obs.span("shard.partition", shards=self.n_shards):
            shards = partition_catalog(self._platform, self.n_shards, grid=self.grid)
        stats = [handle.stats for handle in shards]
        executor = ScatterGatherExecutor(
            shards, max_attempts=self.max_attempts, clock=self.clock
        )
        with self._lock:
            if self._executor is not None and fingerprint == self._fingerprint:
                # Lost the install race: keep the winner's partition.
                stats, executor = self._stats, self._executor
            else:
                self._stats = stats
                self._executor = executor
                self._fingerprint = fingerprint
                _log.info(
                    "partitioned %d images into %d shards",
                    sum(s.n_images for s in stats),
                    self.n_shards,
                )
        return stats, executor

    def shard_stats(self) -> list[ShardStats]:
        """Current per-shard planner statistics (partitioning on demand)."""
        stats, _ = self._ensure()
        return list(stats)

    # -- planning helpers ----------------------------------------------------

    def _type_ids_of(self, query: CategoricalQuery) -> tuple:
        """Resolve labels to type ids in label order, exactly as
        ``AnnotationService.images_with_label`` would (same QueryError
        on the first unknown label, same catalog-lookup charges)."""
        return tuple(
            self._platform.catalog.type_id(query.classification, label)
            for label in query.labels
        )

    def _survivor_ids(self, query: object, stats: list, type_ids_of=None) -> list:
        return [
            s.shard_id
            for s in prune_shards(stats, query, type_ids_of or self._type_ids_of)
        ]

    def preview(self, query: object) -> dict:
        """Pruning annotation for EXPLAIN, without executing."""
        stats, _ = self._ensure()
        try:
            considered = len(self._survivor_ids(query, stats))
        except QueryError:
            # Unresolvable query (unknown label, missing extractor):
            # EXPLAIN still renders, with pruning unknown -> none.
            considered = self.n_shards
        return {
            "shards": self.n_shards,
            "shards_considered": considered,
            "shards_pruned": self.n_shards - considered,
        }

    # -- execution -----------------------------------------------------------

    def execute(self, query: object):
        """One query; returns ``(results, info)``."""
        return self.execute_many([query])[0]

    def execute_many(self, queries: list):
        """:meth:`answer_many` with each answer as its
        ``list[QueryResult]``: ``[(results, info), ...]``."""
        return [(answer.results(), info) for answer, info in self.answer_many(queries)]

    def answer_many(self, queries: list) -> list[tuple[Answer, dict]]:
        """A batch of queries in one scatter round per shard (plus one
        more for visual fallbacks); returns ``[(answer, info), ...]``."""
        stats, executor = self._ensure()
        preps = [self._prepare(query, stats) for query in queries]
        units: list[_Unit] = []
        for prep in preps:
            units.extend(self._collect_units(prep))
        self._scatter_units(units, executor)
        # Phase 2: exact fallback for visual top-k whose global hash
        # candidate pool came up short (the serial fallback decision,
        # made once at the coordinator over summed candidate counts).
        fallback_units: list[_Unit] = []
        for prep in preps:
            fallback_units.extend(self._plan_fallbacks(prep))
        if fallback_units:
            self._scatter_units(fallback_units, executor)
        out = []
        for prep in preps:
            answer = self._merge(prep)
            lost = sorted(self._lost_shards(prep))
            info = {
                "shards_considered": prep["considered"],
                "shards_pruned": self.n_shards - prep["considered"],
                "partial": bool(lost),
                "failed_shards": lost,
            }
            _PRUNED.inc(info["shards_pruned"])
            if lost:
                _PARTIAL.inc()
                _log.warning(
                    "query degraded to partial results; lost shards %s", lost
                )
            out.append((answer, info))
        return out

    def _scatter_units(self, units: list, executor: ScatterGatherExecutor) -> None:
        batches: dict[int, list] = {}
        placements: dict[int, list] = {}
        for unit in units:
            for shard_id in unit.shard_ids:
                batches.setdefault(shard_id, []).append(unit.task)
                placements.setdefault(shard_id, []).append(unit)
        if not batches:
            return
        with obs.span("shard.scatter", shards=len(batches), tasks=len(units)) as sp:
            gathered = executor.scatter(batches)
            sp.set("failed", len(gathered.failed))
        _FANOUTS.inc(len(batches))
        executor.absorb(gathered)
        for shard_id, placed in placements.items():
            result = gathered.results.get(shard_id)
            if result is None:
                for unit in placed:
                    unit.lost.append(shard_id)
                continue
            for unit, payload in zip(placed, result.payloads):
                unit.payloads[shard_id] = payload

    # -- per-family preparation ---------------------------------------------

    def _prep(
        self, kind: str, query: object, stats: list, task, type_ids_of=None, **extra
    ) -> dict:
        """A single-unit plan: ``task`` runs on the shards ``query``
        survives pruning on; ``extra`` is what the merge needs."""
        survivors = self._survivor_ids(query, stats, type_ids_of)
        return {
            "kind": kind,
            "considered": len(survivors),
            "unit": _Unit(task, survivors),
            **extra,
        }

    def _prepare(self, query: object, stats: list) -> dict:
        if isinstance(query, SpatialQuery):
            return self._prep("ids", query, stats, lambda s: s.spatial_ids(query))
        if isinstance(query, TemporalQuery):
            return self._prep("ids", query, stats, lambda s: s.temporal_ids(query))
        if isinstance(query, CategoricalQuery):
            type_ids = self._type_ids_of(query)
            return self._prep(
                "categorical",
                query,
                stats,
                lambda s: s.best_confidence(
                    type_ids, query.min_confidence, query.source
                ),
                type_ids_of=lambda q: type_ids,
            )
        if isinstance(query, TextualQuery):
            terms, match = tokenize(query.text), query.match
            idf = _global_idf(terms, stats)
            return self._prep(
                "textual", query, stats, lambda s: s.text.scores(terms, match, idf)
            )
        if isinstance(query, VisualQuery):
            vector = self._platform.prepare_visual(query)
            name, k = query.extractor_name, query.k
            if query.max_distance is not None:
                return self._prep(
                    "ranked_pairs",
                    query,
                    stats,
                    lambda s: s.lsh(name).query_radius(vector, query.max_distance)[:k],
                    k=k,
                    max_distance=None,
                )
            return self._prep(
                "two_phase_topk",
                query,
                stats,
                lambda s: s.lsh(name).topk_with_stats(vector, k),
                k=k,
                fallback_task=lambda s: s.lsh(name).linear_topk(vector, k),
                fallback_unit=None,
            )
        if isinstance(query, HybridQuery):
            fused = query.fused_pair()
            if fused is not None:
                spatial, visual = fused
                vector = self._platform.prepare_visual(visual)
                region = spatial.bounding_region()
                return self._prep(
                    "ranked_pairs",
                    query,
                    stats,
                    lambda s: s.spatial_visual_topk(
                        visual.extractor_name, region, vector, visual.k
                    ),
                    k=visual.k,
                    max_distance=visual.max_distance,
                )
            # General hybrids scatter each part stand-alone (per-part
            # pruning only — top-k parts are order-sensitive to their
            # full candidate pool) and intersect at the coordinator.
            part_preps = [self._prepare(sub, stats) for sub in query.queries]
            shard_ids: set = set()
            for part in part_preps:
                shard_ids.update(part["unit"].shard_ids)
            return {
                "kind": "hybrid_general",
                "parts": part_preps,
                "considered": len(shard_ids),
            }
        raise QueryError(f"unsupported query type {type(query).__name__}")

    def _collect_units(self, prep: dict) -> list:
        if prep["kind"] == "hybrid_general":
            out: list = []
            for part in prep["parts"]:
                out.extend(self._collect_units(part))
            return out
        return [prep["unit"]]

    def _plan_fallbacks(self, prep: dict) -> list:
        """Build phase-2 linear-scan units for starved visual top-ks."""
        if prep["kind"] == "hybrid_general":
            out: list = []
            for part in prep["parts"]:
                out.extend(self._plan_fallbacks(part))
            return out
        if prep["kind"] != "two_phase_topk":
            return []
        unit = prep["unit"]
        total_candidates = sum(
            candidates for _, candidates in unit.payloads.values()
        )
        if total_candidates >= prep["k"] or not unit.shard_ids:
            return []
        fallback = _Unit(prep["fallback_task"], unit.shard_ids)
        prep["fallback_unit"] = fallback
        return [fallback]

    def _lost_shards(self, prep: dict) -> set:
        if prep["kind"] == "hybrid_general":
            lost: set = set()
            for part in prep["parts"]:
                lost |= self._lost_shards(part)
            return lost
        lost = set(prep["unit"].lost)
        fallback = prep.get("fallback_unit")
        if fallback is not None:
            lost |= set(fallback.lost)
        return lost

    # -- per-family merges ---------------------------------------------------

    def _merge(self, prep: dict) -> Answer:
        kind = prep["kind"]
        if kind == "ids":
            ids: set = set()
            for payload in prep["unit"].ordered_payloads():
                ids.update(payload)
            return Answer(sorted(ids))
        if kind == "categorical":
            # Each payload is a shard's (ids, best confidences) columns.
            payloads = prep["unit"].ordered_payloads()
            if not payloads:
                return Answer([], [])
            ids, best = best_per_image(
                np.concatenate([ids for ids, _ in payloads]),
                np.concatenate([best for _, best in payloads]),
            )
            return Answer(ids.tolist(), best.tolist())
        if kind == "textual":
            # A document lives in one shard and was scored there with
            # the global idf: the union is the serial score table, and
            # the one canonical sort happens here.
            scores: dict = {}
            for payload in prep["unit"].ordered_payloads():
                scores.update(payload)
            return Answer(*by_score(scores))
        if kind == "ranked_pairs":
            pairs = self._merge_pairs(prep["unit"].ordered_payloads(), prep["k"])
            if prep["max_distance"] is not None:
                pairs = [(i, d) for i, d in pairs if d <= prep["max_distance"]]
            return Answer.nearest_first(pairs)
        if kind == "two_phase_topk":
            fallback = prep.get("fallback_unit")
            if fallback is not None:
                payloads = fallback.ordered_payloads()
            else:
                payloads = [pairs for pairs, _ in prep["unit"].ordered_payloads()]
            return Answer.nearest_first(self._merge_pairs(payloads, prep["k"]))
        if kind == "hybrid_general":
            return combine_hybrid([self._merge(part) for part in prep["parts"]])
        raise ShardError(f"unknown merge kind {kind!r}")

    @staticmethod
    def _merge_pairs(payloads: list, k: int) -> list:
        """k best ``(item, distance)`` pairs across shards under the
        canonical total order — the heap-merge of ranked families."""
        merged = [pair for payload in payloads for pair in payload]
        merged.sort(key=lambda pair: (pair[1], tie_key(pair[0])))
        return merged[:k]


def _global_idf(terms: list, stats: list) -> dict:
    """Term -> idf weight over the whole catalog, for the terms any
    shard lists.

    ``N`` and per-term document frequencies are summed over **all**
    shards — pruned ones included — from the partition-time stats, so
    pruning never shifts idf, and every shard scoring with these weights
    (in sorted-term order, as the serial index does) produces the floats
    a serial run would.
    """
    total_docs = sum(s.text_docs for s in stats)
    dfs = {term: sum(s.term_dfs.get(term, 0) for s in stats) for term in terms}
    return {term: math.log(1.0 + total_docs / df) for term, df in dfs.items() if df}
