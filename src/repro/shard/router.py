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
   :class:`~repro.core.queries.Answer` (id and score columns).  The
   shards are a disjoint cover, so a merge only orders: the chained ids
   for enumeration families, the shards' own group-maxes by image id
   for categorical, the shards' tf-idf scores (each computed with the
   coordinator's global idf) canonically for text, two-phase
   candidate/fallback top-k for visual, distance-level merges for
   ranked families, and :func:`~repro.core.queries.combine_hybrid` for
   general hybrids.

Failed shards (after retries) degrade the answer to ``partial=True``
instead of raising — on the answer, per query in the info dict, and on
the query span, beside what the dispatch did (there is no span per
scatter or per shard).
"""

from __future__ import annotations

import math
import threading
from itertools import chain

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
from repro.errors import QueryError, ShardError, TVDPError
from repro.index.inverted import tokenize
from repro.index.ordering import by_score, tie_key
from repro.resilience.clock import Clock
from repro.shard.executor import GatherResult, ScatterGatherExecutor
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
        #: The catalog's write version the partition was cut at.
        self._version: int | None = None

    # -- shard lifecycle -----------------------------------------------------

    def _ensure(self) -> tuple[list[ShardStats], ScatterGatherExecutor]:
        """Current ``(stats, executor)`` snapshot, repartitioning when
        the catalog's write version (``db.version``: any row or index
        write moves it) is not the one the partition was cut at.  Both
        are replaced wholesale on rotation, so a returned snapshot stays
        internally consistent even if a concurrent call rotates the
        partition afterwards.

        The partition itself is built with the lock *released*: it is
        slow (index builds) and calls back into platform accessors that
        take the platform's own lock, so pinning this lock across it
        would both stall readers and nest the platform's lock inside
        this one.  A racing rebuild is
        resolved at install time — the partition cut at the newer
        version wins (the first installed, at equal versions), the
        loser's fresh partition is discarded.
        """
        version = self._platform.db.version
        with self._lock:
            if self._executor is not None and version <= self._version:
                return self._stats, self._executor
        with obs.span("shard.partition", shards=self.n_shards):
            shards = partition_catalog(self._platform, self.n_shards, grid=self.grid)
        stats = [handle.stats for handle in shards]
        executor = ScatterGatherExecutor(
            shards, max_attempts=self.max_attempts, clock=self.clock
        )
        with self._lock:
            if self._executor is not None and version <= self._version:
                # Lost the install race: keep the newer partition.
                stats, executor = self._stats, self._executor
            else:
                self._stats = stats
                self._executor = executor
                self._version = version
                _log.info(
                    "partitioned %d images into %d shards",
                    sum(s.n_images for s in stats),
                    self.n_shards,
                )
        return stats, executor

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
        leaves = [leaf for prep in preps for leaf in _leaves(prep)]
        units = [leaf["unit"] for leaf in leaves]
        rounds = [self._scatter_units(units, executor)]
        # Phase 2: exact fallback for visual top-k whose global hash
        # candidate pool came up short (the serial fallback decision,
        # made once at the coordinator over summed candidate counts).
        fallback_units = [leaf["unit"] for leaf in leaves if _rearm_for_fallback(leaf)]
        if fallback_units:
            rounds.append(self._scatter_units(fallback_units, executor))
        _describe_dispatch(rounds, len(units) + len(fallback_units))
        out = []
        for prep in preps:
            answer = self._merge(prep)
            lost = sorted({s for leaf in _leaves(prep) for s in leaf["unit"].lost})
            answer.failed_shards = tuple(lost)
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

    def _scatter_units(
        self, units: list, executor: ScatterGatherExecutor
    ) -> GatherResult:
        """One scatter round: every unit's task to each of its shards,
        the payloads (or the loss) booked back on the unit."""
        batches: dict[int, list] = {}
        placements: dict[int, list] = {}
        for unit in units:
            for shard_id in unit.shard_ids:
                batches.setdefault(shard_id, []).append(unit.task)
                placements.setdefault(shard_id, []).append(unit)
        gathered = executor.scatter(batches)
        _FANOUTS.inc(len(batches))
        for shard_id, placed in placements.items():
            result = gathered.results.get(shard_id)
            if result is None:
                for unit in placed:
                    unit.lost.append(shard_id)
                continue
            for unit, payload in zip(placed, result.payloads):
                unit.payloads[shard_id] = payload
        return gathered

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
            # Every shard index is a clone_empty of the platform's, so
            # its keys are theirs: one hashing per query, not per shard.
            keys = self._platform.slice.lsh(name).bucket_keys(vector)
            if query.max_distance is not None:
                # k nearest candidates per shard, cut at the radius by
                # the merge: the same rows as cutting first.
                return self._prep(
                    "ranked_pairs",
                    query,
                    stats,
                    lambda s: s.lsh(name).topk_in_buckets(keys, vector, k)[0],
                    k=k,
                    max_distance=query.max_distance,
                )
            return self._prep(
                "two_phase_topk",
                query,
                stats,
                lambda s: s.lsh(name).topk_in_buckets(keys, vector, k),
                k=k,
                max_distance=None,
                fallback_task=lambda s: s.lsh(name).linear_topk(vector, k),
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

    # -- per-family merges ---------------------------------------------------

    def _merge(self, prep: dict) -> Answer:
        kind = prep["kind"]
        # Disjoint cover: an image lives in one shard, so payloads never
        # overlap and each shard's own per-image work is final.
        if kind == "ids":
            return Answer(sorted(chain.from_iterable(prep["unit"].ordered_payloads())))
        if kind == "categorical":
            # Each payload is a shard's (ids, best confidences) columns.
            payloads = prep["unit"].ordered_payloads()
            if not payloads:
                return Answer([], [])
            ids = np.concatenate([ids for ids, _ in payloads])
            best = np.concatenate([best for _, best in payloads])
            order = np.argsort(ids)
            return Answer(ids[order].tolist(), best[order].tolist())
        if kind == "textual":
            # A document lives in one shard and was scored there with
            # the global idf: the union is the serial score table, and
            # the one canonical sort happens here.
            scores: dict = {}
            for payload in prep["unit"].ordered_payloads():
                scores.update(payload)
            return Answer(*by_score(scores))
        if kind in ("ranked_pairs", "two_phase_topk"):
            pairs = self._merge_pairs(prep["unit"].ordered_payloads(), prep["k"])
            if prep["max_distance"] is not None:
                pairs = [(i, d) for i, d in pairs if d <= prep["max_distance"]]
            return Answer.nearest_first(pairs)
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


def _leaves(prep: dict) -> list:
    """The single-unit plans of ``prep``: a general hybrid's parts
    (hybrids do not nest), else ``prep`` itself."""
    return prep.get("parts") or [prep]


def _rearm_for_fallback(leaf: dict) -> bool:
    """Settle a visual top-k after phase 1.  Its payloads shed their
    candidate counts and are from here on ranked pairs like any other;
    when the counts sum short of ``k`` the unit is re-armed with the
    exact linear scan for one more round (what it has lost stays on it)
    and ``True`` is returned."""
    if leaf["kind"] != "two_phase_topk":
        return False
    unit = leaf["unit"]
    candidates = sum(count for _, count in unit.payloads.values())
    unit.payloads = {s: pairs for s, (pairs, _) in unit.payloads.items()}
    if candidates >= leaf["k"] or not unit.shard_ids:
        return False
    unit.task, unit.payloads = leaf["fallback_task"], {}
    return True


def _describe_dispatch(rounds: list[GatherResult], tasks: int) -> None:
    """What one request's scatter rounds did, on the request's own span
    (``query.<family>`` / ``query.batch``) — where ``Retry.call`` and
    the fault plan have already put ``retries`` and ``fault``."""
    span = obs.current_span()
    if span is None:
        return
    wall_ms: dict[int, float] = {}
    lost: set[int] = set()
    for gathered in rounds:
        lost.update(gathered.failed)
        for shard_id, result in gathered.results.items():
            wall_ms[shard_id] = wall_ms.get(shard_id, 0.0) + result.wall_ms
    span.set("shards_dispatched", sum(len(g.results) + len(g.failed) for g in rounds))
    span.set("shard_tasks", tasks)
    span.set("shard_wall_ms", wall_ms)
    span.set("partial", bool(lost))
    span.set("failed_shards", sorted(lost))


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
