"""Coordinator for sharded query execution.

The router owns the partition — the shard handles, their
:class:`~repro.core.families.ShardStats` and the executor that runs
tasks on them.  For a batch of queries it prepares each query's leaf
(:func:`repro.core.families.prepare`, with the global idf from the
stats), scatters each leaf's task to the shards the leaf survives on —
one dispatch per shard for the whole batch, through a
:class:`~repro.shard.executor.ScatterGatherExecutor`, and one more round
for the visual top-ks whose fallback rule fired — and merges the
payloads with the leaf's own ``merge``.  A shard that fails every retry
degrades the answer to ``partial=True`` instead of raising: on the
answer, in the info dict, and on the query span beside what the
dispatch did (there is no span per scatter or per shard).
"""

from __future__ import annotations

import threading

from repro import obs
from repro.core.families import Leaf, ShardStats, prepare
from repro.core.platform import TVDP
from repro.core.queries import Answer
from repro.errors import TVDPError
from repro.resilience.clock import Clock
from repro.shard.executor import GatherResult, ScatterGatherExecutor
from repro.shard.partition import partition_catalog

_log = obs.get_logger("shard.router")

_FANOUTS = obs.metrics().counter("shard.fanouts")
_PRUNED = obs.metrics().counter("shard.shards_pruned")
_PARTIAL = obs.metrics().counter("shard.partial_results")


class _Unit:
    """One leaf's task fanned out to the shards the leaf survives on,
    with its gathered payloads (``lost`` records shards that failed
    every attempt)."""

    __slots__ = ("leaf", "task", "shard_ids", "payloads", "lost")

    def __init__(self, leaf: Leaf, stats: list) -> None:
        self.leaf, self.task = leaf, leaf.task
        self.shard_ids = _survivors(leaf, stats)
        self.payloads: dict = {}
        self.lost: list = []

    def ordered_payloads(self) -> list:
        """Payloads in ascending shard order (merge determinism)."""
        return [self.payloads[s] for s in sorted(self.payloads)]

    def rearm(self) -> bool:
        """Re-arm with the task the leaf's fallback rule hands back for
        the first round's payloads, if any (what was lost stays lost)."""
        task = self.leaf.fallback(list(self.payloads.values()))
        if task is None or not self.shard_ids:
            return False
        self.task, self.payloads = task, {}
        return True


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
        # _ensure() rotates the stats and the executor under it; queries
        # work on the snapshot it returns, never holding it.
        self._lock = threading.RLock()
        self._stats: list[ShardStats] = []
        self._executor: ScatterGatherExecutor | None = None
        #: The catalog's write version the partition was cut at.
        self._version: int | None = None

    # -- shard lifecycle -----------------------------------------------------

    def _ensure(self) -> tuple[list[ShardStats], ScatterGatherExecutor]:
        """Current ``(stats, executor)`` snapshot, repartitioning when
        the catalog's write version (``db.version``) is not the one the
        partition was cut at; both are replaced wholesale, so a snapshot
        stays consistent.  The partition is built with the lock
        released (it is slow and takes the platform's lock); a racing
        rebuild is settled at install time — the newer version wins (the
        first installed, at equal versions).
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

    def preview(self, query: object) -> dict:
        """Pruning annotation for EXPLAIN, without executing: the plan's
        leaf prunes without a resolved label or a query vector."""
        stats, _ = self._ensure()
        considered = len(_survivors(prepare(query), stats))
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
        """``[(answer, info), ...]``: one scatter round per shard, and
        one more for the visual top-ks that fell back."""
        stats, executor = self._ensure()
        leaves = [prepare(query, self._platform, stats) for query in queries]
        groups = [[_Unit(part, stats) for part in leaf.parts or (leaf,)] for leaf in leaves]
        units = [unit for group in groups for unit in group]
        rounds = [self._scatter_units(units, executor)]
        rearmed = [unit for unit in units if unit.rearm()]
        if rearmed:
            rounds.append(self._scatter_units(rearmed, executor))
        _describe_dispatch(rounds, len(units) + len(rearmed))
        out = []
        for leaf, group in zip(leaves, groups):
            answers = [unit.leaf.merge(unit.ordered_payloads()) for unit in group]
            answer = leaf.merge(answers) if leaf.parts else answers[0]
            lost = sorted({s for unit in group for s in unit.lost})
            answer.failed_shards = tuple(lost)
            considered = len(set().union(*(unit.shard_ids for unit in group)))
            info = {
                "shards_considered": considered,
                "shards_pruned": self.n_shards - considered,
                "partial": bool(lost),
                "failed_shards": lost,
            }
            _PRUNED.inc(info["shards_pruned"])
            if lost:
                _PARTIAL.inc()
                _log.warning("query degraded to partial results; lost shards %s", lost)
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


def _survivors(leaf: Leaf, stats: list) -> list:
    """Ids of the non-empty shards ``leaf`` survives on, ascending."""
    return sorted(s.shard_id for s in stats if s.n_images and leaf.survives(s))


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
