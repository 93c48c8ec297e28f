"""Coordinator for sharded query execution.

The router owns the partition — the current
:class:`~repro.shard.partition.Partition`, whose shards' statistics
prune and whose codes mask out a lost shard's rows — and the executor
that dispatches to the shards.  A batch of queries is answered in three
steps: each query's leaf is prepared on the whole catalog
(:func:`repro.core.families.prepare`: a visual query's candidates and
fallback decision are settled there) and pruned to the shards it
survives on; one dispatch round, through a
:class:`~repro.shard.executor.ScatterGatherExecutor`, sends every
surviving shard of the batch one retried dispatch; then each query part
runs its task once and its ``answer`` orders the payload.  Pruning is
sound, so a part none of whose shards was lost runs the serial pass;
one that lost a shard runs it over the rows of its surviving shards
that answered (shards are disjoint row sets of the one catalog).  A
shard that fails every retry degrades the answer to ``partial=True``
instead of raising — on the answer, in the info dict, and on the query
span beside what the dispatch did (there is no span per dispatch or per
shard).
"""

from __future__ import annotations

import threading

from repro import obs
from repro.core.families import Leaf, prepare
from repro.core.platform import TVDP
from repro.core.queries import Answer
from repro.errors import TVDPError
from repro.resilience.clock import Clock
from repro.shard.executor import GatherResult, ScatterGatherExecutor
from repro.shard.partition import Partition, partition_catalog

_log = obs.get_logger("shard.router")

_FANOUTS = obs.metrics().counter("shard.fanouts")
_PRUNED = obs.metrics().counter("shard.shards_pruned")
_PARTIAL = obs.metrics().counter("shard.partial_results")


class ShardRouter:
    """Sharded-query coordinator bound to one :class:`TVDP` platform."""

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
        # A dispatch reads nothing of a cut, so one executor serves every one.
        self._executor = ScatterGatherExecutor(range(n_shards), max_attempts, clock)
        # _ensure() replaces the partition under it; queries work on the
        # cut it returns, never holding it.
        self._lock = threading.RLock()
        self._partition: Partition | None = None

    # -- shard lifecycle -----------------------------------------------------

    def _ensure(self) -> Partition:
        """The current cut, repartitioning when the catalog's write
        version (``db.version``) is newer than the one it was cut at.  A
        cut is one object — the shards' statistics and the codes a lost
        shard's mask is made from — replaced whole, so a query pairs one
        cut's codes with that cut's statistics.  The partition is built with
        the lock released; a racing rebuild is settled at install time —
        the newer version wins (the first installed, at equal versions).
        """
        version = self._platform.db.version
        with self._lock:
            cut = self._partition
        if cut is not None and version <= cut.version:
            return cut
        with obs.span("shard.partition", shards=self.n_shards):
            fresh = partition_catalog(self._platform, self.n_shards, grid=self.grid)
        with self._lock:
            cut = self._partition
            if cut is not None and fresh.version <= cut.version:
                return cut  # lost the install race: keep the newer cut
            self._partition = fresh
        _log.info(
            "partitioned %d images into %d shards",
            sum(s.n_images for s in fresh.stats),
            self.n_shards,
        )
        return fresh

    def preview(self, query: object) -> dict:
        """Pruning annotation for EXPLAIN, without executing: the plan's
        leaf prunes without a resolved label or a query vector."""
        considered = len(_survivors(prepare(query), self._ensure().stats))
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
        """``[(answer, info), ...]``: one dispatch round for the whole
        batch, then one pass per query part — the serial pass, unless
        one of its surviving shards was lost, when the pass covers the
        rows of those that answered."""
        cut = self._ensure()
        leaves = [prepare(query, self._platform) for query in queries]
        considered = [_survivors(leaf, cut.stats) for leaf in leaves]
        wanted = considered[0] if len(leaves) == 1 else sorted(set().union(*considered))
        gathered = self._executor.dispatch(wanted)
        _FANOUTS.inc(len(wanted))
        lost = gathered.failed
        catalog = self._platform.slice
        out, passes, pruned = [], 0, 0
        for leaf, survivors in zip(leaves, considered):
            answers = []
            for part in leaf.parts or (leaf,):
                mine = _survivors(part, cut.stats) if leaf.parts else survivors
                answered = [s for s in mine if s not in lost] if lost else mine
                payload = part.empty
                if answered:
                    # Pruning is sound: only a lost shard's rows need masking out.
                    owns = cut.owns(answered) if len(answered) < len(mine) else None
                    payload = part.task(catalog, owns)
                    passes += 1
                answers.append(part.answer(payload))
            answer = leaf.answer(answers) if leaf.parts else answers[0]
            failed = [s for s in survivors if s in lost] if lost else []
            info = {
                "shards_considered": len(survivors),
                "shards_pruned": self.n_shards - len(survivors),
                "partial": bool(failed),
                "failed_shards": failed,
            }
            pruned += info["shards_pruned"]
            if failed:
                answer.failed_shards = tuple(failed)
                _PARTIAL.inc()
                _log.warning("query degraded to partial results; lost shards %s", failed)
            out.append((answer, info))
        _PRUNED.inc(pruned)
        _describe_dispatch(gathered, passes)
        return out


def _survivors(leaf: Leaf, stats: list) -> list:
    """Ids of the non-empty shards ``leaf`` survives on, ascending (one
    pass over ``stats``, which are in shard order); a general hybrid
    survives where any of its parts does."""
    return [s.shard_id for s in stats if s.n_images and leaf.survives(s)]


def _describe_dispatch(gathered: GatherResult, passes: int) -> None:
    """What one request's dispatch round and passes did, on the
    request's own span (``query.<family>`` / ``query.batch``) — where
    ``Retry.call`` and the fault plan have already put ``retries`` and
    ``fault``."""
    span = obs.current_span()
    if span is None:
        return
    span.set("shards_dispatched", len(gathered.wall_ms) + len(gathered.failed))
    span.set("shard_tasks", passes)
    span.set("shard_wall_ms", gathered.wall_ms)
    span.set("partial", bool(gathered.failed))
    span.set("failed_shards", sorted(gathered.failed))
