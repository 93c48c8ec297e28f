"""Coordinator for sharded query execution.

The router owns the partition — the current
:class:`~repro.shard.partition.Partition`, whose per-shard tuples and
masks prune and whose codes mask out a lost shard's rows — and the
executor that dispatches to the shards.  A batch of queries is answered
in three steps: each query's leaf is prepared on the whole catalog
(:func:`repro.core.families.prepare`: a visual query's candidates and
fallback decision are settled there) and each part pruned by one
``survivors(cut)`` call, a bitmask of shards; one dispatch round,
through a :class:`~repro.shard.executor.ScatterGatherExecutor`, sends every
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
from functools import lru_cache, reduce
from operator import or_

from repro import obs
from repro.core.families import prepare
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
        cut is one object — what the leaves prune by and the codes a lost
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
            sum(fresh.counts),
            self.n_shards,
        )
        return fresh

    def preview(self, query: object) -> dict:
        """Pruning annotation for EXPLAIN, without executing: the plan's
        leaf prunes without a resolved label or a query vector."""
        considered = prepare(query).survivors(self._ensure()).bit_count()
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
        rows of those that answered.  Shard sets are bitmasks (bit
        ``s``: shard ``s``), each part's taken once off the cut."""
        cut = self._ensure()
        leaves = [prepare(query, self._platform) for query in queries]
        masks, considered, union = [], [], 0
        for leaf in leaves:
            if leaf.parts:
                parts = [part.survivors(cut) for part in leaf.parts]
                mask = reduce(or_, parts)
            else:
                mask = leaf.survivors(cut)
                parts = [mask]
            masks.append(parts)
            considered.append(mask)
            union |= mask
        wanted = _shard_ids(union)
        gathered = self._executor.dispatch(wanted)
        _FANOUTS.inc(len(wanted))
        lost = 0
        for shard in gathered.failed:
            lost |= 1 << shard
        catalog = self._platform.slice
        out, passes, pruned = [], 0, 0
        for leaf, parts, survivors in zip(leaves, masks, considered):
            answers = []
            for part, mine in zip(leaf.parts or (leaf,), parts):
                answered = mine & ~lost
                payload = part.empty
                if answered:
                    # Pruning is sound: only a lost shard's rows need masking out.
                    owns = cut.owns(list(_shard_ids(answered))) if answered != mine else None
                    payload = part.task(catalog, owns)
                    passes += 1
                answers.append(part.answer(payload))
            answer = leaf.answer(answers) if leaf.parts else answers[0]
            count = survivors.bit_count()
            failed = list(_shard_ids(survivors & lost)) if lost else []
            info = {
                "shards_considered": count,
                "shards_pruned": self.n_shards - count,
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


@lru_cache(maxsize=1024)
def _shard_ids(mask: int) -> tuple:
    """The shard ids of a bitmask, ascending."""
    return tuple(shard for shard in range(mask.bit_length()) if mask >> shard & 1)


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
