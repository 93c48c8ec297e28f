"""Coordinator for sharded query execution.

The router owns the partition — the current
:class:`~repro.shard.partition.Partition`, whose per-shard tuples and
masks prune and whose codes mask out a lost shard's rows — and the
executor that dispatches to the shards.  :meth:`ShardRouter.answer`
answers one query in three steps: its leaf is prepared on the whole
catalog (:func:`repro.core.families.prepare`: a visual query's
candidates and fallback decision are settled there) and each part pruned
by one ``survivors(cut)`` call, a bitmask of shards; one dispatch,
through a :class:`~repro.shard.executor.ScatterGatherExecutor`, sends
every surviving shard one retried dispatch; then
:func:`~repro.core.families.run_leaf` — the serial runner — runs each
part once, given its owner mask.  Pruning is sound, so a part that
survives on some shard and lost none of them gets none and runs the
serial pass; any other runs over the rows of its surviving shards that
answered (shards are disjoint row sets of the one catalog) — none, for
a part pruned everywhere, and a pass under a mask that keeps no row
costs nothing.  A shard that fails
every retry degrades the answer to ``partial=True`` instead of raising —
on the answer, in the info dict, and on the query span beside what the
dispatch did (there is no span per dispatch or per shard).
"""

from __future__ import annotations

import threading
from functools import lru_cache, reduce
from operator import or_

from repro import obs
from repro.core.families import prepare, run_leaf
from repro.core.platform import TVDP
from repro.core.queries import Answer
from repro.errors import TVDPError
from repro.resilience.clock import Clock
from repro.shard.executor import ScatterGatherExecutor
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

    def answer(self, query: object) -> tuple[Answer, dict]:
        """``(answer, info)``: one dispatch of the shards ``query``
        survives on, then each part's one pass — the serial pass, unless
        one of its surviving shards was lost or it survives on none, when
        the pass covers the rows of those that answered.  Shard sets are
        bitmasks (bit ``s``: shard ``s``), each part's taken once off
        the cut; what was pruned and dispatched is written on the
        query's span."""
        cut = self._ensure()
        leaf = prepare(query, self._platform)
        survivors = [part.survivors(cut) for part in leaf.parts or (leaf,)]
        wanted = _shard_ids(reduce(or_, survivors))
        gathered = self._executor.dispatch(wanted)
        failed = list(gathered.failed)  # ascending, as dispatched
        lost = reduce(or_, [1 << shard for shard in failed], 0)
        owners = [_owner(cut, mine, mine & ~lost) for mine in survivors]
        answer = run_leaf(leaf, self._platform.slice, owners)
        info = {
            "shards_considered": len(wanted),
            "shards_pruned": self.n_shards - len(wanted),
            "partial": bool(failed),
            "failed_shards": failed,
        }
        _FANOUTS.inc(len(wanted))
        _PRUNED.inc(info["shards_pruned"])
        if failed:
            answer.failed_shards = tuple(failed)
            _PARTIAL.inc()
            _log.warning("query degraded to partial results; lost shards %s", failed)
        # Beside what Retry.call and the fault plan put on the query's
        # span (``retries``, ``fault``): every shard fact, here.
        span = obs.current_span()
        if span is not None:
            for key, value in info.items():
                span.set(key, value)
            span.set("shards_dispatched", len(wanted))
            span.set("shard_tasks", sum(bool(mine & ~lost) for mine in survivors))
            span.set("shard_wall_ms", gathered.wall_ms)
        return answer, info


@lru_cache(maxsize=1024)
def _shard_ids(mask: int) -> tuple:
    """The shard ids of a bitmask, ascending."""
    return tuple(shard for shard in range(mask.bit_length()) if mask >> shard & 1)


def _owner(cut: Partition, mine: int, answered: int):
    """A part's owner mask, given the shards it survives on and those of
    them that answered: every row (``None``) when some survive and none
    was lost — pruning is sound, so only a lost shard's rows need masking
    out — else the rows of those that answered (none, for a part pruned
    everywhere or that lost every shard it survives on)."""
    if answered and answered == mine:
        return None
    return cut.owns(list(_shard_ids(answered)))
