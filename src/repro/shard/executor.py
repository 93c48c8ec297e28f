"""Per-shard dispatch, in the coordinator.

Sharding here is a *pruning* structure: the router cuts fan-out with
the planner statistics, and :class:`ScatterGatherExecutor` dispatches
each surviving shard once per query, in ascending shard order.  A
dispatch is retried (``repro.resilience.Retry`` at site
``shard.dispatch``) and passes the ``shard.worker`` fault site; a shard
that fails every attempt is reported in :attr:`GatherResult.failed` so
the router can degrade to a ``partial=True`` answer instead of hanging
or erroring.  A dispatch runs no scan: the router answers each query
part in one pass over the rows of the shards that answered, after the
dispatch, so an attempt does no billable work and a retry throws none
away.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, NamedTuple

from repro import obs
from repro.errors import RetryBudgetExceeded, ShardError
from repro.resilience import Retry
from repro.resilience import faults as _faults
from repro.resilience.clock import Clock
from repro.resilience.policies import DEFAULT_TRANSIENT

_log = obs.get_logger("shard.executor")

#: What a dispatch retry treats as transient: the usual transients plus
#: typed shard failures.
DISPATCH_RETRYABLE: tuple[type[BaseException], ...] = DEFAULT_TRANSIENT + (ShardError,)


class GatherResult(NamedTuple):
    """Outcome of one dispatch: what each shard that answered took
    on the executor's clock (ms, retries and backoff included), and the
    shards that failed every attempt."""

    wall_ms: dict
    failed: tuple = ()


class ScatterGatherExecutor:
    """Dispatch shards with retries; report which answered."""

    def __init__(
        self,
        shard_ids: Iterable[int],
        max_attempts: int = 3,
        clock: Clock | None = None,
    ) -> None:
        self._shards = frozenset(shard_ids)
        self._clock = clock
        # One policy for every dispatch: a Retry holds its schedule and
        # nothing about the calls it has served.
        self._retry = Retry(
            max_attempts=max_attempts,
            site="shard.dispatch",
            retry_on=DISPATCH_RETRYABLE,
            clock=clock,
        )

    def _attempt(self, shard_id: int) -> None:
        _faults.inject("shard.dispatch", self._clock)
        if shard_id not in self._shards:
            raise ShardError(f"executor holds no shard {shard_id}")
        _faults.inject("shard.worker")

    def dispatch(self, shard_ids: Iterable[int]) -> GatherResult:
        """One retried dispatch per shard of ``shard_ids``.

        Shards run in ascending id order (determinism) and a shard that
        exhausts its retries lands in ``failed`` rather than raising —
        degraded answers beat no answers for a read-only query tier.
        With no fault plan active, a known shard answers at once, in 0 ms.
        """
        if _faults.active_plan() is None and self._shards.issuperset(shard_ids):
            return GatherResult(dict.fromkeys(shard_ids, 0.0))  # nothing can fail
        wall_ms: dict[int, float] = {}
        failed: list[int] = []
        # The dispatch's own clock: under a fault plan a slow shard's
        # injected latency and backoff show in its wall_ms.
        clock = _faults.current_clock(self._clock)
        for shard_id in sorted(shard_ids):
            start = clock.now()
            try:
                # Deliberately blocking on the request path: the retry
                # backoff is budget-bounded, so a handler can wait at
                # most the dispatch budget, never indefinitely.
                self._retry.call(partial(self._attempt, shard_id))
            except DISPATCH_RETRYABLE + (RetryBudgetExceeded,) as exc:
                _log.warning("shard %d failed all attempts: %s", shard_id, exc)
                failed.append(shard_id)
                continue
            wall_ms[shard_id] = (clock.now() - start) * 1e3
        return GatherResult(wall_ms, tuple(failed))
