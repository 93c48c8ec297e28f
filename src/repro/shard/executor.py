"""Scatter-gather execution over shard handles, in the coordinator.

Sharding here is a *pruning* structure: the router cuts fan-out with
the planner statistics and :class:`ScatterGatherExecutor` runs what
survives in-process, one shard batch at a time in ascending shard
order.  Each dispatch is retried (``repro.resilience.Retry`` at site
``shard.dispatch``); a shard that fails every attempt is reported in
:attr:`GatherResult.failed` so the router can degrade to a
``partial=True`` answer instead of hanging or erroring.

Every attempt runs under its own ledger scope and its charges are
replayed into the enclosing query ledger only once it has succeeded, so
a retried attempt bills nothing for the work it threw away.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

from repro import obs
from repro.core.slice import CatalogSlice
from repro.errors import RetryBudgetExceeded, ShardError
from repro.obs import accounting
from repro.resilience import Retry
from repro.resilience import faults as _faults
from repro.resilience.clock import Clock
from repro.resilience.policies import DEFAULT_TRANSIENT
from repro.shard.partition import ShardHandle

_log = obs.get_logger("shard.executor")

#: What a dispatch retry treats as transient: the usual transients plus
#: typed shard failures.
DISPATCH_RETRYABLE: tuple[type[BaseException], ...] = DEFAULT_TRANSIENT + (ShardError,)


class WorkerResult(NamedTuple):
    """One shard batch's payloads and what the dispatch that produced
    them took on the executor's clock, retries and backoff included."""

    payloads: list
    wall_ms: float


class GatherResult(NamedTuple):
    """Outcome of one scatter round: a :class:`WorkerResult` per shard
    that answered, and the shards that failed every attempt."""

    results: dict
    failed: tuple = ()


def _run_batch(
    handle: ShardHandle, tasks: list[Callable[[CatalogSlice], object]]
) -> tuple[list, dict]:
    """Run one shard's batch under a fresh ledger; ``(payloads,
    charges)``.  A task is a plain callable on the shard's
    :class:`~repro.core.slice.CatalogSlice`; its return value is the
    payload."""
    _faults.inject("shard.worker")
    with accounting.ledger_scope() as ledger:
        payloads = [task(handle.slice) for task in tasks]
    return payloads, ledger.charges


class ScatterGatherExecutor:
    """Dispatch per-shard batches with retries; gather what survives."""

    def __init__(
        self,
        shards: list[ShardHandle],
        max_attempts: int = 3,
        clock: Clock | None = None,
    ) -> None:
        self._shards = {handle.shard_id: handle for handle in shards}
        self._clock = clock
        # One policy for every dispatch: a Retry holds its schedule and
        # nothing about the calls it has served.
        self._retry = Retry(
            max_attempts=max_attempts,
            site="shard.dispatch",
            retry_on=DISPATCH_RETRYABLE,
            clock=clock,
        )

    def _attempt(self, shard_id: int, tasks: list) -> tuple[list, dict]:
        _faults.inject("shard.dispatch", self._clock)
        handle = self._shards.get(shard_id)
        if handle is None:
            raise ShardError(f"executor holds no shard {shard_id}")
        return _run_batch(handle, tasks)

    def scatter(self, batches: dict) -> GatherResult:
        """Run ``{shard_id: [tasks]}``, one retried dispatch per shard.

        Shards run in ascending id order (determinism) and a shard that
        exhausts its retries lands in ``failed`` rather than raising —
        degraded answers beat no answers for a read-only query tier.
        The attempt that succeeded has its ledger charges replayed
        through :func:`repro.obs.accounting.charge`, so the enclosing
        query ledger bills shard work exactly once.
        """
        results: dict[int, WorkerResult] = {}
        failed: list[int] = []
        # The dispatch's own clock: under a fault plan a slow shard's
        # injected latency and backoff show in its wall_ms.
        clock = _faults.current_clock(self._clock)
        for shard_id in sorted(batches):
            start = clock.now()
            try:
                # Deliberately blocking on the request path: the retry
                # backoff is budget-bounded, so a handler can wait at
                # most the dispatch budget, never indefinitely.
                payloads, charges = self._retry.call(  # devtools: allow[blocking-in-handler]
                    partial(self._attempt, shard_id, batches[shard_id])
                )
            except DISPATCH_RETRYABLE + (RetryBudgetExceeded,) as exc:
                _log.warning("shard %d failed all attempts: %s", shard_id, exc)
                failed.append(shard_id)
                continue
            for kind in sorted(charges):
                accounting.charge(kind, charges[kind])
            results[shard_id] = WorkerResult(payloads, (clock.now() - start) * 1e3)
        return GatherResult(results, tuple(failed))
