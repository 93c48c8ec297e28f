"""Scatter-gather execution over shard handles, in the coordinator.

Sharding here is a *pruning* structure: the router cuts fan-out with
the planner statistics and :class:`ScatterGatherExecutor` runs what
survives in-process, one shard batch at a time in ascending shard
order.  Each dispatch is retried (``repro.resilience.Retry`` at site
``shard.dispatch``); a shard that fails every attempt is reported in
:attr:`GatherResult.failed` so the router can degrade to a
``partial=True`` answer instead of hanging or erroring.

Every batch runs under its own ledger scope and its charges are
replayed into the enclosing query ledger only once the batch has
succeeded, so a retried attempt bills nothing for the work it threw
away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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


@dataclass(frozen=True)
class WorkerResult:
    """One shard batch's payloads plus the ledger charges it ran up."""

    shard_id: int
    payloads: list
    charges: dict


@dataclass(frozen=True)
class GatherResult:
    """Merged outcome of one scatter round."""

    results: dict
    failed: tuple = ()

    @property
    def partial(self) -> bool:
        """True when at least one shard failed every dispatch attempt."""
        return bool(self.failed)


def _run_batch(
    handle: ShardHandle, tasks: list[Callable[[CatalogSlice], object]]
) -> WorkerResult:
    """Run one shard's batch under a fresh ledger.  A task is a plain
    callable on the shard's :class:`~repro.core.slice.CatalogSlice`; its
    return value is the payload."""
    _faults.inject("shard.worker")
    payloads = []
    with obs.span("shard.worker", shard=handle.shard_id, tasks=len(tasks)):
        with accounting.ledger_scope() as ledger:
            for task in tasks:
                payloads.append(task(handle.slice))
    return WorkerResult(
        shard_id=handle.shard_id, payloads=payloads, charges=dict(ledger.charges)
    )


class ScatterGatherExecutor:
    """Dispatch per-shard batches with retries; gather what survives."""

    def __init__(
        self,
        shards: list[ShardHandle],
        max_attempts: int = 3,
        clock: Clock | None = None,
    ) -> None:
        self._shards = {handle.shard_id: handle for handle in shards}
        self._max_attempts = max_attempts
        self._clock = clock

    def scatter(self, batches: dict) -> GatherResult:
        """Run ``{shard_id: [tasks]}``, one retried dispatch per shard.

        Shards run in ascending id order (determinism) and a shard that
        exhausts its retries lands in ``failed`` rather than raising —
        degraded answers beat no answers for a read-only query tier.
        """
        results: dict[int, WorkerResult] = {}
        failed: list[int] = []
        for shard_id in sorted(batches):
            tasks = batches[shard_id]

            def attempt(shard_id: int = shard_id, tasks: list = tasks) -> WorkerResult:
                _faults.inject("shard.dispatch", self._clock)
                handle = self._shards.get(shard_id)
                if handle is None:
                    raise ShardError(f"executor holds no shard {shard_id}")
                return _run_batch(handle, tasks)

            retry = Retry(
                max_attempts=self._max_attempts,
                site="shard.dispatch",
                retry_on=DISPATCH_RETRYABLE,
                clock=self._clock,
            )
            try:
                # Deliberately blocking on the request path: the retry
                # backoff is budget-bounded, so a handler can wait at
                # most the dispatch budget, never indefinitely.
                results[shard_id] = retry.call(attempt)  # devtools: allow[blocking-in-handler]
            except DISPATCH_RETRYABLE + (RetryBudgetExceeded,) as exc:
                _log.warning("shard %d failed all attempts: %s", shard_id, exc)
                failed.append(shard_id)
        return GatherResult(results=results, failed=tuple(failed))

    def absorb(self, gathered: GatherResult) -> None:
        """Replay the gathered batches' ledger charges through
        :func:`repro.obs.accounting.charge`, so the enclosing query
        ledger bills shard work exactly once."""
        for shard_id in sorted(gathered.results):
            charges = gathered.results[shard_id].charges
            for kind in sorted(charges):
                accounting.charge(kind, charges[kind])
