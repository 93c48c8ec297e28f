"""Per-request resource accounting: cost ledgers and the usage table.

Latency histograms say *how long*; this module says *who spent what*.
A :class:`ResourceLedger` is opened per unit of work (one API request
in ``Router.dispatch``, or one bare ``TVDP.execute`` when no request is
active) and meters the resources the work touches:

* ``rows_scanned``      — rows materialised by ``repro.db`` reads
* ``probes.<family>``   — index probe work per index family (lsh,
  oriented, inverted, rtree, visual_rtree)
* ``feature_bytes``     — feature-vector bytes touched
* ``catalog_lookups``   — classification-catalog resolutions
* ``mem_peak_kb``       — tracemalloc peak delta (only metered while
  tracemalloc is already tracing, so the hot path stays cheap)

The ledger rides a ``contextvars`` variable — instrumented code calls
the module-level :func:`charge` helpers, which are a near-no-op when no
ledger is active.  On close, the charges roll up into a
:class:`UsageTable` under three aggregation keys: **principal** (the
API key's label), **query shape** (``repro.core.queries.query_shape``),
and **operation** (route or platform entry point).

The table is thread-safe.  A configurable
:class:`Budget` turns per-principal rolling spend into *would-shed*
dry-run flags — the admission-control signal the serving arc will act
on, surfaced at ``GET /debug/resources`` without actually shedding
anything yet.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.metrics import MetricsRegistry

#: Weight of one unit of each charge kind in the scalar cost used for
#: budgets and "top consumer" ranking.  ``probes.<family>`` keys share
#: the ``probes`` weight; memory is observability, not admission cost.
COST_WEIGHTS = {
    "rows_scanned": 1.0,
    "probes": 1.0,
    "feature_bytes": 1.0 / 1024.0,
    "catalog_lookups": 1.0,
    "mem_peak_kb": 0.0,
}

#: Principal recorded for work that did not come through the API.
LOCAL_PRINCIPAL = "local"

#: The ledger of the current execution context (mirrors the tracer's
#: ``_current_span``: per-context, never a cross-worker merge target).
_ledger: contextvars.ContextVar["ResourceLedger | None"] = contextvars.ContextVar(
    "tvdp_ledger", default=None
)


def cost_of(charges: dict[str, float]) -> float:
    """Scalar cost of a charge dict under :data:`COST_WEIGHTS`."""
    total = 0.0
    for kind, amount in charges.items():
        key = "probes" if kind.startswith("probes.") else kind
        total += COST_WEIGHTS.get(key, 0.0) * amount
    return total


@dataclass(slots=True)
class ResourceLedger:
    """Mutable charge sheet for one unit of work.

    Owned by the single execution context that opened it (like an open
    :class:`~repro.obs.tracing.Span`), so ``add`` needs no lock; the
    thread-safety boundary is :meth:`UsageTable.absorb`.  Slotted: one
    ledger is created per request, on the serving hot path.
    """

    principal: str = LOCAL_PRINCIPAL
    operation: str | None = None
    shape: str | None = None
    trace_id: str | None = None
    charges: dict[str, float] = field(default_factory=dict)
    _mem_baseline: float | None = None

    def add(self, kind: str, amount: float = 1.0) -> None:
        """Charge ``amount`` units of ``kind`` to this ledger."""
        # Owned by one context until closed, like Span.set.
        self.charges[kind] = (
            self.charges.get(kind, 0.0) + amount
        )

    def annotate(
        self,
        principal: str | None = None,
        operation: str | None = None,
        shape: str | None = None,
        trace_id: str | None = None,
    ) -> None:
        """Fill aggregation keys as they become known (auth knows the
        principal, the platform knows the shape, the span the trace)."""
        if principal is not None:
            self.principal = principal
        if operation is not None:
            self.operation = operation
        if shape is not None:
            self.shape = shape
        if trace_id is not None:
            self.trace_id = trace_id

    def cost(self) -> float:
        """Scalar cost of everything charged so far."""
        return cost_of(self.charges)

    def snapshot(self) -> dict:
        """JSON-compatible record of the ledger."""
        return {
            "principal": self.principal,
            "operation": self.operation,
            "shape": self.shape,
            "trace_id": self.trace_id,
            "charges": dict(self.charges),
            "cost": round(self.cost(), 6),
        }

    # -- memory metering ----------------------------------------------------

    def _open_mem(self) -> None:
        if tracemalloc.is_tracing():
            self._mem_baseline = float(tracemalloc.get_traced_memory()[0])

    def _close_mem(self) -> None:
        if self._mem_baseline is not None and tracemalloc.is_tracing():
            peak = float(tracemalloc.get_traced_memory()[1])
            delta_kb = max(0.0, peak - self._mem_baseline) / 1024.0
            if delta_kb:
                self.add("mem_peak_kb", delta_kb)


def active_ledger() -> "ResourceLedger | None":
    """The open ledger of the current execution context, if any."""
    return _ledger.get()


def charge(kind: str, amount: float = 1.0) -> None:
    """Charge the active ledger; a near-no-op when none is open (and
    zero-amount charges never materialise an entry)."""
    if amount:
        ledger = _ledger.get()
        if ledger is not None:
            ledger.add(kind, amount)


def charge_probes(family: str, count: float) -> None:
    """Charge index-probe work for one index family."""
    if count:
        ledger = _ledger.get()
        if ledger is not None:
            ledger.add(f"probes.{family}", count)


class ledger_scope:
    """Open a fresh ledger for the block and absorb it into ``table``
    on exit (exceptions included — failed work still cost something).

    A plain class-based context manager rather than
    ``@contextlib.contextmanager``: one of these opens per serving
    request, and skipping the generator machinery keeps the fixed
    accounting cost a small fraction of request handling (gated by
    ``benchmarks/bench_obs_overhead.py``).
    """

    __slots__ = ("ledger", "_table", "_token")

    def __init__(
        self,
        table: "UsageTable | None" = None,
        principal: str = LOCAL_PRINCIPAL,
        operation: str | None = None,
        shape: str | None = None,
    ) -> None:
        self._table = table
        self.ledger = ResourceLedger(
            principal=principal, operation=operation, shape=shape
        )

    def __enter__(self) -> ResourceLedger:
        self.ledger._open_mem()
        self._token = _ledger.set(self.ledger)
        return self.ledger

    def __exit__(self, exc_type, exc, tb) -> bool:
        _ledger.reset(self._token)
        self.ledger._close_mem()
        if self._table is not None:
            self._table.absorb(self.ledger)
        return False


@contextlib.contextmanager
def maybe_ledger_scope(
    table: "UsageTable | None" = None,
    principal: str = LOCAL_PRINCIPAL,
    operation: str | None = None,
) -> Iterator[ResourceLedger]:
    """Yield the active ledger, or open one for the block when none is
    active.  Nested units of work (hybrid sub-queries, platform calls
    under an API request) charge their enclosing ledger instead of
    fragmenting the bill."""
    current = _ledger.get()
    if current is not None:
        yield current
        return
    with ledger_scope(table=table, principal=principal, operation=operation) as ledger:
        yield ledger


@dataclass(frozen=True)
class Budget:
    """Admission budget: cost units allowed per rolling window."""

    cost_per_window: float
    window_s: float = 60.0

    def __post_init__(self) -> None:
        # An infinite window has no bucket count; NaN compares false
        # with every spend, so it would never shed and never say why.
        if not (0.0 <= self.cost_per_window < math.inf):
            raise ValueError(
                f"cost_per_window must be finite and >= 0, got {self.cost_per_window}"
            )
        if not (0.0 < self.window_s < math.inf):
            raise ValueError(f"window_s must be finite and > 0, got {self.window_s}")


class UsageTable:
    """Thread-safe roll-up of closed ledgers by principal/shape/operation.

    ``registry`` (optional) receives ``usage.*`` metrics on every
    absorb: per-principal charge counters, a scalar ``usage.cost``
    counter, a ``usage.rolling_cost`` gauge, and a ``usage.would_shed``
    counter when the configured :class:`Budget` is exceeded.  The
    worst charge per aggregate keeps an exemplar ``trace_id`` so a
    spike in the metrics can be followed straight to its trace tree.

    ``clock`` is injectable (seconds, monotone) for deterministic
    rolling-window tests.
    """

    #: Resolution of the default rolling window, in buckets.
    BUCKETS = 12
    #: Window used for rolling spend when no budget is configured.
    DEFAULT_WINDOW_S = 60.0
    #: Spend is always bucketed at this fixed granularity so what-if
    #: budgets with a different ``window_s`` read the same history.
    _BUCKET_S = DEFAULT_WINDOW_S / BUCKETS
    #: Pruning horizon (buckets kept): 20 minutes of spend history.
    _MAX_BUCKETS = 240

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        budget: Budget | None = None,
        clock=None,
    ) -> None:
        self._registry = registry
        self._budget = budget
        self._clock = clock or time.monotonic
        self._lock = threading.Lock()
        self._by_principal: dict[str, dict] = {}
        self._by_shape: dict[str, dict] = {}
        self._by_operation: dict[str, dict] = {}
        #: principal -> {bucket index -> cost} for the rolling window.
        self._spend: dict[str, dict[int, float]] = {}
        #: principal -> interned metric handles; registry lookups hash
        #: the label dict every call, which is most of the absorb cost
        #: on the serving hot path.  Handles survive registry.reset().
        self._metric_handles: dict[str, dict] = {}

    # -- configuration -------------------------------------------------------

    def set_budget(self, budget: Budget | None) -> None:
        """Install (or clear) the admission budget for would-shed flags."""
        with self._lock:
            self._budget = budget

    def budget(self) -> Budget | None:
        with self._lock:
            return self._budget

    # -- ingestion -----------------------------------------------------------

    @staticmethod
    def _fold_ledger(
        table: dict, key: str, cost: float, charges: dict, exemplar: dict | None
    ) -> None:
        """One-ledger fold specialised for the absorb hot path: no
        intermediate aggregate dict, charges copied only on first sight
        of a key (caller holds the lock)."""
        row = table.get(key)
        if row is None:
            table[key] = {
                "count": 1,
                "cost": cost,
                "charges": dict(charges),
                "exemplar": dict(exemplar) if exemplar else None,
            }
            return
        row["count"] += 1
        row["cost"] += cost
        row_charges = row["charges"]
        for kind, amount in charges.items():
            row_charges[kind] = row_charges.get(kind, 0.0) + amount
        if exemplar is not None and (
            row["exemplar"] is None or exemplar["cost"] > row["exemplar"]["cost"]
        ):
            row["exemplar"] = dict(exemplar)

    def absorb(self, ledger: ResourceLedger) -> None:
        """Fold one closed ledger into the aggregates (thread-safe)."""
        cost = ledger.cost()
        charges = ledger.charges
        exemplar = (
            {"cost": cost, "trace_id": ledger.trace_id} if ledger.trace_id else None
        )
        with self._lock:
            self._fold_ledger(
                self._by_principal, ledger.principal, cost, charges, exemplar
            )
            if ledger.shape:
                self._fold_ledger(self._by_shape, ledger.shape, cost, charges, exemplar)
            if ledger.operation:
                self._fold_ledger(
                    self._by_operation, ledger.operation, cost, charges, exemplar
                )
            self._note_spend(ledger.principal, cost)
            budget = self._budget
            if budget is not None:
                rolling = self._rolling_locked(ledger.principal, budget.window_s)
                shed = rolling > budget.cost_per_window
            else:
                rolling, shed = 0.0, False
        self._emit_metrics(ledger, cost, rolling, shed, budget)

    def _note_spend(self, principal: str, cost: float) -> None:
        """Record spend in the fixed-granularity buckets (caller holds
        the lock)."""
        bucket = int(self._clock() / self._BUCKET_S)
        buckets = self._spend.setdefault(principal, {})
        if bucket in buckets:
            buckets[bucket] += cost
        else:
            # Prune only when a new bucket opens (once per _BUCKET_S),
            # so steady-state absorbs never scan the bucket map.
            buckets[bucket] = cost
            floor = bucket - self._MAX_BUCKETS
            for stale in [b for b in buckets if b <= floor]:
                del buckets[stale]

    def _rolling_locked(self, principal: str, window_s: float) -> float:
        """Spend of ``principal`` over the trailing ``window_s`` seconds
        (caller holds the lock)."""
        span = max(1, int(round(window_s / self._BUCKET_S)))
        floor = int(self._clock() / self._BUCKET_S) - span
        return sum(
            cost
            for bucket, cost in self._spend.get(principal, {}).items()
            if bucket > floor
        )

    def _handles(self, principal: str) -> dict:
        """Interned metric handles for one principal (lazy).  Called
        outside the table lock; a race rebuilds the same handles — the
        registry get-or-creates, so both writers intern one Counter."""
        handles = self._metric_handles.get(principal)
        if handles is None:
            labels = {"principal": principal}
            handles = {
                "requests": self._registry.counter("usage.requests", labels),
                "cost": self._registry.counter("usage.cost", labels),
                "rolling": self._registry.gauge("usage.rolling_cost", labels),
                "shed": self._registry.counter("usage.would_shed", labels),
                "kinds": {},
            }
            # Benign interning race: both writers build identical
            # handles from the get-or-create registry.
            self._metric_handles[principal] = handles  # devtools: allow[thread-escape]
        return handles

    def _emit_metrics(
        self,
        ledger: ResourceLedger,
        cost: float,
        rolling: float,
        shed: bool,
        budget: Budget | None,
    ) -> None:
        if self._registry is None:
            return
        handles = self._handles(ledger.principal)
        handles["requests"].inc()
        handles["cost"].inc(cost)
        kinds = handles["kinds"]
        for kind, amount in ledger.charges.items():
            counter = kinds.get(kind)
            if counter is None:
                name = (
                    "usage.index_probes"
                    if kind.startswith("probes.")
                    else f"usage.{kind}"
                )
                counter = self._registry.counter(
                    name, {"principal": ledger.principal}
                )
                kinds[kind] = counter
            counter.inc(amount)
        if budget is not None:
            handles["rolling"].set(rolling)
            if shed:
                handles["shed"].inc()

    # -- reporting -----------------------------------------------------------

    def rolling_cost(self, principal: str, window_s: float | None = None) -> float:
        """Current rolling-window spend of one principal, over the
        configured budget's window (or :data:`DEFAULT_WINDOW_S`) unless
        ``window_s`` overrides it."""
        if window_s is None:
            budget = self.budget()
            window_s = (
                budget.window_s if budget is not None else self.DEFAULT_WINDOW_S
            )
        with self._lock:
            return self._rolling_locked(principal, window_s)

    def would_shed(self, budget: Budget | None = None) -> list[str]:
        """Principals whose rolling spend exceeds the budget (dry run —
        nothing is actually shed).  ``budget`` overrides the configured
        one for what-if evaluation."""
        budget = budget or self.budget()
        if budget is None:
            return []
        return sorted(
            principal
            for principal in self.principals()
            if self.rolling_cost(principal, budget.window_s)
            > budget.cost_per_window
        )

    def principals(self) -> list[str]:
        with self._lock:
            return sorted(self._by_principal)

    @staticmethod
    def _rows(table: dict, top: int | None) -> list[dict]:
        ranked = sorted(
            table.items(), key=lambda item: (-item[1]["cost"], item[0])
        )
        if top is not None:
            ranked = ranked[:top]
        return [
            {
                "key": key,
                "count": row["count"],
                "cost": round(row["cost"], 6),
                "charges": {k: round(v, 6) for k, v in sorted(row["charges"].items())},
                "exemplar": row["exemplar"],
            }
            for key, row in ranked
        ]

    def report(self, top: int | None = 10, budget: Budget | None = None) -> dict:
        """Top consumers by principal/shape/operation plus budget and
        would-shed dry-run state (the ``GET /debug/resources`` payload)."""
        with self._lock:
            by_principal = self._rows(self._by_principal, top)
            by_shape = self._rows(self._by_shape, top)
            by_operation = self._rows(self._by_operation, top)
        effective = budget or self.budget()
        return {
            "by_principal": by_principal,
            "by_shape": by_shape,
            "by_operation": by_operation,
            "budget": (
                {
                    "cost_per_window": effective.cost_per_window,
                    "window_s": effective.window_s,
                    "overridden": budget is not None,
                }
                if effective is not None
                else None
            ),
            "rolling_cost": {
                p: round(
                    self.rolling_cost(
                        p, effective.window_s if effective is not None else None
                    ),
                    6,
                )
                for p in self.principals()
            },
            "would_shed": self.would_shed(budget),
        }

    def reset(self) -> None:
        """Drop all aggregates and rolling spend (benchmark isolation);
        the configured budget survives."""
        with self._lock:
            self._by_principal.clear()
            self._by_shape.clear()
            self._by_operation.clear()
            self._spend.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_principal)
