"""Per-request resource accounting: the cost ledger a unit of work is
billed on.

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
ledger is active.  A ledger opened with a ``table`` is *billable*: it
becomes the bill of its unit of work's record (``repro.obs.record``),
and when the unit folds the charges roll up under three aggregation
keys: **principal** (the API key's label), **query shape**
(``repro.core.queries.query_shape``), and **operation** (route or
platform entry point).

A configurable :class:`Budget` turns per-principal rolling spend into
*would-shed* dry-run flags — the admission-control signal the serving
arc will act on, surfaced at ``GET /debug/resources`` without actually
shedding anything yet.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import tracemalloc
from dataclasses import dataclass, field

from repro.obs.record import RecordStore, Unit, current_unit

#: The name the store goes by where it is handed to ``ledger_scope``.
UsageTable = RecordStore

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
    thread-safety boundary is :meth:`RecordStore.fold`.  Slotted: one
    ledger is created per request, on the serving hot path.
    """

    principal: str = LOCAL_PRINCIPAL
    operation: str | None = None
    shape: str | None = None
    charges: dict[str, float] = field(default_factory=dict)
    _mem_baseline: float | None = None

    def add(self, kind: str, amount: float = 1.0) -> None:
        """Charge ``amount`` units of ``kind`` to this ledger."""
        # Owned by one context until closed, like Span.set.
        self.charges[kind] = (
            self.charges.get(kind, 0.0) + amount
        )

    def cost(self) -> float:
        """Scalar cost of everything charged so far."""
        return cost_of(self.charges)

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


#: ``active_ledger()``: the open ledger of the current execution
#: context, or ``None`` — the variable's own getter.
active_ledger = _ledger.get


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
    """Open a fresh ledger for the block.  With a ``table`` the ledger
    is billable: it is the bill of the enclosing unit of work — or, when
    it is the outermost thing open, the unit of work itself, folded into
    ``table`` on exit (exceptions included — failed work still cost
    something).  A second billable ledger in one unit adds its charges
    to the first.  Without a ``table`` it is a private meter whose
    charges the caller reads off.

    A plain class-based context manager rather than
    ``@contextlib.contextmanager``: one of these opens per serving
    request, and skipping the generator machinery keeps the fixed
    accounting cost a small fraction of request handling (gated by
    ``benchmarks/bench_obs_overhead.py``).
    """

    __slots__ = ("ledger", "_table", "_token", "_unit", "_root")

    def __init__(
        self,
        table: RecordStore | None = None,
        principal: str = LOCAL_PRINCIPAL,
        operation: str | None = None,
        shape: str | None = None,
    ) -> None:
        self._table = table
        self.ledger = ResourceLedger(principal, operation, shape)

    def __enter__(self) -> ResourceLedger:
        if self._table is not None:
            unit = current_unit()
            self._root = unit is None
            if self._root:
                unit = Unit(self._table)
            if unit.ledger is None:
                unit.ledger = self.ledger
            self._unit = unit
        self.ledger._open_mem()
        self._token = _ledger.set(self.ledger)
        return self.ledger

    def __exit__(self, exc_type, exc, tb) -> bool:
        _ledger.reset(self._token)
        self.ledger._close_mem()
        if self._table is not None:
            bill = self._unit.ledger
            if bill is not self.ledger:
                for kind, amount in self.ledger.charges.items():
                    bill.add(kind, amount)
            if self._root:
                self._unit.close()
        return False


def maybe_ledger_scope(
    table: "UsageTable | None" = None,
    principal: str = LOCAL_PRINCIPAL,
    operation: str | None = None,
) -> "contextlib.AbstractContextManager[ResourceLedger]":
    """``with maybe_ledger_scope(...) as ledger``: the active ledger, or
    one opened for the block when none is active (which of the two is
    settled here, at the call).  Nested units of work (hybrid
    sub-queries, platform calls under an API request) charge their
    enclosing ledger instead of fragmenting the bill."""
    current = _ledger.get()
    if current is not None:
        return contextlib.nullcontext(current)
    return ledger_scope(table=table, principal=principal, operation=operation)


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
