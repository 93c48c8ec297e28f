"""Per-request resource accounting: who spent what in a unit of work.

Latency histograms say *how long*; this module says *who spent what*.
Instrumented code calls the module-level :func:`charge` helpers, which
add to the charge sheet of the open unit of work
(:class:`~repro.obs.record.Unit`) — a near-no-op when no
:class:`ledger_scope` is open — metering the resources the work touches:

* ``rows_scanned``      — rows materialised by ``repro.db`` reads
* ``probes.<family>``   — index probe work per index family (lsh,
  oriented, inverted, rtree, visual_rtree)
* ``feature_bytes``     — feature-vector bytes touched
* ``catalog_lookups``   — classification-catalog resolutions
* ``mem_peak_kb``       — tracemalloc peak delta over the block of a
  private meter or of the scope that named the bill (only metered while
  tracemalloc is already tracing, so the hot path stays cheap)

A ``ledger_scope`` opened with a ``table`` is *billable*: it bills its
block to the unit of work (one API request in ``Router.dispatch``, or
one bare ``TVDP.answer``), and when the unit folds the charges roll up
under three aggregation keys: **principal** (the API key's label),
**query shape** (``repro.core.queries.query_shape``), and **operation**
(route or platform entry point).

A configurable :class:`Budget` turns per-principal rolling spend into
*would-shed* dry-run flags — the admission-control signal the serving
arc will act on, surfaced at ``GET /debug/resources`` without actually
shedding anything yet.
"""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import dataclass

# COST_WEIGHTS and cost_of are the fold's, named here where the charges are.
from repro.obs.record import COST_WEIGHTS, RecordStore, Unit, cost_of, current_unit

#: Principal recorded for work that did not come through the API.
LOCAL_PRINCIPAL = "local"


def charge(kind: str, amount: float = 1.0) -> None:
    """Charge the open unit's sheet; a near-no-op when no scope is open
    (and zero-amount charges never materialise an entry)."""
    if amount:
        unit = current_unit()
        if unit is not None:
            sheet = unit.sheet
            if sheet is not None:
                sheet[kind] = sheet.get(kind, 0.0) + amount


def charge_probes(family: str, count: float) -> None:
    """Charge index-probe work for one index family."""
    if count:
        charge(f"probes.{family}", count)


class ledger_scope:
    """``with ledger_scope(...) as scope``: the block is billed to
    ``scope.charges``.

    With a ``table`` the scope is billable: it bills its block to the
    open unit of work — or, when none is open, to one it opens on
    ``table`` and folds on exit (exceptions included — failed work still
    cost something) — and names the unit's bill if nothing named it
    yet, so a second billable scope in one unit adds to the first.
    ``charges`` is the unit's whole bill.  Without a ``table`` it is a
    private meter: the charges of its block go to a fresh ``charges``
    the caller reads off, and to nothing else.

    A plain class-based context manager rather than
    ``@contextlib.contextmanager``: one of these opens per serving
    request and per query, and skipping the generator machinery keeps
    the fixed accounting cost a small fraction of request handling.
    """

    __slots__ = ("charges", "_table", "_bill", "_unit", "_root", "_outer", "_mem")

    def __init__(
        self,
        table: RecordStore | None = None,
        principal: str = LOCAL_PRINCIPAL,
        operation: str | None = None,
        shape: str | None = None,
    ) -> None:
        self._table = table
        self._bill = (principal, operation, shape)

    def __enter__(self) -> "ledger_scope":
        unit, table = current_unit(), self._table
        metered = True  # a private meter, or the scope that names the bill
        if table is None:
            self._root = unit is None
            if self._root:
                unit = Unit(None)
            self.charges: dict[str, float] = {}
        else:
            self._root = unit is None or unit.store is None
            if self._root:
                unit = Unit(table)
            metered = unit.principal is None
            if metered:
                unit.principal, unit.operation, unit.shape = self._bill
            self.charges = unit.charges
        self._unit, self._outer = unit, unit.sheet
        unit.sheet = self.charges
        self._mem = (
            float(tracemalloc.get_traced_memory()[0])
            if metered and tracemalloc.is_tracing() else None
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._mem is not None and tracemalloc.is_tracing():
            peak = float(tracemalloc.get_traced_memory()[1])
            charge("mem_peak_kb", max(0.0, peak - self._mem) / 1024.0)
        unit = self._unit
        unit.sheet = self._outer
        if self._root:
            unit.close()
        return False


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
