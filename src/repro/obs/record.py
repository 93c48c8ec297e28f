"""One record per unit of work, one fold into one keyed table.

A *unit of work* is whatever opens the outermost span or billable
``ledger_scope`` of an execution context (``Router.dispatch``, a bare
``TVDP.answer``, a span-less ``ledger_scope(table=obs.usage())``).
While it runs its :class:`Unit` is the one ``contextvars`` variable of
``repro.obs``: it holds the innermost open span and the charge sheet,
and what finishes inside closes *into* it without a lock.  When it
ends, one :class:`RequestRecord` is folded **once, under one lock**, by
:meth:`RecordStore.fold` — the only writer of

(a) a :class:`Rollup` per key space (span name, query shape, principal,
    operation, route), the lifetime totals: each sample accumulated
    once, a span's or a route's latency into the row's histogram — the
    registry's ``span.duration_ms`` / ``api.request_ms``;
(b) the :class:`TimeRing`: 5-second slots of the latency per span name
    and the spend per principal, the rolling totals;
(c) the records a lookup can reach: a recent tail, and per span name
    the worst-N exemplars and the last N failures.

The registry's ``spans.*``, ``platform.queries``, ``api.requests`` and
``usage.*`` are read off the rows when the registry is read
(:meth:`RecordStore.series`).  Every view reads (a)-(c) under the same
lock, which is why no two can disagree.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.obs.metrics import Histogram, MetricsRegistry

#: The open unit of work of the current execution context.
_open: contextvars.ContextVar["Unit | None"] = contextvars.ContextVar(
    "tvdp_unit", default=None
)


#: ``current_unit()``: the open unit of work of the current execution
#: context, or ``None`` — the variable's own getter, no frame of ours.
current_unit = _open.get

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


def cost_of(charges: dict[str, float]) -> float:
    """Scalar cost of a charge dict under :data:`COST_WEIGHTS`."""
    total = 0.0
    for kind, amount in charges.items():
        key = "probes" if kind.startswith("probes.") else kind
        total += COST_WEIGHTS.get(key, 0.0) * amount
    return total


@dataclass(slots=True)
class RequestRecord:
    """What one unit of work did; built when it closes, not changed after.

    ``spans`` are the finished :class:`~repro.obs.tracing.Span` objects
    in completion order (attrs and ancestry included, so shard facts,
    retries, fault annotations and the analyzed plan ride along);
    ``queries`` are ``(shape, family, ms)``, one per query executed;
    ``principal`` … ``cost`` are the bill (``principal`` is ``None`` when
    nothing was billed); ``request_id`` … ``request_ms`` are the
    router's — ``error`` the ``"<Type>: <message>"`` of a 5xx,
    ``request_ms`` the ``http.request`` span's own time.
    """

    request_id: str | None = None
    method: str | None = None
    route: str | None = None
    status: int | None = None
    error: str | None = None
    request_ms: float = 0.0
    trace_id: str | None = None
    principal: str | None = None
    operation: str | None = None
    charges: dict = field(default_factory=dict)
    cost: float = 0.0
    queries: tuple = ()
    spans: tuple = ()
    duration_ms: float = 0.0
    #: ``(registry, snapshot before, after)``, named only when read.
    counters: tuple | None = field(default=None, repr=False)

    @property
    def counter_deltas(self) -> dict[str, float]:
        """Pushed registry counters that moved while the unit was open
        (no fold is among them: what folds write is read off the rows)."""
        if self.counters is None:
            return {}
        registry, before, after = self.counters
        return registry.counter_deltas(before, after)

    def to_dict(self) -> dict:
        """JSON-compatible form (the ``GET /debug/request/{id}`` body)."""
        body = {name: getattr(self, name) for name in self.__slots__}
        del body["counters"]
        body["queries"] = [dict(zip(("shape", "family", "ms"), q)) for q in self.queries]
        body["spans"] = [span.to_dict() for span in self.spans]
        body["counter_deltas"] = self.counter_deltas
        return body


class Unit:
    """A unit of work while it is open — the one thing instrumented code
    reaches through the execution context (``current_unit()``).  One
    context owns it, so nothing on it is locked.  It holds:

    * what closes into it: finished spans, noted queries, the router's
      facts about the request;
    * ``span``, the innermost open span, the parent of the next one;
    * ``sheet``, the charges dict the open ``ledger_scope`` bills to
      (``None`` while none is open: a charge then goes nowhere);
    * the bill — ``principal``, ``operation``, ``shape`` and its
      ``charges`` — named by the first billable ``ledger_scope``
      (``principal`` is ``None`` until then).

    :meth:`close` builds the :class:`RequestRecord` and folds it.
    ``with Unit(store):`` runs a block as a unit of its own, folded when
    the block ends and not when an enclosing unit does (EXPLAIN ANALYZE
    reads the counters its execution moved).  It starts from the
    enclosing unit's span and sheet, so the trace tree is unbroken and a
    scope open around it keeps taking the charges.  A unit on no store
    is a bare meter's (a ``ledger_scope()`` opened outside any unit of
    work): it folds nothing, and a span or a billable scope opened in it
    opens a unit of work of its own."""

    __slots__ = ("spans", "queries", "request", "counters", "store", "span", "sheet",
                 "principal", "operation", "shape", "charges", "_token", "_t0")

    def __init__(self, store: "RecordStore | None") -> None:
        outer = _open.get()
        self.spans: list = []
        self.queries: list[tuple] = []
        #: ``(request_id, method, route, status, http.request span)``.
        self.request: tuple | None = None
        #: Counter snapshot taken when the unit's first span opens:
        #: deltas say why a span was slow, so they bracket spans.
        self.counters = None
        self.store = store
        self.span = self.sheet = None
        if outer is not None:
            self.span, self.sheet = outer.span, outer.sheet
        self.principal = self.operation = self.shape = None
        self.charges: dict[str, float] = {}
        self._t0 = time.perf_counter()
        self._token = _open.set(self)

    def __enter__(self) -> "Unit":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """End the unit: settle the bill, take the closing counter
        snapshot, fold into the store that opened it."""
        _open.reset(self._token)
        store, spans, queries = self.store, self.spans, self.queries
        if store is None:
            return
        duration_ms = (time.perf_counter() - self._t0) * 1e3
        request_id = method = route = status = error = operation = None
        request_ms, cost, charges, counters = 0.0, 0.0, {}, None
        if self.request is not None:
            request_id, method, route, status, span = self.request
            error, request_ms = span.error, span.duration_ms
            operation = f"{method} {route}"
        principal = self.principal
        if principal is not None:
            charges = self.charges
            cost = cost_of(charges)
            operation = operation or self.operation
            if self.shape and not queries:
                queries = [(self.shape, None, duration_ms)]
        if self.counters is not None:
            registry = store.registry
            counters = (registry, self.counters, registry.counter_snapshot())
        # Positionally, in field order: fifteen keywords cost more to
        # bind than the record costs to build.
        store.fold(RequestRecord(
            request_id, method, route, status, error, request_ms,
            spans[0].trace_id if spans else None,
            principal, operation, charges, cost,
            tuple(queries), tuple(spans), duration_ms, counters,
        ))


def _by_slowest(exemplar: tuple) -> float:
    return -exemplar[0]


class _Row:
    """One key's aggregates (see :class:`Rollup`).  ``worst`` and
    ``failed`` hold ``(ms, fold number, span, record)``; ``tally``
    counts units by one more label (a span's errors, a shape's queries
    per family, a route's requests per status, a principal's
    would-shed count and last rolling spend)."""

    __slots__ = ("count", "total_ms", "max_ms", "last_ms", "cost", "charges",
                 "exemplar", "worst", "failed", "tally", "hist")

    def __init__(self, hist: Histogram | None) -> None:
        self.count = 0
        self.total_ms = self.max_ms = self.last_ms = self.cost = 0.0
        self.charges: dict[str, float] = {}
        self.exemplar: dict | None = None  # {"cost", "trace_id"} of the costliest
        self.worst: list[tuple] = []  # slowest first: N shown, N pushed out
        self.failed: list[tuple] = []  # the last N failures
        self.tally: dict = {}
        self.hist = hist  # a latency key space's lifetime histogram


#: ``(kind, name, label key)`` -> value: one series read off the rows.
Series = dict[tuple[str, str, tuple], float]


class Rollup:
    """Keyed aggregates over folded records: ``count, total_ms, max_ms,
    last_ms, cost, charges``, the worst unit by cost and the worst-N by
    time — one row shape for every key space.  A latency key space
    (``histogram``: key -> :class:`Histogram`) keeps a row's samples in
    its histogram and counts them, nothing else.

    Bounded: the table grows to twice ``capacity`` and is then pruned
    back to ``capacity`` by (count, total time), ties broken on the key,
    so a hot key is never evicted.  ``derive`` (key, row -> the registry
    series they imply) makes the key space a source of series; a pruned
    row's series fold into :attr:`rest`, so none ever decreases.  Not
    locked: the store calls it with its lock held.
    """

    def __init__(
        self, capacity: int = 64, worst: int = 0,
        derive: Callable[[object, _Row], Iterator[tuple]] | None = None,
        histogram: Callable[[object], Histogram] | None = None,
    ) -> None:
        if capacity < 1 or worst < 0:
            raise ValueError(f"need capacity >= 1 and worst >= 0, got {capacity}/{worst}")
        self.capacity, self.worst = capacity, worst
        self.derive, self.histogram = derive, histogram
        self.rows: dict = {}
        self.evicted = 0
        #: The series of every row pruned so far.
        self.rest: Series = {}

    def observe(self, key, ms: float) -> _Row:
        """Count one sample of ``ms`` under ``key`` into its row's
        histogram (a latency key space); returns its row."""
        row = self.rows.get(key) or self._new_row(key)
        row.count += 1
        row.hist.observe(ms)
        return row

    def add(
        self, key: str, ms: float, cost: float = 0.0, charges: dict | None = None,
        share: float = 1.0, trace_id: str | None = None,
    ) -> _Row:
        """Count one unit of ``ms`` and its bill under ``key``; returns
        its row.  ``share`` scales ``charges`` (a batch bills each query
        its share)."""
        row = self.rows.get(key) or self._new_row(key)
        row.count += 1
        row.total_ms += ms
        row.last_ms = ms
        if ms > row.max_ms:
            row.max_ms = ms
        row.cost += cost
        if charges:
            mine = row.charges
            for kind, amount in charges.items():
                mine[kind] = mine.get(kind, 0.0) + amount * share
        if trace_id is not None and (
            row.exemplar is None or cost > row.exemplar["cost"]
        ):
            row.exemplar = {"cost": cost, "trace_id": trace_id}
        return row

    def keep_worst(self, row: _Row, exemplar: tuple) -> None:
        """File ``exemplar`` (``(ms, …)``) among ``row``'s worst-N,
        slowest first and behind its equals — only for a unit slower
        than the N-th (a tie stays out).  The N it pushed out stay
        behind, where a lookup finds them and :meth:`slowest` does not:
        an exemplar a view just showed outlives the reads of it."""
        worst = row.worst
        worst.insert(bisect_right(worst, -exemplar[0], key=_by_slowest), exemplar)
        del worst[2 * self.worst:]

    def _new_row(self, key) -> _Row:
        """A row for a key not seen (or pruned) before; the one moment
        the table can outgrow its bound."""
        if len(self.rows) >= self.capacity * 2:
            ranked = sorted(
                self.rows.items(),
                key=lambda item: (-item[1].count, -item[1].total_ms, item[0]),
            )
            self.evicted += len(ranked) - self.capacity
            for gone, row in ranked[self.capacity:]:
                self._series_into(self.rest, gone, row)
            self.rows = dict(ranked[: self.capacity])
        row = self.rows[key] = _Row(self.histogram(key) if self.histogram else None)
        return row

    def _series_into(self, out: Series, key, row: _Row) -> None:
        for kind, name, labels, value in self.derive(key, row) if self.derive else ():
            series = (kind, name, labels)
            out[series] = value if kind == "gauge" else out.get(series, 0.0) + value

    def series(self) -> Series:
        """The registry series of every row, pruned ones included (a
        gauge reads its live row's value)."""
        out = dict(self.rest)
        for key, row in self.rows.items():
            self._series_into(out, key, row)
        return out

    def hottest(self, k: int) -> list[dict]:
        """The ``k`` most-counted keys.  Equal counts order by key alone:
        total time is wall-clock noise, and letting it into the order
        makes equal-count rankings flap across runs."""
        ranked = sorted(self.rows.items(), key=lambda item: (-item[1].count, item[0]))
        return [
            {
                "shape": key,
                "count": row.count,
                "total_ms": round(row.total_ms, 3),
                "mean_ms": round(row.total_ms / row.count, 3),
                "max_ms": round(row.max_ms, 3),
                "last_ms": round(row.last_ms, 3),
            }
            for key, row in ranked[:k]
        ]

    def costliest(self, top: int | None) -> list[dict]:
        """Rows by cost, descending (ties on the key)."""
        ranked = sorted(self.rows.items(), key=lambda item: (-item[1].cost, item[0]))
        return [
            {
                "key": key,
                "count": row.count,
                "cost": round(row.cost, 6),
                "charges": {k: round(v, 6) for k, v in sorted(row.charges.items())},
                "exemplar": row.exemplar,
            }
            for key, row in ranked[:top]
        ]

    def slowest(self, key: str | None = None) -> list[tuple]:
        """Worst-N entries of one key, or of all keys merged, slowest
        first."""
        rows = self.rows.values() if key is None else filter(None, [self.rows.get(key)])
        return sorted(
            (entry for row in rows for entry in row.worst[: self.worst]), key=_by_slowest
        )

    def clear(self) -> None:
        """Drop every row; the series they implied stay, at zero, as a
        registry's pushed series do across a reset."""
        self.rest = dict.fromkeys(self.series(), 0.0)
        self.rows.clear()
        self.evicted = 0


class TimeRing:
    """The one bucket clock: fixed 5-second slots, each a latency
    :class:`Histogram` per span name and the spend per principal.
    Latency windows read the last :data:`WINDOW_S`; spend is kept for
    :data:`KEEP` slots (20 minutes) so a what-if budget with another
    ``window_s`` reads the same history.  A slot is made when the first
    record of its 5 seconds folds, which is also when slots past the
    horizon are dropped — steady-state folds never scan.  Not locked:
    the store calls it with its lock held.
    """

    SLOT_S = 5.0
    WINDOW_S = 60.0
    KEEP = 240

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        if clock is not None and not callable(clock):
            raise TypeError(f"clock must be callable, got {clock!r}")
        self._now = clock or time.monotonic
        self._slots: dict[int, tuple[dict[str, Histogram], dict[str, float]]] = {}

    def current(self) -> tuple[dict[str, Histogram], dict[str, float]]:
        """``(latency by span name, spend by principal)`` of the slot
        covering now."""
        epoch = int(self._now() // self.SLOT_S)
        slot = self._slots.get(epoch)
        if slot is None:
            slot = self._slots[epoch] = ({}, {})
            for stale in [e for e in self._slots if e <= epoch - self.KEEP]:
                del self._slots[stale]
        return slot

    def _live(self, window_s: float) -> list[tuple[dict, dict]]:
        floor = int(self._now() // self.SLOT_S) - max(1, round(window_s / self.SLOT_S))
        return [slot for epoch, slot in self._slots.items() if epoch > floor]

    def latency(self, key: str | None = None) -> dict[str, Histogram]:
        """Span name -> the window's samples as one merged histogram
        (only names with samples; only ``key`` when given)."""
        merged: dict[str, Histogram] = {}
        for latency, _ in self._live(self.WINDOW_S):
            for name, histogram in latency.items():
                if key is None or name == key:
                    merged.setdefault(name, Histogram(name)).merge(histogram)
        return merged

    def spent(self, principal: str, window_s: float) -> float:
        """Spend of ``principal`` over the trailing ``window_s`` seconds."""
        return sum(spend.get(principal, 0.0) for _, spend in self._live(window_s))

    def clear(self) -> None:
        self._slots.clear()


# -- the registry series each key space implies, read at scrape ----------------


def _span_series(name: str, row: _Row) -> Iterator[tuple]:
    labels = (("span", name),)
    yield "counter", "spans.total", labels, row.count
    yield "counter", "spans.errors", labels, row.tally.get("error", 0)


def _shape_series(shape: str, row: _Row) -> Iterator[tuple]:
    for family, queries in row.tally.items():
        yield "counter", "platform.queries", (("family", family),), queries


def _route_series(key: tuple, row: _Row) -> Iterator[tuple]:
    method, route = key
    for status, requests in row.tally.items():
        labels = (("method", method), ("route", route), ("status", str(status)))
        yield "counter", "api.requests", labels, requests


def _principal_series(principal: str, row: _Row) -> Iterator[tuple]:
    labels = (("principal", principal),)
    yield "counter", "usage.requests", labels, row.count
    yield "counter", "usage.cost", labels, row.cost
    yield "gauge", "usage.rolling_cost", labels, row.tally.get("rolling", 0.0)
    yield "counter", "usage.would_shed", labels, row.tally.get("shed", 0)
    for kind, amount in row.charges.items():
        name = "usage.index_probes" if kind.startswith("probes.") else f"usage.{kind}"
        yield "counter", name, labels, amount


#: The registry series names :meth:`RecordStore.series` serves.
DERIVED = ("spans.total", "spans.errors", "platform.queries", "api.requests", "usage.")


def _ids_of(record: RequestRecord) -> tuple:
    """The ids a lookup finds ``record`` by (``None`` among them is
    skipped): its request id and its spans' trace — each distinct one
    when a unit held more than one trace."""
    request_id, trace_id = record.request_id, record.trace_id
    for span in record.spans:
        if span.trace_id != trace_id:
            return (request_id, *{span.trace_id for span in record.spans})
    return (request_id, trace_id)


class RecordStore:
    """The keyed table every view reads; :meth:`fold` is its one writer.

    ``registry`` (optional) reads the series a record implies off the
    rows (:meth:`series`) and holds the rows' latency histograms;
    ``budget`` turns rolling spend into *would-shed* dry-run flags;
    ``clock`` (seconds, monotone) is injectable for deterministic
    window and budget tests.  ``Unit(store)`` and
    ``ledger_scope(table=store)`` open units that fold here;
    ``obs.records()`` is the process-wide one.
    """

    #: The recent tail of records, whatever they were.  Kept records
    #: outlive the collector's young generations, so this also paces its
    #: full passes (docs/observability.md, the retention rule).
    RECORDS = 1024
    #: Worst spans per operation name (``/debug/slow``), and failed ones
    #: (a 5xx fails its ``http.request`` span): their records are kept.
    SLOW_PER_OP = 8
    #: The rolling latency window, and the one rolling spend is read
    #: over when no budget is configured.
    WINDOW_S = TimeRing.WINDOW_S

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        budget=None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.registry = registry
        self._budget = budget
        self._lock = threading.Lock()
        hist = registry.histogram if registry else lambda name, labels: Histogram(name)
        #: One rollup per key space.
        self._by: dict[str, Rollup] = {
            "span": Rollup(
                capacity=512, worst=self.SLOW_PER_OP, derive=_span_series,
                histogram=lambda name: hist("span.duration_ms", {"span": name}),
            ),
            "shape": Rollup(capacity=64, derive=_shape_series),
            "principal": Rollup(capacity=4096, derive=_principal_series),
            "operation": Rollup(capacity=512),
            "route": Rollup(
                capacity=512, derive=_route_series,
                histogram=lambda key: hist("api.request_ms", {"method": key[0], "route": key[1]}),
            ),
        }
        self._ring = TimeRing(clock)
        self._folds = itertools.count(1)  # numbers the kept records in fold order
        self._tail: deque[tuple[int, RequestRecord]] = deque()
        #: Request id or trace id -> the tail's ``(seq, record)`` of it:
        #: the entry, or a list of them once a second shares the id.
        self._ids: dict[str, tuple | list] = {}
        #: Finished spans are streamed here after the fold (JSONL).
        self.exporters: tuple = ()
        if registry is not None:
            registry.derive(DERIVED, self)

    # -- writing -------------------------------------------------------------

    def record(self, shape: str, duration_ms: float, family: str | None = None) -> None:
        """Count one execution of ``shape`` outside any unit of work."""
        self.fold(RequestRecord(queries=((shape, family, float(duration_ms)),)))

    def fold(self, record: RequestRecord) -> None:
        """Fold one finished unit of work into every view — the one
        write path of the rollups, the ring and the kept records."""
        by = self._by
        principal, cost, charges = record.principal, record.cost, record.charges
        trace_id = record.trace_id
        with self._lock:
            seq = next(self._folds)
            latency, spend = self._ring.current()
            by_span = by["span"]
            keep = by_span.worst
            for span in record.spans:
                name, ms = span.name, span.duration_ms
                row = by_span.observe(name, ms)
                if span.status == "error":
                    row.tally["error"] = row.tally.get("error", 0) + 1
                    row.failed.append((ms, seq, span, record))
                    del row.failed[:-keep]
                worst = row.worst
                if len(worst) < keep or ms > worst[keep - 1][0]:
                    by_span.keep_worst(row, (ms, seq, span, record))
                (latency.get(name) or latency.setdefault(name, Histogram(name))).add_sample(ms)
            # One query carries the whole bill; a batch splits it evenly.
            share = 1.0 / max(len(record.queries), 1)
            for shape, family, ms in record.queries:
                row = by["shape"].add(shape, ms, cost * share, charges, share, trace_id)
                if family is not None:
                    row.tally[family] = row.tally.get(family, 0) + 1
            if principal is not None:
                ms = record.duration_ms
                row = by["principal"].add(principal, ms, cost, charges, 1.0, trace_id)
                if record.operation:
                    by["operation"].add(record.operation, ms, cost, charges, 1.0, trace_id)
                spend[principal] = spend.get(principal, 0.0) + cost
                budget = self._budget
                if budget is not None:
                    spent = row.tally["rolling"] = self._ring.spent(principal, budget.window_s)
                    if spent > budget.cost_per_window:
                        row.tally["shed"] = row.tally.get("shed", 0) + 1
            if record.route is not None:
                row = by["route"].observe((record.method, record.route), record.request_ms)
                row.tally[record.status] = row.tally.get(record.status, 0) + 1
            # Kept: what /debug/trace and /debug/request can look up.
            if record.spans or record.request_id is not None:
                self._keep((seq, record))
        for exporter in self.exporters:
            for span in record.spans:
                exporter.export(span)

    def _keep(self, entry: tuple) -> None:
        """Append ``entry`` to the tail and index it by its ids, evicting
        the oldest past :data:`RECORDS` (caller holds the lock)."""
        if len(self._tail) >= self.RECORDS:
            gone = self._tail.popleft()
            for key in _ids_of(gone[1]):
                held = self._ids.get(key)
                if held is gone:
                    del self._ids[key]
                elif held is not None:
                    held.remove(gone)
                    if len(held) == 1:
                        self._ids[key] = held[0]
        self._tail.append(entry)
        for key in _ids_of(entry[1]):
            if key is None:
                continue
            held = self._ids.get(key)
            if held is None:
                self._ids[key] = entry
            elif type(held) is list:
                held.append(entry)
            else:
                self._ids[key] = [held, entry]

    def set_budget(self, budget) -> None:
        """Install (or clear) the admission budget for would-shed flags."""
        with self._lock:
            self._budget = budget

    def add_exporter(self, exporter: object) -> None:
        with self._lock:
            self.exporters = (*self.exporters, exporter)

    def remove_exporter(self, exporter: object) -> None:
        with self._lock:
            self.exporters = tuple(e for e in self.exporters if e is not exporter)

    def reset(self) -> None:
        """Drop every view's contents (benchmark isolation); the budget
        and the exporters survive."""
        with self._lock:
            for rollup in self._by.values():
                rollup.clear()
            self._ring.clear()
            self._tail.clear()
            self._ids.clear()

    # -- reading: each view is one locked read of what fold() wrote ------------

    def series(self) -> Series:
        """The registry series (:data:`DERIVED`) read off the span,
        shape, route and principal rows."""
        with self._lock:
            out: Series = {}
            for rollup in self._by.values():
                out.update(rollup.series())
            return out

    def report(self, top: int | None = 10, budget=None) -> dict:
        """Top consumers by principal/shape/operation plus budget and
        would-shed dry-run state (the ``GET /debug/resources`` payload).
        ``budget`` overrides the configured one for what-if evaluation —
        nothing is ever actually shed."""
        with self._lock:
            effective = budget or self._budget
            window_s = effective.window_s if effective else self.WINDOW_S
            rolling = {
                principal: self._ring.spent(principal, window_s)
                for principal in sorted(self._by["principal"].rows)
            }
            return {
                "by_principal": self._by["principal"].costliest(top),
                "by_shape": self._by["shape"].costliest(top),
                "by_operation": self._by["operation"].costliest(top),
                "budget": effective and {
                    "cost_per_window": effective.cost_per_window,
                    "window_s": effective.window_s,
                    "overridden": budget is not None,
                },
                "rolling_cost": {p: round(spent, 6) for p, spent in rolling.items()},
                "would_shed": [
                    p for p, spent in rolling.items()
                    if effective and spent > effective.cost_per_window
                ],
            }

    def top(self, k: int = 10) -> list[dict]:
        """The ``k`` hottest query shapes, most-executed first: ``{shape,
        count, total_ms, mean_ms, max_ms, last_ms}`` (``GET /debug/hot``)."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        with self._lock:
            return self._by["shape"].hottest(k)

    def tracked(self) -> tuple[int, int]:
        """``(shapes tracked, shapes pruned so far)`` — the coverage
        caveat of ``/debug/hot``."""
        with self._lock:
            return len(self._by["shape"].rows), self._by["shape"].evicted

    def slowest(self, name: str | None = None, limit: int | None = None) -> list[dict]:
        """Worst-span exemplars, slowest first; one operation or all
        merged.  Each is the span's ``to_dict`` plus its record's
        ``counter_deltas`` (``GET /debug/slow``)."""
        with self._lock:
            return [
                {**span.to_dict(), "counter_deltas": record.counter_deltas}
                for _, _, span, record in self._by["span"].slowest(name)[:limit]
            ]

    def operations(self) -> list[str]:
        """Every span name with at least one exemplar."""
        with self._lock:
            return sorted(self._by["span"].rows)

    def window(self, key: str | None = None) -> dict[str, Histogram]:
        """Span name -> its latency over the last :data:`WINDOW_S`
        seconds as one histogram (names with no samples left out)."""
        with self._lock:
            return self._ring.latency(key)

    def window_summaries(self) -> dict[str, dict]:
        """Span name -> ``{count,sum,min,max,p50,p95,p99,window_s}`` over
        the rolling window (``latency_ms_window`` in ``GET /stats``)."""
        return {
            name: {**histogram.summary(), "window_s": self.WINDOW_S}
            for name, histogram in sorted(self.window().items())
        }

    def records(self) -> list[RequestRecord]:
        """The recent tail, oldest first."""
        with self._lock:
            return [record for _, record in self._tail]

    def _kept(self, key: str) -> list[RequestRecord]:
        """Every kept record of one request id or trace id, oldest
        first: the tail's, by the index, and the worst-N and failure
        slots' — a lookup costs the slots, not the tail."""
        with self._lock:
            held = self._ids.get(key)
            kept = dict(held if type(held) is list else [held] if held else ())
            for row in self._by["span"].rows.values():
                for _, seq, span, record in (*row.worst, *row.failed):
                    if key in (record.request_id, record.trace_id, span.trace_id):
                        kept[seq] = record
        return [kept[seq] for seq in sorted(kept)]

    def request(self, request_id: str) -> RequestRecord | None:
        """The record of one API request, while a lookup can reach it."""
        return next(
            (r for r in reversed(self._kept(request_id)) if r.request_id == request_id),
            None,
        )

    def spans(self, name: str | None = None, trace_id: str | None = None) -> list:
        """Spans of the tail's records, oldest first, of one name and/or
        one trace (a trace is looked up in every kept record)."""
        return [
            span
            for record in (self.records() if trace_id is None else self._kept(trace_id))
            for span in record.spans
            if (name is None or span.name == name)
            and (trace_id is None or span.trace_id == trace_id)
        ]
