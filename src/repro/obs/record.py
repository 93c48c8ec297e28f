"""One record per unit of work, one fold into one keyed table.

A *unit of work* is whatever opens the outermost span or billable
``ledger_scope`` of an execution context (``Router.dispatch``, a bare
``TVDP.answer``, a span-less ``ledger_scope(table=obs.usage())``).
While it runs its :class:`Unit` is the one ``contextvars`` variable of
``repro.obs``, and what finishes inside closes *into* it without a
lock.  When it ends the unit is its own :class:`RequestRecord`, taken
by :meth:`RecordStore.fold` and folded **once, under one lock**, with
the others waiting beside it, before anything reads — the one writer of
(a) a :class:`Rollup` per key space (span name, query shape,
principal, operation — a routed request's operation row is its
route's), the lifetime totals; (b) the :class:`TimeRing` of 5-second
slots, the rolling totals; (c) the records a lookup can reach.  A
latency sample is held on its row and bucketed, with its row's others,
into the row's histogram (the registry's ``span.duration_ms`` /
``api.request_ms``) and its slot's when the slot ends or anything reads
them (:meth:`RecordStore.settle`).  The registry's ``spans.*``,
``platform.queries``, ``api.requests`` and ``usage.*`` are read off the
rows (:meth:`RecordStore.series`).  Every view reads under the same
lock, which is why no two can disagree.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from array import array
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
    """What one unit of work did, not changed after it folded: a closed
    :class:`Unit`, or one built by hand (a query noted outside any unit).

    ``spans`` are the finished :class:`~repro.obs.tracing.Span` objects
    in completion order (attrs included: shard facts, retries, faults
    and the analyzed plan ride along); ``queries`` are ``(shape,
    family, ms)``; ``principal`` … ``cost`` are the bill (``principal``
    is ``None`` when nothing was billed); ``request_id`` …
    ``request_ms`` are the router's — ``error`` a 5xx's ``"<Type>:
    <message>"``, ``request_ms`` the ``http.request`` span's own time.
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
    #: Its place in the fold order of the store it was folded into.
    seq: int = field(default=0, repr=False)

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
        body = {name: getattr(self, name) for name in RequestRecord.__slots__}
        del body["counters"], body["seq"]
        body["queries"] = [dict(zip(("shape", "family", "ms"), q)) for q in self.queries]
        body["spans"] = [span.to_dict() for span in self.spans]
        body["counter_deltas"] = self.counter_deltas
        return body


class Unit(RequestRecord):
    """A unit of work: while open, what instrumented code reaches through
    the execution context (``current_unit()``); once closed, its own
    record.  One context owns it, so nothing on it is locked.  It holds
    what closes into it (spans, noted queries, ``note_request``'s
    request fields and ``http`` span); ``span``, the innermost open
    span; ``sheet``, the charges dict the open ``ledger_scope`` bills to
    (``None`` while none is); and the bill (``principal``,
    ``operation``, ``shape``, ``charges``) the first billable scope
    names.  :meth:`close` settles the record's fields in place and
    folds the unit.

    ``with Unit(store):`` runs a block as a unit of its own, folded when
    the block ends (EXPLAIN ANALYZE reads the counters its execution
    moved); it starts from the enclosing unit's span and sheet, so the
    trace tree is unbroken and a scope open around it keeps taking the
    charges.  A unit on no store is a bare meter's: it folds nothing,
    and a span or billable scope opened in it opens a unit of its own."""

    __slots__ = ("store", "span", "sheet", "shape", "http", "_token")

    def __init__(self, store: "RecordStore | None") -> None:
        outer = _open.get()
        self.spans: list = []
        self.queries: list = []
        self.request_id = self.method = self.route = self.status = self.error = None
        self.principal = self.operation = self.shape = self.http = None
        self.request_ms = self.cost = 0.0
        #: The counter snapshot when the first span opens; at the close,
        #: the record's ``counters``: deltas say why a span was slow, so
        #: they bracket spans.
        self.counters = None
        self.store = store
        self.span = self.sheet = None
        if outer is not None:
            self.span, self.sheet = outer.span, outer.sheet
        self.charges: dict[str, float] = {}
        self.duration_ms = time.perf_counter()  # the opening reading, until it closes
        self._token = _open.set(self)

    def __enter__(self) -> "Unit":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """End the unit: settle the bill, take the closing counter
        snapshot, fold into the store that opened it."""
        _open.reset(self._token)
        self._token = None
        store = self.store
        if store is None:
            return
        duration_ms = self.duration_ms = (time.perf_counter() - self.duration_ms) * 1e3
        http = self.http
        if http is not None:
            self.error, self.request_ms = http.error, http.duration_ms
            self.operation = f"{self.method} {self.route}"
        elif self.principal is None:
            self.operation = None
        if self.principal is not None:
            if self.charges:
                self.cost = cost_of(self.charges)
            if self.shape and not self.queries:
                self.queries = [(self.shape, None, duration_ms)]
        else:
            self.charges = {}
        self.queries = tuple(self.queries)
        if self.counters is not None:
            registry = store.registry
            self.counters = (registry, self.counters, registry.counter_snapshot())
        store.fold(self)

    @property
    def trace_id(self) -> str | None:
        """The unit's trace: its first finished span's, read when asked."""
        spans = self.spans
        return spans[0].trace_id if spans else None


def _by_slowest(exemplar: tuple) -> float:
    return -exemplar[0]


class _Row:
    """One key's aggregates (see :class:`Rollup`).  ``worst`` and
    ``failed`` hold ``(ms, fold number, span, record)``; ``tally``
    counts units by one more label (a span's errors, a shape's queries
    per family, a routed operation's requests per status, a principal's
    would-shed count and last rolling spend)."""

    __slots__ = ("count", "total_ms", "max_ms", "last_ms", "cost", "charges",
                 "exemplar", "worst", "failed", "tally", "hist", "samples")

    def __init__(self, hist: Histogram | None) -> None:
        self.count = 0
        self.total_ms = self.max_ms = self.last_ms = self.cost = 0.0
        self.charges: dict[str, float] = {}
        self.exemplar: dict | None = None  # {"cost", "trace_id"} of the costliest
        self.worst: list[tuple] = []  # slowest first: N shown, N pushed out
        self.failed: list[tuple] = []  # the last N failures
        self.tally: dict = {}
        self.hist = hist  # a latency key space's lifetime histogram
        #: Latency samples the fold holds back from ``hist`` (and the
        #: time slot's) until :meth:`RecordStore.settle`.
        self.samples = None if hist is None else array("d")


#: ``(kind, name, label key)`` -> value: one series read off the rows.
Series = dict[tuple[str, str, tuple], float]


class Rollup:
    """Keyed aggregates over folded records: ``count, total_ms, max_ms,
    last_ms, cost, charges``, the worst unit by cost and the worst-N by
    time — one row shape for every key space; a latency key space
    (``histogram``: key -> :class:`Histogram`) counts a row's samples.

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

    def row(self, key) -> _Row:
        """``key``'s row, made if there is none."""
        return self.rows.get(key) or self._new_row(key)

    def add(
        self, key: str, ms: float, cost: float = 0.0, charges: dict | None = None,
        share: float = 1.0, record: RequestRecord | None = None,
    ) -> _Row:
        """Count one unit of ``ms`` and its bill under ``key``; returns
        its row.  ``share`` scales ``charges`` (a unit of several queries
        bills each its share); ``record``'s trace is the exemplar of a
        costliest."""
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
        if record is not None and (row.exemplar is None or cost > row.exemplar["cost"]):
            trace_id = record.trace_id
            if trace_id is not None:
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
        """A row for a key not seen (or pruned) before."""
        if len(self.rows) >= self.capacity * 2:
            ranked = sorted(
                self.rows.items(),
                key=lambda item: (-item[1].count, -item[1].total_ms, item[0]),
            )
            self.evicted += len(ranked) - self.capacity
            for gone, row in ranked[self.capacity:]:
                self._series_into(self.rest, gone, row)
                del self.rows[gone]  # in place: the fold holds the dict
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
        """Billed rows by cost, descending (ties on the key)."""
        billed = [item for item in self.rows.items() if item[1].count]
        ranked = sorted(billed, key=lambda item: (-item[1].cost, item[0]))
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
    horizon are dropped.  Not locked: the store calls it with its lock
    held.
    """

    SLOT_S = 5.0
    WINDOW_S = 60.0
    KEEP = 240

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        if clock is not None and not callable(clock):
            raise TypeError(f"clock must be callable, got {clock!r}")
        self._now = clock or time.monotonic
        self._slots: dict[int, tuple[dict[str, Histogram], dict[str, float]]] = {}

    def epoch(self) -> int:
        """The number of the slot covering now."""
        return int(self._now() // self.SLOT_S)

    def slot(self, epoch: int) -> tuple[dict[str, Histogram], dict[str, float]]:
        """``(latency by span name, spend by principal)`` of one slot."""
        slot = self._slots.get(epoch)
        if slot is None:
            slot = self._slots[epoch] = ({}, {})
            for stale in [e for e in self._slots if e <= epoch - self.KEEP]:
                del self._slots[stale]
        return slot

    def _live(self, window_s: float, at: int | None = None) -> list[tuple[dict, dict]]:
        floor = (self.epoch() if at is None else at) - max(1, round(window_s / self.SLOT_S))
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

    def spent(self, principal: str, window_s: float, at: int | None = None) -> float:
        """Spend of ``principal`` over the ``window_s`` seconds up to now
        (or to the end of slot ``at``)."""
        return sum(spend.get(principal, 0.0) for _, spend in self._live(window_s, at))

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


def _operation_series(operation: str, row: _Row) -> Iterator[tuple]:
    # A routed operation's row holds its route's histogram, labelled
    # (method, route): the requests per status are labelled alike.
    for status, requests in row.tally.items():
        yield "counter", "api.requests", (*row.hist.labels, ("status", str(status))), requests


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
    """The keyed table every view reads; :meth:`fold` takes what it folds.

    ``registry`` (optional) reads the series a record implies off the
    rows (:meth:`series`) and holds the rows' latency histograms;
    ``budget`` turns rolling spend into *would-shed* dry-run flags;
    ``clock`` (seconds, monotone) is injectable for deterministic
    window and budget tests.  ``Unit(store)`` and
    ``ledger_scope(table=store)`` open units that fold here;
    ``obs.records()`` is the process-wide one.
    """

    #: The recent tail of records, whatever they were; it also paces the
    #: collector's full passes (docs/observability.md, the retention rule).
    RECORDS = 1024
    #: Worst spans per operation name (``/debug/slow``), and failed ones
    #: (a 5xx fails its ``http.request`` span): their records are kept.
    SLOW_PER_OP = 8
    #: The rolling latency window, and the one rolling spend is read
    #: over when no budget is configured.
    WINDOW_S = TimeRing.WINDOW_S
    #: Latency samples held back at most (:meth:`settle`): 32 KiB.
    HELD = 4096
    #: Records waiting to be folded at most (:meth:`fold`): one request
    #: in 127 drains them, under 1 % of any traffic, and a prime, so that
    #: traffic in short cycles (a write cycle is four requests) does not
    #: pay every drain on the same request of its cycle.
    BATCH = 127

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        budget=None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.registry = registry
        self._budget = budget
        #: The registry's histograms are the rows': fold under their lock.
        self._lock = threading.Lock() if registry is None else registry.samples
        hist = registry.histogram if registry else (
            lambda name, labels: Histogram(
                name, tuple(sorted(labels.items())), lock=self._lock, feed=self.settle
            )
        )
        #: One rollup per key space.
        self._by: dict[str, Rollup] = {
            "span": Rollup(
                capacity=512, worst=self.SLOW_PER_OP, derive=_span_series,
                histogram=lambda name: hist("span.duration_ms", {"span": name}),
            ),
            "shape": Rollup(capacity=64, derive=_shape_series),
            "principal": Rollup(capacity=4096, derive=_principal_series),
            "operation": Rollup(capacity=512, derive=_operation_series),
        }
        self._route_hist = lambda method, route: hist(
            "api.request_ms", {"method": method, "route": route}
        )
        self._ring = TimeRing(clock)
        #: The slot the held samples fall in, and its spend.
        self._epoch: int | None = None
        self._spend: dict[str, float] = {}
        #: ``(span name or None, row)`` of each row holding samples.
        self._held: list[tuple[str | None, _Row]] = []
        self._waiting = 0  # samples held
        self._folds = itertools.count(1)  # numbers the kept records in fold order
        #: ``(slot, record)`` of each record taken and not folded yet.
        self._queue: list[tuple[int, RequestRecord]] = []
        self._tail: deque[RequestRecord] = deque(maxlen=self.RECORDS)
        #: Request id or trace id -> the tail's records of it, oldest
        #: first — as of the last lookup (:meth:`_index`).
        self._ids: dict[str, list] = {}
        #: ``(seq, ids)`` of each record in ``_ids``, oldest first.
        self._indexed: deque[tuple[int, set]] = deque()
        #: Finished spans are streamed here after the fold (JSONL).
        self.exporters: tuple = ()
        if registry is not None:
            registry.derive(DERIVED, self)

    # -- writing -------------------------------------------------------------

    def record(self, shape: str, duration_ms: float, family: str | None = None) -> None:
        """Count one execution of ``shape`` outside any unit of work."""
        self.fold(RequestRecord(queries=((shape, family, float(duration_ms)),)))

    def fold(self, record: RequestRecord) -> None:
        """Take one finished unit of work: it waits, with up to :data:`BATCH`
        others, to be folded (:meth:`_drain`) when one more comes or anything
        reads — a fold among folds costs half what it does among a
        request's other work.  Its spans export now."""
        with self._lock:
            if len(self._queue) >= self.BATCH:
                self._drain()
            record.seq = next(self._folds)
            self._queue.append((self._ring.epoch(), record))
            # Kept now, so the record it pushes out is freed now: a batch
            # of frees would wake the collector.
            if record.spans or record.request_id is not None:
                self._tail.append(record)
        for exporter in self.exporters:
            for span in record.spans:
                exporter.export(span)

    def _drain(self) -> None:
        """Fold what waits, in the order it came, into every view — the
        one write path of the rollups, the ring and the kept records
        (caller holds the lock; every read does this first)."""
        queue, self._queue = self._queue, []
        by = self._by
        by_span, by_shape, by_operation = by["span"], by["shape"], by["operation"]
        rows, keep, held, budget = by_span.rows, by_span.worst, self._held, self._budget
        for epoch, record in queue:
            principal, cost, charges = record.principal, record.cost, record.charges
            spans, seq = record.spans, record.seq
            if epoch != self._epoch:
                self.settle()  # what is held fell in the slot that ended
                self._epoch, self._spend = epoch, self._ring.slot(epoch)[1]
            for span in spans:
                name, ms = span.name, span.duration_ms
                row = rows.get(name) or by_span.row(name)
                row.count += 1
                samples = row.samples
                if not samples:
                    held.append((name, row))
                samples.append(ms)
                if span.status == "error":
                    row.tally["error"] = row.tally.get("error", 0) + 1
                    row.failed.append((ms, seq, span, record))
                    del row.failed[:-keep]
                worst = row.worst
                if len(worst) < keep or ms > worst[keep - 1][0]:
                    by_span.keep_worst(row, (ms, seq, span, record))
            self._waiting += len(spans)
            # One query carries the whole bill; several split it evenly.
            share = 1.0 / max(len(record.queries), 1)
            for shape, family, ms in record.queries:
                row = by_shape.add(shape, ms, cost * share, charges, share, record)
                if family is not None:
                    row.tally[family] = row.tally.get(family, 0) + 1
            operation, route, billed = record.operation, record.route, None
            if principal is not None:
                ms = record.duration_ms
                row = by["principal"].add(principal, ms, cost, charges, 1.0, record)
                spend = self._spend
                spend[principal] = spend.get(principal, 0.0) + cost
                if budget is not None:
                    spent = row.tally["rolling"] = self._ring.spent(
                        principal, budget.window_s, epoch
                    )
                    if spent > budget.cost_per_window:
                        row.tally["shed"] = row.tally.get("shed", 0) + 1
                if operation:
                    billed = by_operation.add(operation, ms, cost, charges, 1.0, record)
            if route is not None:
                # A routed request's operation is its route: its latency
                # and status go on the row its bill went to.
                row = billed or by_operation.row(operation or f"{record.method} {route}")
                if row.hist is None:
                    row.hist, row.samples = self._route_hist(record.method, route), array("d")
                if not row.samples:
                    held.append((None, row))
                row.samples.append(record.request_ms)
                self._waiting += 1
                row.tally[record.status] = row.tally.get(record.status, 0) + 1
            if self._waiting >= self.HELD:
                self.settle()

    def settle(self) -> None:
        """Fold what waits, then bucket the latency samples the fold held
        back into their rows' histograms and their slot's: one
        ``searchsorted`` per row (caller holds the lock; a registry
        histogram's read calls it)."""
        self._drain()
        held = self._held
        if held:
            latency = self._ring.slot(self._epoch)[0]
            for name, row in held:
                samples = row.samples
                row.hist.absorb(samples)
                if name is not None:
                    (latency.get(name) or latency.setdefault(name, Histogram(name))).absorb(samples)
                del samples[:]
            held.clear()
        self._waiting = 0

    def set_budget(self, budget) -> None:
        """Install (or clear) the admission budget for would-shed flags."""
        with self._lock:
            self._drain()  # what waits is judged by the budget it was taken under
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
            self.settle()  # the registry's histograms keep what was folded
            for rollup in self._by.values():
                rollup.clear()
            self._ring.clear()
            self._epoch = None
            self._tail.clear()
            self._ids.clear()
            self._indexed.clear()

    # -- reading: each view is one locked read of what fold() wrote ------------

    def _read(self, view: Callable[[], object]):
        """``view()`` under the lock, once what waits is folded: every
        view reads through here, so none sees a record another does not."""
        with self._lock:
            self._drain()
            return view()

    def series(self) -> Series:
        """The registry series (:data:`DERIVED`) read off the rows."""
        return self._read(lambda: {
            series: value for rollup in self._by.values()
            for series, value in rollup.series().items()
        })

    def report(self, top: int | None = 10, budget=None) -> dict:
        """Top consumers by principal/shape/operation plus budget and
        would-shed dry-run state (the ``GET /debug/resources`` payload).
        ``budget`` overrides the configured one for what-if evaluation —
        nothing is ever actually shed."""
        with self._lock:
            self._drain()
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
        return self._read(lambda: self._by["shape"].hottest(k))

    def tracked(self) -> tuple[int, int]:
        """``(shapes tracked, shapes pruned so far)`` — the coverage
        caveat of ``/debug/hot``."""
        return self._read(lambda: (len(self._by["shape"].rows), self._by["shape"].evicted))

    def slowest(self, name: str | None = None, limit: int | None = None) -> list[dict]:
        """Worst-span exemplars, slowest first; one operation or all
        merged.  Each is the span's ``to_dict`` plus its record's
        ``counter_deltas`` (``GET /debug/slow``)."""
        return self._read(lambda: [
            {**span.to_dict(), "counter_deltas": record.counter_deltas}
            for _, _, span, record in self._by["span"].slowest(name)[:limit]
        ])

    def operations(self) -> list[str]:
        """Every span name with at least one exemplar."""
        return self._read(lambda: sorted(self._by["span"].rows))

    def window(self, key: str | None = None) -> dict[str, Histogram]:
        """Span name -> its latency over the last :data:`WINDOW_S`
        seconds as one histogram (names with no samples left out)."""
        with self._lock:
            self.settle()
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
        with self._lock:  # filled as records come: nothing to fold first
            return list(self._tail)

    def _index(self) -> None:
        """Bring the id index up to the tail (caller holds the lock):
        drop the entries that left it, index those that joined it since
        the last lookup — the fold itself indexes nothing."""
        tail, indexed, ids = self._tail, self._indexed, self._ids
        oldest = tail[0].seq if tail else float("inf")
        while indexed and indexed[0][0] < oldest:
            for key in indexed.popleft()[1]:
                held = ids[key]
                del held[0]  # entries join in fold order, so leave in it
                if not held:
                    del ids[key]
        last = indexed[-1][0] if indexed else 0
        joined = list(itertools.takewhile(lambda record: record.seq > last, reversed(tail)))
        for record in reversed(joined):
            keys = set(_ids_of(record)) - {None}
            indexed.append((record.seq, keys))
            for key in keys:
                ids.setdefault(key, []).append(record)

    def _kept(self, key: str) -> list[RequestRecord]:
        """Every kept record of one request id or trace id, oldest
        first: the tail's, by the index, and the worst-N and failure
        slots' — a lookup costs the records folded since the last one
        and the slots, not the tail."""
        with self._lock:
            self._drain()
            self._index()
            kept = {record.seq: record for record in self._ids.get(key, ())}
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
