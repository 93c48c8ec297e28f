"""One record per unit of work, one fold into one keyed table.

A *unit of work* is whatever opens the outermost span or billable
ledger of an execution context: ``Router.dispatch`` (or the client span
around it), a bare ``TVDP.answer`` / ``execute_many`` / ``upload_image``,
a span-less ``ledger_scope(table=obs.usage())``.  While it runs its
:class:`Unit` rides a ``contextvars`` variable and everything inside
closes *into* it without a lock: a finished span is appended, a billable
ledger becomes (or adds to) the bill, the platform notes the queries it
ran, the router notes the request.  When the unit ends, one
:class:`RequestRecord` is built and folded **once, under one lock**, by
:meth:`RecordStore.fold` — the only writer of

(a) a :class:`Rollup` per key space (span name, query shape, principal,
    operation): one row shape where the hot-query table, the usage
    tables and the slow-span log each kept their own;
(b) the :class:`TimeRing`: 5-second slots of one latency
    :class:`~repro.obs.metrics.Histogram` per span name and the spend
    per principal — one ``percentile``, one bucket clock;
(c) the registry's ``span.duration_ms`` / ``spans.*`` / ``api.*`` /
    ``platform.queries`` / ``usage.*``, through handles interned per key;
(d) a ring of the records themselves.

``/stats``, ``/health`` and ``/debug/*`` are reads of (a)-(d) under that
same lock, which is why they cannot disagree.
"""

from __future__ import annotations

import contextvars
import threading
import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.metrics import Histogram, MetricsRegistry

#: The open unit of work of the current execution context.
_open: contextvars.ContextVar["Unit | None"] = contextvars.ContextVar(
    "tvdp_unit", default=None
)


#: ``current_unit()``: the open unit of work of the current execution
#: context, or ``None`` — the variable's own getter, no frame of ours.
current_unit = _open.get


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
        """Registry counters that moved while the unit was open (its own
        fold, which comes after, is not among them; ``spans.*``
        bookkeeping of units that closed meanwhile is left out)."""
        if self.counters is None:
            return {}
        registry, before, after = self.counters
        deltas = registry.counter_deltas(before, after)
        return {k: v for k, v in deltas.items() if not k.startswith("spans.")}

    def to_dict(self) -> dict:
        """JSON-compatible form (the ``GET /debug/request/{id}`` body)."""
        body = {name: getattr(self, name) for name in self.__slots__}
        del body["counters"]
        body["queries"] = [dict(zip(("shape", "family", "ms"), q)) for q in self.queries]
        body["spans"] = [span.to_dict() for span in self.spans]
        body["counter_deltas"] = self.counter_deltas
        return body


class Unit:
    """A unit of work while it is open: what closes into it, lock-free
    (one execution context owns it, like an open span), until
    :meth:`close` builds the :class:`RequestRecord` and folds it.

    ``with Unit(store):`` runs a block as a unit of its own, folded when
    the block ends and not when an enclosing unit does (EXPLAIN ANALYZE
    reads the counters its execution moved); spans inside keep their
    parents, so the trace tree is unbroken."""

    __slots__ = ("spans", "queries", "ledger", "request", "counters", "store",
                 "_token", "_t0")

    def __init__(self, store: "RecordStore") -> None:
        self.spans: list = []
        self.queries: list[tuple] = []
        self.ledger = None  # the bill: the first billable ResourceLedger
        #: ``(request_id, method, route, status, http.request span)``.
        self.request: tuple | None = None
        #: Counter snapshot the tracer takes when the unit's first span
        #: opens: deltas say why a span was slow, so they bracket spans.
        self.counters = None
        self.store = store
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
        store, spans, queries, ledger = self.store, self.spans, self.queries, self.ledger
        duration_ms = (time.perf_counter() - self._t0) * 1e3
        request_id = method = route = status = error = operation = principal = None
        request_ms, cost, charges, counters = 0.0, 0.0, {}, None
        if self.request is not None:
            request_id, method, route, status, span = self.request
            error, request_ms = span.error, span.duration_ms
            operation = f"{method} {route}"
        if ledger is not None:
            principal, charges, cost = ledger.principal, ledger.charges, ledger.cost()
            operation = operation or ledger.operation
            if ledger.shape and not queries:
                queries = [(ledger.shape, None, duration_ms)]
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


def _by_slowest(exemplar: dict) -> float:
    return -exemplar["duration_ms"]


class _Row:
    """One key's aggregates (see :class:`Rollup`)."""

    __slots__ = ("count", "total_ms", "max_ms", "last_ms", "cost", "charges",
                 "exemplar", "worst")

    def __init__(self) -> None:
        self.count = 0
        self.total_ms = self.max_ms = self.last_ms = self.cost = 0.0
        self.charges: dict[str, float] = {}
        self.exemplar: dict | None = None  # {"cost", "trace_id"} of the costliest
        self.worst: list[dict] = []  # slowest first, at most Rollup.worst


class Rollup:
    """Keyed aggregates over folded records: ``count, total_ms, max_ms,
    last_ms, cost, charges``, the worst unit by cost and the worst-N by
    time — one row shape for every key space, so two views of one key
    space read the same row.

    Bounded: the table grows to twice ``capacity`` and is then pruned
    back to ``capacity`` by (count, total time), ties broken on the key:
    a tail of one-off keys cannot grow memory without bound and a hot
    key is never evicted.  Not locked: the store calls it with its lock
    held.
    """

    def __init__(self, capacity: int = 64, worst: int = 0) -> None:
        if capacity < 1 or worst < 0:
            raise ValueError(f"need capacity >= 1 and worst >= 0, got {capacity}/{worst}")
        self.capacity, self.worst = capacity, worst
        self.rows: dict[str, _Row] = {}
        self.evicted = 0

    def time(self, key: str, ms: float) -> _Row:
        """Count one unit of ``ms`` under ``key``; returns its row."""
        row = self.rows.get(key)
        if row is None:
            row = self._new_row(key)
        row.count += 1
        row.total_ms += ms
        row.last_ms = ms
        if ms > row.max_ms:
            row.max_ms = ms
        return row

    def add(
        self, key: str, ms: float, cost: float = 0.0, charges: dict | None = None,
        share: float = 1.0, trace_id: str | None = None,
    ) -> None:
        """:meth:`time`, and the unit's bill beside it.  ``share``
        scales ``charges`` (a batch bills each query its share)."""
        row = self.time(key, ms)
        row.cost += cost
        if charges:
            mine = row.charges
            for kind, amount in charges.items():
                mine[kind] = mine.get(kind, 0.0) + amount * share
        if trace_id is not None and (
            row.exemplar is None or cost > row.exemplar["cost"]
        ):
            row.exemplar = {"cost": cost, "trace_id": trace_id}

    def keep_worst(self, row: _Row, exemplar: dict) -> None:
        """File ``exemplar`` among ``row``'s worst-N, slowest first and
        behind its equals; the N+1-th drops off.  Only for a unit slower
        than the N-th kept (or with fewer kept): a tie stays out."""
        worst = row.worst
        at = bisect_right(worst, -exemplar["duration_ms"], key=_by_slowest)
        worst.insert(at, exemplar)
        del worst[self.worst:]

    def _new_row(self, key: str) -> _Row:
        """A row for a key not seen (or pruned) before; the one moment
        the table can outgrow its bound."""
        if len(self.rows) >= self.capacity * 2:
            ranked = sorted(
                self.rows.items(),
                key=lambda item: (-item[1].count, -item[1].total_ms, item[0]),
            )
            self.evicted += len(ranked) - self.capacity
            self.rows = dict(ranked[: self.capacity])
        row = self.rows[key] = _Row()
        return row

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

    def slowest(self, key: str | None = None) -> list[dict]:
        """Worst-N exemplars of one key, or of all keys merged, slowest
        first."""
        rows = self.rows.values() if key is None else filter(None, [self.rows.get(key)])
        return sorted(
            (record for row in rows for record in row.worst), key=_by_slowest
        )

    def clear(self) -> None:
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


#: What the fold writes to the registry, by what keys it: the handles
#: are interned per key (``RecordStore._intern``) because a registry
#: lookup sorts a label dict every call.
_METRICS: dict[str, Callable] = {
    "span": lambda r, name: (
        r.histogram("span.duration_ms", {"span": name}),
        r.counter("spans.total", {"span": name}),
        r.counter("spans.errors", {"span": name}),
    ),
    "family": lambda r, family: r.counter("platform.queries", {"family": family}),
    "route": lambda r, method, route, status: (
        r.counter(
            "api.requests", {"method": method, "route": route, "status": str(status)}
        ),
        r.histogram("api.request_ms", {"method": method, "route": route}),
    ),
    # The last is the principal's counter per charge kind, filled as
    # kinds are first seen.
    "principal": lambda r, principal: (
        r.counter("usage.requests", {"principal": principal}),
        r.counter("usage.cost", {"principal": principal}),
        r.gauge("usage.rolling_cost", {"principal": principal}),
        r.counter("usage.would_shed", {"principal": principal}),
        {},
    ),
}


class RecordStore:
    """The keyed table every view reads; :meth:`fold` is its one writer.

    ``registry`` (optional) receives the metrics a record implies;
    ``budget`` turns rolling spend into *would-shed* dry-run flags;
    ``clock`` (seconds, monotone) is injectable for deterministic
    window and budget tests.  ``ledger_scope(table=store)`` and
    ``Tracer(store)`` open units that fold here; ``obs.records()`` is
    the process-wide one.
    """

    #: Records (and so traces) kept for ``/debug/request|trace``.
    RECORDS = 1024
    #: Worst spans kept per operation name for ``/debug/slow``.
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
        #: One rollup per key space.
        self._by: dict[str, Rollup] = {
            "span": Rollup(capacity=512, worst=self.SLOW_PER_OP),
            "shape": Rollup(capacity=64),
            "principal": Rollup(capacity=4096),
            "operation": Rollup(capacity=512),
        }
        self._ring = TimeRing(clock)
        self._records: deque[RequestRecord] = deque(maxlen=self.RECORDS)
        self._handles: dict[tuple, object] = {}  # survive reset(), as the registry's do
        #: Finished spans are streamed here after the fold (JSONL).
        self.exporters: tuple = ()

    # -- writing -------------------------------------------------------------

    def record(self, shape: str, duration_ms: float, family: str | None = None) -> None:
        """Count one execution of ``shape`` outside any unit of work."""
        self.fold(RequestRecord(queries=((shape, family, float(duration_ms)),)))

    def _intern(self, key: tuple):
        """The registry handles of ``(group, *labels)``, made on the
        first miss of ``_handles`` and kept (caller holds the lock)."""
        handles = self._handles[key] = _METRICS[key[0]](self.registry, *key[1:])
        return handles

    def fold(self, record: RequestRecord) -> None:
        """Fold one finished unit of work into every view — the one
        write path of the rollups, the ring and the record buffer."""
        metered = self.registry is not None
        by, handles, intern = self._by, self._handles, self._intern
        principal, cost, charges = record.principal, record.cost, record.charges
        trace_id = record.trace_id
        with self._lock:
            latency, spend = self._ring.current()
            by_span = by["span"]
            keep = by_span.worst
            for span in record.spans:
                name, ms = span.name, span.duration_ms
                row = by_span.time(name, ms)
                worst = row.worst
                if len(worst) < keep or ms > worst[-1]["duration_ms"]:
                    by_span.keep_worst(row, {
                        **span.to_dict(), "counter_deltas": record.counter_deltas,
                    })
                (latency.get(name) or latency.setdefault(name, Histogram(name))).observe(ms)
                if metered:
                    duration, total, errors = (
                        handles.get(("span", name)) or intern(("span", name))
                    )
                    duration.observe(ms)
                    total.inc()
                    if span.status == "error":
                        errors.inc()
            # One query carries the whole bill; a batch splits it evenly.
            share = 1.0 / max(len(record.queries), 1)
            for shape, family, ms in record.queries:
                by["shape"].add(shape, ms, cost * share, charges, share, trace_id)
                if metered and family is not None:
                    (handles.get(("family", family)) or intern(("family", family))).inc()
            if principal is not None:
                ms = record.duration_ms
                by["principal"].add(principal, ms, cost, charges, 1.0, trace_id)
                if record.operation:
                    by["operation"].add(record.operation, ms, cost, charges, 1.0, trace_id)
                spend[principal] = spend.get(principal, 0.0) + cost
                if metered:
                    self._bill_metrics(record)
            if metered and record.route is not None:
                key = ("route", record.method, record.route, record.status)
                requests, request_ms = handles.get(key) or intern(key)
                requests.inc()
                request_ms.observe(record.request_ms)
            # Kept: what /debug/trace and /debug/request can look up.
            if record.spans or record.request_id is not None:
                self._records.append(record)
        for exporter in self.exporters:
            for span in record.spans:
                exporter.export(span)

    def _bill_metrics(self, record: RequestRecord) -> None:
        """``usage.*`` of one billed record (caller holds the lock)."""
        principal, budget = record.principal, self._budget
        key = ("principal", principal)
        requests, cost, rolling, shed, kinds = self._handles.get(key) or self._intern(key)
        requests.inc()
        cost.inc(record.cost)
        for kind, amount in record.charges.items():
            counter = kinds.get(kind)
            if counter is None:
                name = "usage.index_probes" if kind.startswith("probes.") else f"usage.{kind}"
                counter = kinds[kind] = self.registry.counter(
                    name, {"principal": principal}
                )
            counter.inc(amount)
        if budget is not None:
            spent = self._ring.spent(principal, budget.window_s)
            rolling.set(spent)
            if spent > budget.cost_per_window:
                shed.inc()

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
        """Drop every view's contents (benchmark isolation); the budget,
        the exporters and the interned metric handles survive."""
        with self._lock:
            for rollup in self._by.values():
                rollup.clear()
            self._ring.clear()
            self._records.clear()

    # -- reading: each view is one locked read of what fold() wrote ------------

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
            return self._by["span"].slowest(name)[:limit]

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
        """Folded records, oldest first."""
        with self._lock:
            return list(self._records)

    def request(self, request_id: str) -> RequestRecord | None:
        """The record of one API request, while it is in the ring."""
        return next(
            (r for r in reversed(self.records()) if r.request_id == request_id), None
        )

    def spans(self, name: str | None = None, trace_id: str | None = None) -> list:
        """Finished spans of the ring's records, oldest first, optionally
        of one name and/or one trace."""
        return [
            span
            for record in self.records()
            for span in record.spans
            if (name is None or span.name == name)
            and (trace_id is None or span.trace_id == trace_id)
        ]
