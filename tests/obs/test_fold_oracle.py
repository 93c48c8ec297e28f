"""The record store against the eager fold it replaced, request by request.

A drawn sequence of real requests — all six query families and their
answer-cache hits, a 400, a 404, a 405, a 5xx from a handler that
raises, a search carrying a ``traceparent``, the open routes and
``/debug/*`` reads — is served with ``repro.obs`` pointed at a store of
the test's own.  Every record that store folds is folded a second time
into :class:`EagerStore` below: the eager fold as it stood before spans
were kept flat and samples bucketed a slot at a time (each sample into
the row's histogram, the slot's histogram and, for a request, the
route's, one by one; an ``operation`` rollup beside the ``route`` one;
an id index written on every fold).  Both run on one injected clock.
Whenever the sequence says so, and at its end, every view must read
the same: the ``/metrics`` series the fold derives, ``report()``,
``top()``, ``slowest()``, ``window_summaries()``, the latency
summaries, ``health()``, ``request(id)`` and ``spans(trace_id=...)``.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import sys
import threading
from bisect import bisect_left, bisect_right
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.api import Request
from repro.obs import slo
from repro.obs.accounting import Budget
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_MS, MetricsRegistry
from repro.obs.record import RecordStore
from tests.api import route_table

# -- the oracle: the eager fold, as it was --------------------------------------------


class EagerHistogram:
    """A time slot's histogram: every sample bucketed as it arrives."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.buckets = DEFAULT_LATENCY_BUCKETS_MS
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count, self.sum, self.min, self.max = 0, 0.0, math.inf, -math.inf

    def add_sample(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        at = bisect_left(self.buckets, value) if value == value else -1
        self.bucket_counts[at] += 1

    def merge(self, other: EagerHistogram) -> None:
        for i, in_bucket in enumerate(other.bucket_counts):
            self.bucket_counts[i] += in_bucket
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def percentile(self, q: float) -> float:
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.min
        rank, cumulative = q * self.count, 0
        for i, in_bucket in enumerate(self.bucket_counts):
            if in_bucket == 0:
                continue
            if cumulative + in_bucket >= rank:
                if i == len(self.buckets):
                    return self.max
                lower = self.buckets[i - 1] if i > 0 else 0.0
                upper = self.buckets[i]
                estimate = lower + (rank - cumulative) / in_bucket * (upper - lower)
                return min(max(estimate, self.min), self.max)
            cumulative += in_bucket
        return self.max

    def summary(self) -> dict:
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {"count": self.count, "sum": self.sum, "min": self.min, "max": self.max,
                "p50": self.percentile(0.50), "p95": self.percentile(0.95),
                "p99": self.percentile(0.99)}


def _by_slowest(exemplar: tuple) -> float:
    return -exemplar[0]


class Row:
    def __init__(self, hist) -> None:
        self.count = 0
        self.total_ms = self.max_ms = self.last_ms = self.cost = 0.0
        self.charges: dict = {}
        self.exemplar: dict | None = None
        self.worst: list = []
        self.failed: list = []
        self.tally: dict = {}
        self.hist = hist


class Rollup:
    def __init__(self, capacity=64, worst=0, derive=None, histogram=None) -> None:
        self.capacity, self.worst = capacity, worst
        self.derive, self.histogram = derive, histogram
        self.rows: dict = {}
        self.evicted = 0
        self.rest: dict = {}

    def observe(self, key, ms: float) -> Row:
        row = self.rows.get(key) or self._new_row(key)
        row.count += 1
        row.hist.observe(ms)
        return row

    def add(self, key, ms, cost=0.0, charges=None, share=1.0, trace_id=None) -> Row:
        row = self.rows.get(key) or self._new_row(key)
        row.count += 1
        row.total_ms += ms
        row.last_ms = ms
        if ms > row.max_ms:
            row.max_ms = ms
        row.cost += cost
        if charges:
            for kind, amount in charges.items():
                row.charges[kind] = row.charges.get(kind, 0.0) + amount * share
        if trace_id is not None and (row.exemplar is None or cost > row.exemplar["cost"]):
            row.exemplar = {"cost": cost, "trace_id": trace_id}
        return row

    def keep_worst(self, row: Row, exemplar: tuple) -> None:
        worst = row.worst
        worst.insert(bisect_right(worst, -exemplar[0], key=_by_slowest), exemplar)
        del worst[2 * self.worst:]

    def _new_row(self, key) -> Row:
        if len(self.rows) >= self.capacity * 2:
            ranked = sorted(
                self.rows.items(),
                key=lambda item: (-item[1].count, -item[1].total_ms, item[0]),
            )
            self.evicted += len(ranked) - self.capacity
            for gone, row in ranked[self.capacity:]:
                self._series_into(self.rest, gone, row)
            self.rows = dict(ranked[: self.capacity])
        row = self.rows[key] = Row(self.histogram(key) if self.histogram else None)
        return row

    def _series_into(self, out: dict, key, row: Row) -> None:
        for kind, name, labels, value in self.derive(key, row) if self.derive else ():
            series = (kind, name, labels)
            out[series] = value if kind == "gauge" else out.get(series, 0.0) + value

    def series(self) -> dict:
        out = dict(self.rest)
        for key, row in self.rows.items():
            self._series_into(out, key, row)
        return out

    def hottest(self, k: int) -> list[dict]:
        ranked = sorted(self.rows.items(), key=lambda item: (-item[1].count, item[0]))
        return [
            {"shape": key, "count": row.count, "total_ms": round(row.total_ms, 3),
             "mean_ms": round(row.total_ms / row.count, 3), "max_ms": round(row.max_ms, 3),
             "last_ms": round(row.last_ms, 3)}
            for key, row in ranked[:k]
        ]

    def costliest(self, top) -> list[dict]:
        ranked = sorted(self.rows.items(), key=lambda item: (-item[1].cost, item[0]))
        return [
            {"key": key, "count": row.count, "cost": round(row.cost, 6),
             "charges": {k: round(v, 6) for k, v in sorted(row.charges.items())},
             "exemplar": row.exemplar}
            for key, row in ranked[:top]
        ]

    def slowest(self, key=None) -> list[tuple]:
        rows = self.rows.values() if key is None else filter(None, [self.rows.get(key)])
        return sorted(
            (entry for row in rows for entry in row.worst[: self.worst]), key=_by_slowest
        )


class TimeRing:
    SLOT_S, WINDOW_S, KEEP = 5.0, 60.0, 240

    def __init__(self, clock) -> None:
        self._now = clock
        self._slots: dict = {}

    def current(self) -> tuple:
        epoch = int(self._now() // self.SLOT_S)
        slot = self._slots.get(epoch)
        if slot is None:
            slot = self._slots[epoch] = ({}, {})
            for stale in [e for e in self._slots if e <= epoch - self.KEEP]:
                del self._slots[stale]
        return slot

    def _live(self, window_s: float) -> list:
        floor = int(self._now() // self.SLOT_S) - max(1, round(window_s / self.SLOT_S))
        return [slot for epoch, slot in self._slots.items() if epoch > floor]

    def latency(self, key=None) -> dict:
        merged: dict = {}
        for latency, _ in self._live(self.WINDOW_S):
            for name, histogram in latency.items():
                if key is None or name == key:
                    merged.setdefault(name, EagerHistogram(name)).merge(histogram)
        return merged

    def spent(self, principal: str, window_s: float) -> float:
        return sum(spend.get(principal, 0.0) for _, spend in self._live(window_s))


def _span_series(name, row):
    labels = (("span", name),)
    yield "counter", "spans.total", labels, row.count
    yield "counter", "spans.errors", labels, row.tally.get("error", 0)


def _shape_series(shape, row):
    for family, queries in row.tally.items():
        yield "counter", "platform.queries", (("family", family),), queries


def _route_series(key, row):
    method, route = key
    for status, requests in row.tally.items():
        labels = (("method", method), ("route", route), ("status", str(status)))
        yield "counter", "api.requests", labels, requests


def _principal_series(principal, row):
    labels = (("principal", principal),)
    yield "counter", "usage.requests", labels, row.count
    yield "counter", "usage.cost", labels, row.cost
    yield "gauge", "usage.rolling_cost", labels, row.tally.get("rolling", 0.0)
    yield "counter", "usage.would_shed", labels, row.tally.get("shed", 0)
    for kind, amount in row.charges.items():
        name = "usage.index_probes" if kind.startswith("probes.") else f"usage.{kind}"
        yield "counter", name, labels, amount


def _ids_of(record) -> tuple:
    request_id, trace_id = record.request_id, record.trace_id
    for span in record.spans:
        if span.trace_id != trace_id:
            return (request_id, *{span.trace_id for span in record.spans})
    return (request_id, trace_id)


class EagerStore:
    """The eager fold and the views over it."""

    RECORDS, SLOW_PER_OP, WINDOW_S = 1024, 8, 60.0

    def __init__(self, registry: MetricsRegistry, budget, clock) -> None:
        self.registry, self._budget = registry, budget
        self._lock = threading.Lock()
        hist = registry.histogram
        self._by = {
            "span": Rollup(512, self.SLOW_PER_OP, _span_series,
                           lambda name: hist("span.duration_ms", {"span": name})),
            "shape": Rollup(64, derive=_shape_series),
            "principal": Rollup(4096, derive=_principal_series),
            "operation": Rollup(512),
            "route": Rollup(512, derive=_route_series, histogram=lambda key: hist(
                "api.request_ms", {"method": key[0], "route": key[1]})),
        }
        self._ring = TimeRing(clock)
        self._folds = itertools.count(1)
        self._tail: deque = deque()
        self._ids: dict = {}
        registry.derive(("spans.total", "spans.errors", "platform.queries",
                         "api.requests", "usage."), self)

    def fold(self, record) -> None:
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
                latency.setdefault(name, EagerHistogram(name)).add_sample(ms)
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
            if record.spans or record.request_id is not None:
                self._keep((seq, record))

    def _keep(self, entry: tuple) -> None:
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

    def series(self) -> dict:
        with self._lock:
            out: dict = {}
            for rollup in self._by.values():
                out.update(rollup.series())
            return out

    def report(self, top=10) -> dict:
        with self._lock:
            effective = self._budget
            window_s = effective.window_s if effective else self.WINDOW_S
            rolling = {p: self._ring.spent(p, window_s) for p in sorted(self._by["principal"].rows)}
            return {
                "by_principal": self._by["principal"].costliest(top),
                "by_shape": self._by["shape"].costliest(top),
                "by_operation": self._by["operation"].costliest(top),
                "budget": effective and {
                    "cost_per_window": effective.cost_per_window,
                    "window_s": effective.window_s, "overridden": False,
                },
                "rolling_cost": {p: round(spent, 6) for p, spent in rolling.items()},
                "would_shed": [
                    p for p, spent in rolling.items()
                    if effective and spent > effective.cost_per_window
                ],
            }

    def top(self, k=10) -> list[dict]:
        with self._lock:
            return self._by["shape"].hottest(k)

    def slowest(self, name=None, limit=None) -> list[dict]:
        with self._lock:
            return [
                {**span.to_dict(), "counter_deltas": record.counter_deltas}
                for _, _, span, record in self._by["span"].slowest(name)[:limit]
            ]

    def window(self, key=None) -> dict:
        with self._lock:
            return self._ring.latency(key)

    def window_summaries(self) -> dict:
        return {
            name: {**histogram.summary(), "window_s": self.WINDOW_S}
            for name, histogram in sorted(self.window().items())
        }

    def _kept(self, key: str) -> list:
        with self._lock:
            held = self._ids.get(key)
            kept = dict(held if type(held) is list else [held] if held else ())
            for row in self._by["span"].rows.values():
                for _, seq, span, record in (*row.worst, *row.failed):
                    if key in (record.request_id, record.trace_id, span.trace_id):
                        kept[seq] = record
        return [kept[seq] for seq in sorted(kept)]

    def request(self, request_id: str):
        return next(
            (r for r in reversed(self._kept(request_id)) if r.request_id == request_id), None
        )

    def spans(self, trace_id: str) -> list:
        return [
            span for record in self._kept(trace_id) for span in record.spans
            if span.trace_id == trace_id
        ]


# -- the request sequence ---------------------------------------------------------------

FAMILIES = ("spatial", "visual", "categorical", "textual", "temporal", "hybrid")
REMOTE = obs.TraceContext("tfeedface", "sbeadfeed")

STEPS = st.one_of(
    st.tuples(st.just("search"), st.sampled_from(FAMILIES)),
    st.tuples(st.just("traced"), st.sampled_from(FAMILIES)),
    st.tuples(st.just("refused"), st.sampled_from(["400", "404", "405", "500"])),
    st.tuples(st.just("open"), st.sampled_from(["/health", "/metrics"])),
    st.tuples(st.just("debug"), st.sampled_from(["slow", "hot", "resources", "trace", "request"])),
    st.tuples(st.just("tick"), st.sampled_from([0.4, 3.0, 7.0, 61.0])),
    st.tuples(st.just("compare")),
)


class Clock:
    def __init__(self) -> None:
        self.t = 1_000.0

    def now(self) -> float:
        return self.t


@pytest.fixture(scope="module")
def table():
    harness = route_table.harness()
    harness.service.router.add("POST", "/raises", lambda request: 1 / 0)
    return harness


@contextlib.contextmanager
def served_into(store: RecordStore, registry: MetricsRegistry):
    """Point ``repro.obs``'s process-wide store and registry at these."""
    saved = obs._store, obs._registry
    obs._store, obs._registry = store, registry
    try:
        yield
    finally:
        obs._store, obs._registry = saved


def _send(table, step, folded) -> None:
    kind, what = step[0], step[1] if len(step) > 1 else None
    key = table.api_key
    if kind == "search":
        assert table.call("POST", "/search", route_table.query_body(what)).status == 200
    elif kind == "traced":
        header = obs.format_traceparent(REMOTE)
        request = Request("POST", "/search", body=route_table.query_body(what), api_key=key,
                          headers={"traceparent": header})
        assert table.service.handle(request).status == 200
    elif kind == "refused":
        method, path, body = {
            "400": ("POST", "/search", {"type": "warp"}),
            "404": ("GET", "/nope", None),
            "405": ("DELETE", "/search", None),
            "500": ("POST", "/raises", {}),
        }[what]
        assert table.call(method, path, body).status == int(what)
    elif kind == "open":
        assert table.service.handle(Request("GET", what)).status in (200, 503)
    elif kind == "debug":
        ids = [r for r in folded if r.request_id]
        path = {
            "slow": "/debug/slow", "hot": "/debug/hot", "resources": "/debug/resources",
            "trace": f"/debug/trace/{ids[-1].trace_id if ids else 'tnone'}",
            "request": f"/debug/request/{ids[0].request_id if ids else 'req-none'}",
        }[what]
        assert table.call("GET", path).status in (200, 404)


#: The ``/metrics`` families the fold writes; the rest are pushed.
FOLDED = ("tvdp_spans_", "tvdp_platform_queries", "tvdp_api_requests", "tvdp_usage_",
          "tvdp_span_duration_ms", "tvdp_api_request_ms")


def _folded_series(registry: MetricsRegistry) -> dict:
    """The fold's ``/metrics`` samples, histograms with samples only (a
    health check makes empty ones for its objectives on either side)."""
    samples = dict(
        line.rsplit(" ", 1) for line in registry.render_prometheus().splitlines()
        if line.startswith(FOLDED)
    )

    def histogram_of(series: str) -> tuple:
        name, _, labels = series.partition("{")
        labels = [part for part in labels.removesuffix("}").split(",") if not part.startswith("le=")]
        return name.removesuffix("_bucket").removesuffix("_sum").removesuffix("_count"), labels

    empty = [histogram_of(s) for s, v in samples.items()
             if s.partition("{")[0].endswith("_count") and v == "0"]
    return {s: v for s, v in samples.items() if histogram_of(s) not in empty}


def _latency_summaries(registry: MetricsRegistry) -> dict:
    return {
        dict(h.labels)["span"]: h.summary()
        for h in registry.histograms("span.duration_ms") if h.count
    }


def _assert_same_views(store: RecordStore, eager: EagerStore, folded: list) -> None:
    # Health first: nothing has read (and so bucketed) what is held yet.
    assert (slo.evaluate(store.registry, windows=store)
            == slo.evaluate(eager.registry, windows=eager))
    assert _folded_series(store.registry) == _folded_series(eager.registry)
    assert store.report() == eager.report()
    assert store.top() == eager.top()
    assert store.slowest() == eager.slowest()
    assert store.window_summaries() == eager.window_summaries()
    assert _latency_summaries(store.registry) == _latency_summaries(eager.registry)
    for record in (*folded[:3], *folded[-20:]):
        if record.request_id is not None:
            assert store.request(record.request_id) is eager.request(record.request_id)
        trace_id = record.trace_id
        if trace_id is not None:
            assert store.spans(trace_id=trace_id) == eager.spans(trace_id)
    assert store.spans(trace_id=REMOTE.trace_id) == eager.spans(REMOTE.trace_id)


#: Every kind of step at least once: each family three times, so the
#: answer cache serves the third; slots that turn and a window that
#: empties.
EVERY_STEP = [
    *[("search", family) for family in FAMILIES for _ in range(3)],
    ("traced", "temporal"), ("compare",), ("tick", 7.0),
    *[("refused", status) for status in ("400", "404", "405", "500")],
    ("open", "/health"), ("open", "/metrics"), ("tick", 3.0),
    *[("debug", view) for view in ("slow", "hot", "resources", "trace", "request")],
    ("compare",), ("tick", 61.0), ("search", "visual"), ("tick", 0.4),
    ("search", "spatial"), ("tick", 61.0), ("compare",),
]


@settings(max_examples=60, deadline=None, derandomize=True)
@example(steps=EVERY_STEP)
@given(steps=st.lists(STEPS, min_size=1, max_size=40))
def test_every_view_reads_what_the_eager_fold_read(table, steps):
    clock = Clock()
    budget = Budget(cost_per_window=40.0, window_s=30.0)
    store = RecordStore(registry=MetricsRegistry(), budget=budget, clock=clock.now)
    eager = EagerStore(MetricsRegistry(), budget, clock.now)
    folded: list = []

    def both(record) -> None:
        RecordStore.fold(store, record)
        eager.fold(record)
        folded.append(record)

    store.fold = both
    with served_into(store, store.registry):
        for step in steps:
            if step[0] == "tick":
                clock.t += step[1]
            elif step[0] == "compare":
                _assert_same_views(store, eager, folded)
            else:
                _send(table, step, folded)
                clock.t += 0.01
        _assert_same_views(store, eager, folded)
    assert obs.current_unit() is None


def test_folds_and_reads_from_many_threads_lose_no_sample():
    """Folds hold their samples back and reads settle them, from many
    threads at once with a short switch interval: every sample lands
    exactly once, in the registry's histogram and in the window."""
    clock = Clock()
    store = RecordStore(registry=MetricsRegistry(), clock=clock.now)
    writers, per_writer = 6, 300
    barrier = threading.Barrier(writers + 2)

    def write(n: int) -> None:
        barrier.wait()
        for i in range(per_writer):
            with obs.Unit(store), obs.span("op", n=n):
                obs.note_request(f"req-{n}-{i}", "GET", "/op", 200, obs.current_span())

    def read() -> None:
        barrier.wait()
        for _ in range(40):
            store.window_summaries()
            store.registry.render_prometheus()
            store.request("req-0-0")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write, args=(n,)) for n in range(writers)]
        threads += [threading.Thread(target=read) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    total = writers * per_writer
    assert store.registry.histogram("span.duration_ms", {"span": "op"}).percentile(0.5) > 0
    assert store.registry.histogram("span.duration_ms", {"span": "op"}).count == total
    assert store.window("op")["op"].count == total
    [route] = store.registry.histograms("api.request_ms")
    assert route.count == total
    assert store.registry.counter_values()['spans.total{span="op"}'] == total
