"""Span-based tracing with ``contextvars`` parent/child propagation.

``span("query.spatial", attrs...)`` opens a timed unit of work; spans
started inside it become children, so one API request produces a tree
(request -> platform -> index) that the ring-buffer exporter can
reassemble.  Span names follow the ``<service>.<operation>`` convention
documented in ``docs/observability.md``.

Finished spans are fanned out to exporters (in-memory ring buffer by
default, JSON-lines file on request) and — when the tracer is wired to
a :class:`~repro.obs.metrics.MetricsRegistry` — recorded as
``span.duration_ms{span=<name>}`` latency histograms plus
``spans.total``/``spans.errors`` counters.  That single wiring is what
lets ``GET /metrics`` report latency summaries for every instrumented
operation without separate timing code.

Exporters that also define an ``on_start(span)`` method are called when
a span *opens* — the slow-span exemplar log in ``repro.obs.profiling``
uses this to snapshot counters before the work runs, so it can report
probe-counter deltas per slow span.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.metrics import MetricsRegistry

_ids = itertools.count(1)
_id_lock = threading.Lock()

#: The innermost open span of the current execution context.
_current_span: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "tvdp_current_span", default=None
)


def _next_id(prefix: str) -> str:
    with _id_lock:
        return f"{prefix}{next(_ids):08x}"


def current_span() -> "Span | None":
    """The active span, if any (used by the structured logger)."""
    return _current_span.get()


@dataclass(frozen=True)
class TraceContext:
    """The W3C-style propagation payload: which trace, which parent.

    This is the *only* state that crosses a process/HTTP/device
    boundary — a frozen two-field record.
    """

    trace_id: str
    span_id: str


#: Version prefix / flags of the ``traceparent`` header we emit.  The
#: real W3C format is ``00-<32 hex>-<16 hex>-<flags>``; our ids keep
#: their native ``t…``/``s…`` shape (no dashes, so parsing is exact).
_TRACEPARENT_VERSION = "00"
_TRACEPARENT_FLAGS = "01"


def format_traceparent(context: TraceContext) -> str:
    """``traceparent`` header value for a trace context."""
    return (
        f"{_TRACEPARENT_VERSION}-{context.trace_id}-"
        f"{context.span_id}-{_TRACEPARENT_FLAGS}"
    )


def parse_traceparent(header: object) -> TraceContext | None:
    """Inverse of :func:`format_traceparent`; ``None`` on anything
    malformed (a bad header must never fail the request it rode in on)."""
    if not isinstance(header, str):
        return None
    parts = header.strip().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id, _flags = parts
    if version != _TRACEPARENT_VERSION or not trace_id or not span_id:
        return None
    return TraceContext(trace_id=trace_id, span_id=span_id)


def current_traceparent() -> str | None:
    """``traceparent`` header for the active span, if one is open."""
    span = _current_span.get()
    if span is None:
        return None
    return format_traceparent(TraceContext(span.trace_id, span.span_id))


@dataclass
class Span:
    """One timed operation; mutable while open, exported when closed."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    attrs: dict = field(default_factory=dict)
    start_time: float = 0.0  # epoch seconds
    duration_ms: float = 0.0
    status: str = "ok"
    error: str | None = None
    #: Names of the ancestors, root first (computed at open time, when
    #: the parent chain is still alive — parents *finish* after their
    #: children, so it cannot be rebuilt from finished spans alone).
    ancestry: tuple[str, ...] = ()

    def set(self, key: str, value: object) -> None:
        """Attach/overwrite one attribute.

        A span is owned by the single execution context that opened it
        until :meth:`Tracer.span` closes it, so attribute writes need
        no lock.
        """
        self.attrs[key] = value  # devtools: allow[thread-escape]

    def to_dict(self) -> dict:
        """JSON-compatible record of a finished span."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_time": self.start_time,
            "duration_ms": self.duration_ms,
            "status": self.status,
            "error": self.error,
            "attrs": dict(self.attrs),
            "ancestry": list(self.ancestry),
        }


class RingBufferExporter:
    """Keeps the most recent finished spans in memory for inspection.

    Spans finish on whichever thread ran them, so the buffer is
    lock-protected (deque appends are GIL-atomic today, but the lock
    also makes :meth:`spans` snapshots consistent and is what the
    ``thread-escape`` lint can verify statically).
    """

    def __init__(self, capacity: int = 4096) -> None:
        self._spans: deque[Span] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def export(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def spans(self, name: str | None = None) -> list[Span]:
        """Finished spans, oldest first, optionally filtered by name."""
        with self._lock:
            buffered = list(self._spans)
        if name is None:
            return buffered
        return [s for s in buffered if s.name == name]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def span_tree(self, trace_id: str | None = None) -> list[dict]:
        """Nested parent/child view of buffered spans.

        Returns the root spans (no parent in the buffer) of the given
        trace — or of every trace — each with a ``children`` list,
        depth-first in completion order.
        """
        return span_tree(
            [s for s in self.spans() if trace_id is None or s.trace_id == trace_id]
        )


def span_tree(spans: list[Span]) -> list[dict]:
    """Build nested dicts from flat finished spans (see ``Span.to_dict``;
    each node gains a ``children`` key)."""
    nodes = {s.span_id: {**s.to_dict(), "children": []} for s in spans}
    roots: list[dict] = []
    for s in spans:
        node = nodes[s.span_id]
        parent = nodes.get(s.parent_id) if s.parent_id else None
        if parent is not None:
            parent["children"].append(node)
        else:
            roots.append(node)
    return roots


class JsonlExporter:
    """Appends one JSON object per finished span to a file."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._file = open(self.path, "a", encoding="utf-8")
        self._lock = threading.Lock()

    def export(self, span: Span) -> None:
        line = json.dumps(span.to_dict(), sort_keys=True)
        # This lock exists precisely to serialise writes to the one
        # shared file handle; it nests inside nothing and nothing
        # nests inside it, so holding it across the write is the point.
        with self._lock:
            self._file.write(line + "\n")  # devtools: allow[lock-order] — see above
            self._file.flush()  # devtools: allow[lock-order] — see above

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()


class Tracer:
    """Opens spans, propagates parentage, exports on close.

    ``windows`` (a :class:`repro.obs.windows.RollingWindows`, duck-typed
    to avoid an import cycle) additionally receives every finished
    span's duration under its span name, giving rolling last-minute
    percentiles next to the cumulative histograms.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        exporters: list | None = None,
        windows: object | None = None,
    ) -> None:
        self.registry = registry
        self.windows = windows
        self.exporters: list = list(exporters or [])
        self._exporters_lock = threading.Lock()

    def add_exporter(self, exporter: object) -> None:
        with self._exporters_lock:
            self.exporters.append(exporter)

    def remove_exporter(self, exporter: object) -> None:
        with self._exporters_lock:
            if exporter in self.exporters:
                self.exporters.remove(exporter)

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        remote_parent: TraceContext | None = None,
        **attrs: object,
    ) -> Iterator[Span]:
        """Open a child of the current span (or a new trace root).

        ``remote_parent`` joins this span to a trace started elsewhere
        (an extracted ``traceparent`` header): with no local parent the
        span continues the remote trace instead of minting a new root.
        A live local parent wins — in-process nesting is already exact,
        and in the in-process client/server case both name the same
        parent span anyway.
        """
        parent = _current_span.get()
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
            ancestry: tuple[str, ...] = (*parent.ancestry, parent.name)
        elif remote_parent is not None:
            trace_id, parent_id = remote_parent.trace_id, remote_parent.span_id
            ancestry = ()
        else:
            trace_id, parent_id, ancestry = _next_id("t"), None, ()
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=_next_id("s"),
            parent_id=parent_id,
            attrs=dict(attrs),
            start_time=time.time(),
            ancestry=ancestry,
        )
        with self._exporters_lock:
            exporters = tuple(self.exporters)
        for exporter in exporters:
            on_start = getattr(exporter, "on_start", None)
            if on_start is not None:
                on_start(span)
        token = _current_span.set(span)
        t0 = time.perf_counter()
        try:
            yield span
        except Exception as exc:
            span.status = "error"
            span.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            span.duration_ms = (time.perf_counter() - t0) * 1e3
            _current_span.reset(token)
            self._finish(span)

    def _finish(self, span: Span) -> None:
        if self.registry is not None:
            labels = {"span": span.name}
            self.registry.histogram("span.duration_ms", labels).observe(span.duration_ms)
            self.registry.counter("spans.total", labels).inc()
            if span.status == "error":
                self.registry.counter("spans.errors", labels).inc()
        if self.windows is not None:
            self.windows.observe(span.name, span.duration_ms)
        with self._exporters_lock:
            exporters = tuple(self.exporters)
        for exporter in exporters:
            exporter.export(span)
