"""Span-based tracing: parent/child propagation through the unit of work.

``span("query.spatial", attrs...)`` opens a timed operation; spans
started inside it become children, so one API request produces a tree
(request -> platform -> index).  Span names follow the
``<service>.<operation>`` convention documented in
``docs/observability.md``.

The open span lives on the open :class:`~repro.obs.record.Unit` of
work of its execution context, and a finished one is appended to it —
no lock, no fan-out; a span that opens with no unit open *is* the unit
of work, and closing it folds the unit's record (see
``repro.obs.record``).  The fold is what
records ``span.duration_ms{span=<name>}`` (from which ``spans.total`` /
``spans.errors`` are read), the rolling windows and the slow-span
exemplars, and streams the record's spans to the JSON-lines exporter
when one is on.
"""

from __future__ import annotations

import itertools
import json
import re
import threading
import time
from dataclasses import dataclass, field

from repro.obs.record import RecordStore, Unit, current_unit

#: Span and trace ids: ``next`` on an ``itertools.count`` is one C call
#: no other thread can interleave with, so it needs no lock.
_ids = itertools.count(1)


def _next_id(prefix: str) -> str:
    return f"{prefix}{next(_ids):08x}"


def current_span() -> "Span | None":
    """The innermost open span of the current execution context, or
    ``None`` (the structured logger, the shard router and the resilience
    policies annotate it)."""
    unit = current_unit()
    return None if unit is None else unit.span


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
#: An id a ``traceparent`` may carry: ours and W3C hex ids both fit.
#: Anything else — a space, a control character, an uppercase letter,
#: a 33rd character — would be stamped on every log line and record of
#: the request it rode in on.
_TRACE_ID = re.compile("[0-9a-z]{1,32}")


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
    if (
        version != _TRACEPARENT_VERSION
        or not _TRACE_ID.fullmatch(trace_id)
        or not _TRACE_ID.fullmatch(span_id)
    ):
        return None
    return TraceContext(trace_id=trace_id, span_id=span_id)


def current_traceparent() -> str | None:
    """``traceparent`` header for the active span, if one is open."""
    span = current_span()
    if span is None:
        return None
    return format_traceparent(TraceContext(span.trace_id, span.span_id))


@dataclass(slots=True)
class Span:
    """One timed operation; mutable while open, exported when closed.
    Slotted: a request makes two and its record keeps them."""

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
        until its ``with`` block (:class:`_OpenSpan`) closes it, so
        attribute writes need no lock.
        """
        self.attrs[key] = value

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


def span_tree(spans: list[Span]) -> list[dict]:
    """Build nested dicts from flat finished spans (see ``Span.to_dict``;
    each node gains a ``children`` key).  Roots are the spans whose
    parent is not among ``spans``, in completion order."""
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


class _OpenSpan:
    """The ``with`` block of one span (``obs.span``); nothing opens
    before it is entered.  The span's parent is the open unit's
    innermost span; with none, ``remote_parent`` (an extracted
    ``traceparent``: the span continues a trace started elsewhere), or
    else the span roots a new trace.  An ``Exception`` leaving the block
    marks the span ``status="error"`` with ``"<Type>: <message>"`` (a
    ``KeyboardInterrupt`` or ``GeneratorExit`` passes unmarked); either
    way the span gets its duration, its parent is the unit's innermost
    again and the span closes into its unit — folding it, if it opened
    it (on ``store``, when no unit of work was open).  A plain slotted
    class, as ``ledger_scope`` is and for its reason; owned by the one
    execution context that entered it.
    """

    __slots__ = ("_store", "_name", "_remote", "_attrs",
                 "_span", "_parent", "_unit", "_root", "_t0")

    def __init__(
        self, store: RecordStore, name: str,
        remote_parent: TraceContext | None, attrs: dict,
    ) -> None:
        self._store, self._name = store, name
        self._remote, self._attrs = remote_parent, attrs

    def __enter__(self) -> Span:
        unit = current_unit()
        self._root = unit is None or unit.store is None
        if self._root:
            unit = Unit(self._store)
        parent, remote_parent = unit.span, self._remote
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
            ancestry: tuple[str, ...] = (*parent.ancestry, parent.name)
        elif remote_parent is not None:
            trace_id, parent_id = remote_parent.trace_id, remote_parent.span_id
            ancestry = ()
        else:
            trace_id, parent_id, ancestry = _next_id("t"), None, ()
        if unit.counters is None:
            registry = unit.store.registry
            if registry is not None:
                unit.counters = registry.counter_snapshot()
        self._unit, self._parent = unit, parent
        span = self._span = Span(  # positionally, in field order: half the cost
            self._name, trace_id, _next_id("s"), parent_id, self._attrs,
            time.time(), 0.0, "ok", None, ancestry,
        )
        unit.span = span
        self._t0 = time.perf_counter()
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        if isinstance(exc, Exception):
            span.status = "error"
            span.error = f"{type(exc).__name__}: {exc}"
        span.duration_ms = (time.perf_counter() - self._t0) * 1e3
        unit = self._unit
        unit.span = self._parent
        unit.spans.append(span)
        if self._root:
            unit.close()
        return False
