"""Span-based tracing: parent/child propagation through the unit of work.

``span("query.spatial", attrs...)`` opens a timed operation; spans
started inside it become children, so one API request produces a tree
(request -> platform -> index).  Span names follow the
``<service>.<operation>`` convention documented in
``docs/observability.md``.

A :class:`Span` is its own ``with`` block and its own record: while
open it is the innermost span of the open
:class:`~repro.obs.record.Unit` of work, and when it closes it is
appended to that unit — no lock, no copy; a span that opens with no
unit open *is* the unit of work, and closing it folds the unit (see
``repro.obs.record``).  A span keeps its parent, not its ancestry, and
integer ids; the ``t…``/``s…`` strings and the ancestry are worked out
when something reads them.
"""

from __future__ import annotations

import itertools
import json
import re
import threading
import time
from dataclasses import dataclass

from repro.obs.record import RecordStore, Unit, current_unit

#: Span and trace ids: ``next`` on an ``itertools.count`` is one C call
#: no other thread can interleave with, so it needs no lock.
_ids = itertools.count(1)
_new = object.__new__
_clock = time.perf_counter


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


class Span:
    """One timed operation: the ``with`` block :func:`open_span` returns
    (``obs.span``; nothing opens before it is entered), and what its
    unit keeps once it closed.  Its parent is the open unit's innermost
    span; with none, ``remote_parent`` (an extracted ``traceparent``),
    or else it roots a new trace.  An ``Exception`` leaving the block
    marks it ``status="error"`` with ``"<Type>: <message>"`` (a
    ``KeyboardInterrupt`` or ``GeneratorExit`` passes unmarked); either
    way it gets its duration, its parent is the unit's innermost again
    and it closes into its unit — folding it, if it opened it.  Owned by
    the one execution context that entered it: nothing on it is locked.
    ``Span(name, trace_id, span_id, parent_id, ...)`` is a finished span
    as given.
    """

    __slots__ = ("name", "attrs", "start_time", "duration_ms", "status", "error",
                 "_trace", "_id", "_parent", "_ancestry", "_unit", "_root", "_t0")

    def __init__(
        self, name: str, trace_id: str, span_id: str, parent_id: str | None,
        attrs: dict | None = None, start_time: float = 0.0, duration_ms: float = 0.0,
        status: str = "ok", error: str | None = None, ancestry: tuple = (),
    ) -> None:
        self.name, self._trace, self._id, self._parent = name, trace_id, span_id, parent_id
        self.attrs = {} if attrs is None else attrs
        self.start_time, self.duration_ms = start_time, duration_ms
        self.status, self.error, self._ancestry = status, error, tuple(ancestry)

    # Ids are integers from ``_ids`` (or a remote trace's string) and
    # read as the strings they name; a trace id, which lookups compare
    # on every kept span, is named once and kept.
    @property
    def trace_id(self) -> str:
        trace = self._trace
        if type(trace) is not str:
            trace = self._trace = f"t{trace:08x}"
        return trace

    @property
    def span_id(self) -> str:
        own = self._id
        return own if type(own) is str else f"s{own:08x}"

    @property
    def parent_id(self) -> str | None:
        parent = self._parent
        return parent if parent is None or type(parent) is str else parent.span_id

    @property
    def ancestry(self) -> tuple[str, ...]:
        """Names of the ancestors, root first: walked up the parents
        (which outlive their children), or as given."""
        parent = self._parent
        if type(parent) is Span:
            return (*parent.ancestry, parent.name)
        return self._ancestry

    def set(self, key: str, value: object) -> None:
        """Attach/overwrite one attribute."""
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

    def __enter__(self) -> "Span":
        unit = current_unit()
        root = self._root = unit is None or unit.store is None
        if root:
            unit = Unit(self._unit)
        parent = unit.span
        if parent is not None:
            self._parent, self._trace = parent, parent._trace
        elif self._parent is not None:
            self._trace = self._parent.trace_id
        else:
            self._trace = next(_ids)
        self._id = next(_ids)
        if unit.counters is None:
            registry = unit.store.registry
            if registry is not None:
                unit.counters = registry.counter_snapshot()
        self._unit = unit
        unit.span = self
        self.start_time = time.time()
        self._t0 = _clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_ms = (_clock() - self._t0) * 1e3
        if isinstance(exc, Exception):
            self.status = "error"
            self.error = f"{type(exc).__name__}: {exc}"
        unit, self._unit = self._unit, None  # a kept span holds no unit: no cycle
        parent = self._parent
        unit.span = parent if type(parent) is Span else None
        unit.spans.append(self)
        if self._root:
            unit.close()
        return False


def open_span(
    store: RecordStore, name: str, remote_parent: TraceContext | None, attrs: dict
) -> Span:
    """A span to enter: it opens its unit of work on ``store`` if none
    is open when it is entered."""
    span = _new(Span)
    span.name, span.attrs, span._parent, span._unit = name, attrs, remote_parent, store
    span.duration_ms, span.status, span.error, span._ancestry = 0.0, "ok", None, ()
    return span


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
