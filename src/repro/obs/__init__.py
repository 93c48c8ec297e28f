"""Platform observability: metrics, tracing spans, structured logs.

One process-wide :class:`MetricsRegistry`, :class:`Tracer` and
:class:`RecordStore` back every instrumented code path.  A unit of work
(an API request, a bare platform call) yields one
:class:`RequestRecord`, folded once into the store; ``/stats``,
``/health`` and every ``/debug/*`` view read that store (see
``repro.obs.record``).  The API layer serves the registry at
``GET /metrics``; benchmarks snapshot/diff it around measured phases;
``TVDP.reset_metrics()`` zeroes it between phases.

Typical use::

    from repro import obs

    log = obs.get_logger("myservice")
    with obs.span("myservice.do_thing", item=42):
        obs.metrics().counter("myservice.things").inc()
        log.info("did the thing")

Performance observability on top of the same core: ``obs.profile_scope``
/ ``obs.memory_scope`` attach cProfile / tracemalloc results to the
active span, ``obs.records().slowest()`` reads the worst spans per
operation (served at ``GET /debug/slow``), and ``obs.health()`` evaluates the
declarative SLOs in ``repro.obs.slo`` (served at ``GET /health``).

Set the ``TVDP_TRACE_JSONL`` environment variable (or call
:func:`enable_jsonl`) to also stream finished spans to a JSON-lines
file.
"""

from __future__ import annotations

import os
import threading

from repro.obs import slo
from repro.obs.accounting import (
    Budget,
    ResourceLedger,
    active_ledger,
    charge,
    charge_probes,
    ledger_scope,
    maybe_ledger_scope,
)
from repro.obs.logs import SpanContextFilter, configure_logging, console, get_logger
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counters_delta,
)
from repro.obs.profiling import (
    MemoryResult,
    ProfileResult,
    memory_scope,
    profile_scope,
)
from repro.obs.record import RecordStore, RequestRecord, Unit, current_unit
from repro.obs.tracing import (
    JsonlExporter,
    Span,
    TraceContext,
    Tracer,
    current_span,
    current_traceparent,
    format_traceparent,
    parse_traceparent,
    span_tree,
)

__all__ = [
    "Budget",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Gauge",
    "Histogram",
    "JsonlExporter",
    "MemoryResult",
    "MetricsRegistry",
    "ProfileResult",
    "RecordStore",
    "RequestRecord",
    "ResourceLedger",
    "Span",
    "SpanContextFilter",
    "TraceContext",
    "Tracer",
    "Unit",
    "active_ledger",
    "charge",
    "charge_probes",
    "configure_logging",
    "console",
    "counters_delta",
    "current_span",
    "current_traceparent",
    "disable_jsonl",
    "enable_jsonl",
    "format_traceparent",
    "get_logger",
    "health",
    "hot_queries",
    "ledger_scope",
    "maybe_ledger_scope",
    "memory_scope",
    "metrics",
    "note_query",
    "note_request",
    "parse_traceparent",
    "profile_scope",
    "records",
    "reset",
    "ring_buffer",
    "slo",
    "snapshot",
    "span",
    "span_tree",
    "usage",
]

_registry = MetricsRegistry()
_store = RecordStore(registry=_registry)
_tracer = Tracer(_store)
_jsonl: JsonlExporter | None = None
_jsonl_lock = threading.Lock()


def metrics() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _registry


def records() -> RecordStore:
    """The process-wide record store: every finished unit of work is
    folded into it once, and every view is a read of it — usage
    (``report()``, ``GET /debug/resources``), hot query shapes
    (``top()``, ``/debug/hot``), slow spans (``slowest()``,
    ``/debug/slow``), rolling latency (``window()``), recent spans and
    records (``spans()``, ``request()``, ``/debug/trace|request``).
    Configure an admission budget with
    ``obs.usage().set_budget(obs.Budget(...))`` or the
    ``TVDP_USAGE_BUDGET`` environment variable (cost units / 60 s)."""
    return _store


#: The store under the names its views had as separate structures:
#: ``ledger_scope(table=obs.usage())``, ``obs.hot_queries().top()``,
#: ``obs.ring_buffer().spans()``.
usage = hot_queries = ring_buffer = records


def health(slos=None) -> dict:
    """Evaluate SLO objectives against the live registry (see
    ``repro.obs.slo.evaluate``; default objectives when ``slos`` is
    ``None``).  Latency objectives read the rolling last-60s windows
    when those hold samples, falling back to the since-process-start
    histograms on a cold window."""
    return slo.evaluate(_registry, slos, windows=_store)


def span(name: str, remote_parent: TraceContext | None = None, **attrs: object):
    """Open a span on the default tracer (context manager).

    ``remote_parent`` (an extracted ``traceparent`` header's
    :class:`TraceContext`) joins a trace started in another process —
    see :meth:`Tracer.span`.
    """
    return _tracer.span(name, remote_parent, **attrs)


def note_query(shape: str, family: str, duration_ms: float) -> None:
    """One executed query, noted on the open unit of work: it counts in
    ``platform.queries{family}`` and under its shape when the unit
    folds (at once, when no unit is open)."""
    unit = current_unit()
    if unit is not None:
        unit.queries.append((shape, family, duration_ms))
    else:
        _store.record(shape, duration_ms, family)


def note_request(
    request_id: str | None, method: str, route: str, status: int, span: Span
) -> None:
    """The router's facts about the open unit of work: which request it
    is, how it was answered, and the ``http.request`` span that timed
    it — what ``api.requests`` / ``api.request_ms`` are folded from."""
    unit = current_unit()
    if unit is not None:
        unit.request = (request_id, method, route, status, span)


def snapshot() -> dict[str, dict]:
    """Current values of every metric (see ``MetricsRegistry.snapshot``)."""
    return _registry.snapshot()


def reset() -> None:
    """Zero all metrics and drop every view of the record store — usage,
    hot shapes, slow spans, rolling windows, buffered records
    (benchmark isolation).

    Metric handles cached by instrumented modules stay valid.
    """
    _registry.reset()
    _store.reset()


def enable_jsonl(path: str) -> JsonlExporter:
    """Stream finished spans to ``path`` as JSON lines (idempotent per
    path; an exporter for a different path replaces the previous one)."""
    global _jsonl
    with _jsonl_lock:
        if _jsonl is not None and _jsonl.path == str(path):
            return _jsonl
    # Open the file outside the lock — holding _jsonl_lock across IO
    # would stall every tracer attach/detach on a slow disk.
    exporter = JsonlExporter(path)
    with _jsonl_lock:
        if _jsonl is not None and _jsonl.path == str(path):
            current = _jsonl  # a concurrent enable for the same path won
        else:
            if _jsonl is not None:
                _detach_jsonl()
            _jsonl = exporter
            _store.add_exporter(exporter)
            current = exporter
    if current is not exporter:
        exporter.close()
    return current


# API symmetry with enable_jsonl; tests tear down stream exporters here.
# devtools: allow[dead-code] — intentional API surface
def disable_jsonl() -> None:
    """Detach and close the JSONL exporter, if one is active."""
    with _jsonl_lock:
        _detach_jsonl()


def _detach_jsonl() -> None:
    """Close and drop the active exporter; caller holds ``_jsonl_lock``."""
    global _jsonl
    if _jsonl is not None:
        _store.remove_exporter(_jsonl)
        _jsonl.close()
        _jsonl = None  # devtools: allow[module-mutable-state] caller holds _jsonl_lock


_env_path = os.environ.get("TVDP_TRACE_JSONL")
if _env_path:
    enable_jsonl(_env_path)

_env_budget = os.environ.get("TVDP_USAGE_BUDGET")
if _env_budget:
    try:
        _store.set_budget(Budget(cost_per_window=float(_env_budget)))
    except ValueError:
        get_logger("obs").warning(
            "ignoring unusable TVDP_USAGE_BUDGET=%r", _env_budget
        )
