"""Platform observability: metrics, tracing spans, structured logs.

One process-wide :class:`MetricsRegistry` and :class:`Tracer` (ring
buffer attached) back every instrumented code path — the same pattern
as the Prometheus client library.  The API layer serves the registry at
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
active span, ``obs.slow_spans()`` queries the worst-span exemplar log
(served at ``GET /debug/slow``), and ``obs.health()`` evaluates the
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
    UsageTable,
    active_ledger,
    charge,
    charge_probes,
    ledger_scope,
    maybe_ledger_scope,
)
from repro.obs.hotqueries import HotQueryTracker
from repro.obs.logs import SpanContextFilter, configure_logging, console, get_logger
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counters_delta,
)
from repro.obs.windows import RollingWindows
from repro.obs.profiling import (
    MemoryResult,
    ProfileResult,
    SlowSpanLog,
    memory_scope,
    profile_scope,
)
from repro.obs.tracing import (
    JsonlExporter,
    RingBufferExporter,
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
    "HotQueryTracker",
    "JsonlExporter",
    "MemoryResult",
    "MetricsRegistry",
    "ProfileResult",
    "ResourceLedger",
    "RingBufferExporter",
    "RollingWindows",
    "SlowSpanLog",
    "Span",
    "SpanContextFilter",
    "TraceContext",
    "Tracer",
    "UsageTable",
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
    "latency_windows",
    "ledger_scope",
    "maybe_ledger_scope",
    "memory_scope",
    "metrics",
    "parse_traceparent",
    "profile_scope",
    "reset",
    "ring_buffer",
    "slo",
    "slow_log",
    "slow_spans",
    "snapshot",
    "span",
    "span_tree",
    "tracer",
    "usage",
]

_registry = MetricsRegistry()
_ring = RingBufferExporter(capacity=4096)
_slow = SlowSpanLog(registry=_registry)
_windows = RollingWindows()
_hot = HotQueryTracker()
_tracer = Tracer(registry=_registry, exporters=[_ring, _slow], windows=_windows)
_usage = UsageTable(registry=_registry)
_jsonl: JsonlExporter | None = None
_jsonl_lock = threading.Lock()


def metrics() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _registry


def latency_windows() -> RollingWindows:
    """The process-wide rolling latency windows (fed by the tracer:
    every finished span's duration, keyed by span name)."""
    return _windows


def hot_queries() -> HotQueryTracker:
    """The process-wide hot-query tracker (fed by ``TVDP.execute`` with
    normalized query shapes; served at ``GET /debug/hot``)."""
    return _hot


def usage() -> UsageTable:
    """The process-wide usage table: per-principal/shape/operation
    resource charges absorbed from request ledgers (served at
    ``GET /debug/resources``).  Configure an admission budget with
    ``obs.usage().set_budget(obs.Budget(...))`` or the
    ``TVDP_USAGE_BUDGET`` environment variable (cost units / 60 s)."""
    return _usage


# Public accessor mirroring metrics(); consumed by tests and debugging.
# devtools: allow[dead-code] — intentional API surface
def tracer() -> Tracer:
    """The process-wide tracer."""
    return _tracer


# Public accessor; tests and notebooks read recent spans through it.
# devtools: allow[dead-code] — intentional API surface
def ring_buffer() -> RingBufferExporter:
    """The tracer's in-memory exporter (recent finished spans)."""
    return _ring


def slow_log() -> SlowSpanLog:
    """The tracer's slow-span exemplar log (worst spans per operation)."""
    return _slow


def slow_spans(name: str | None = None, limit: int | None = None) -> list[dict]:
    """Worst-span exemplar records (see ``SlowSpanLog.slowest``)."""
    return _slow.slowest(name, limit)


def health(slos=None) -> dict:
    """Evaluate SLO objectives against the live registry (see
    ``repro.obs.slo.evaluate``; default objectives when ``slos`` is
    ``None``).  Latency objectives read the rolling last-60s windows
    when those hold samples, falling back to the since-process-start
    histograms on a cold window."""
    return slo.evaluate(_registry, slos, windows=_windows)


def span(name: str, remote_parent: TraceContext | None = None, **attrs: object):
    """Open a span on the default tracer (context manager).

    ``remote_parent`` (an extracted ``traceparent`` header's
    :class:`TraceContext`) joins a trace started in another process —
    see :meth:`Tracer.span`.
    """
    return _tracer.span(name, remote_parent=remote_parent, **attrs)


def snapshot() -> dict[str, dict]:
    """Current values of every metric (see ``MetricsRegistry.snapshot``)."""
    return _registry.snapshot()


def reset() -> None:
    """Zero all metrics and drop buffered spans, slow-span exemplars,
    rolling latency windows, and hot-query stats (benchmark isolation).

    Metric handles cached by instrumented modules stay valid.
    """
    _registry.reset()
    _ring.clear()
    _slow.clear()
    _windows.reset()
    _hot.clear()
    _usage.reset()


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
            _tracer.add_exporter(exporter)
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
        _tracer.remove_exporter(_jsonl)
        _jsonl.close()
        _jsonl = None  # devtools: allow[module-mutable-state] caller holds _jsonl_lock


_env_path = os.environ.get("TVDP_TRACE_JSONL")
if _env_path:
    enable_jsonl(_env_path)

_env_budget = os.environ.get("TVDP_USAGE_BUDGET")
if _env_budget:
    try:
        _usage.set_budget(Budget(cost_per_window=float(_env_budget)))
    except ValueError:
        get_logger("obs").warning(
            "ignoring unusable TVDP_USAGE_BUDGET=%r", _env_budget
        )
