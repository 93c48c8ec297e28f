"""Span-attached profiling hooks and the slow-span exemplar log.

Three opt-in tools that close the gap between "this span was slow" and
"here is why":

* :func:`profile_scope` — run ``cProfile`` around a block and attach
  the top functions (by cumulative time) to the active span, so one
  slow request carries its own flame summary.
* :func:`memory_scope` — sample ``tracemalloc`` around a block and
  attach the peak/net allocation to the active span.
* :class:`SlowSpanLog` — an always-on exporter keeping the N *worst*
  finished spans per operation, each with its full ancestry and the
  counter increments (index probes, cache hits, ...) that happened
  while it was open.  Queryable via ``obs.slow_spans()`` and served at
  ``GET /debug/slow``.

Everything is stdlib; the profilers cost nothing unless their context
managers are entered, and the slow-span log costs one positional
counter snapshot per span (``MetricsRegistry.counter_snapshot``) — the
exemplar record and its ``counter_deltas`` are built only for a span
that enters its operation's worst-N.
"""

from __future__ import annotations

import contextlib
import contextvars
import cProfile
import pstats
import threading
import tracemalloc
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span, current_span

#: How many exemplar spans the log keeps per operation name.
DEFAULT_SLOW_SPANS_PER_OP = 8

#: Guards against nested :func:`profile_scope` blocks: whether some
#: Python version raises on a second ``Profile.enable()`` varies, so
#: nesting is detected explicitly and the inner scope degrades.
_profile_active: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "tvdp_profile_active", default=False
)


@dataclass
class ProfileResult:
    """Filled when :func:`profile_scope` exits."""

    top: list[dict] = field(default_factory=list)
    enabled: bool = True


@dataclass
class MemoryResult:
    """Filled when :func:`memory_scope` exits (kilobytes)."""

    peak_kb: float = 0.0
    net_kb: float = 0.0


@contextlib.contextmanager
def profile_scope(
    top: int = 10, sort: str = "cumulative"
) -> Iterator[ProfileResult]:
    """Opt-in cProfile around a block, results attached to the span.

    Yields a :class:`ProfileResult` whose ``top`` list is populated on
    exit with ``{"func", "ncalls", "tottime_ms", "cumtime_ms"}`` rows.
    If the active span exists, the same rows land in its
    ``profile.top`` attribute (and ``profile.sort`` records the order).
    When another profiler is already installed (nested scopes, foreign
    tooling), the scope degrades to a no-op with ``enabled=False``.
    """
    result = ProfileResult()
    if _profile_active.get():  # nested scope: inner degrades
        result.enabled = False
        yield result
        return
    profiler = cProfile.Profile()
    try:
        profiler.enable()
    except ValueError:  # a foreign profiler is active
        result.enabled = False
        yield result
        return
    token = _profile_active.set(True)
    try:
        yield result
    finally:
        _profile_active.reset(token)
        profiler.disable()
        stats = pstats.Stats(profiler)
        stats.sort_stats(sort)
        for func in stats.fcn_list[:top]:  # type: ignore[attr-defined]
            cc, nc, tt, ct, _ = stats.stats[func]  # type: ignore[attr-defined]
            filename, line, name = func
            result.top.append(
                {
                    "func": f"{filename}:{line}({name})",
                    "ncalls": nc,
                    "tottime_ms": round(tt * 1e3, 3),
                    "cumtime_ms": round(ct * 1e3, 3),
                }
            )
        span = current_span()
        if span is not None:
            span.set("profile.top", result.top)
            span.set("profile.sort", sort)


@contextlib.contextmanager
def memory_scope() -> Iterator[MemoryResult]:
    """Opt-in tracemalloc peak sampling attached to the active span.

    ``peak_kb`` is the block's peak traced allocation, ``net_kb`` the
    allocation still live at exit.  Composes with an outer tracemalloc
    session: if tracing is already on, the peak counter is reset for
    the block and tracing is left running on exit.
    """
    result = MemoryResult()
    already_tracing = tracemalloc.is_tracing()
    if already_tracing:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    try:
        yield result
    finally:
        current, peak = tracemalloc.get_traced_memory()
        result.peak_kb = round(peak / 1024.0, 3)
        result.net_kb = round((current - before) / 1024.0, 3)
        if not already_tracing:
            tracemalloc.stop()
        span = current_span()
        if span is not None:
            span.set("mem.peak_kb", result.peak_kb)
            span.set("mem.net_kb", result.net_kb)


class SlowSpanLog:
    """Worst-N finished spans per operation, with why-was-it-slow data.

    Registered on the tracer as an exporter; its ``on_start`` hook
    snapshots the registry's counters when a span opens so ``export``
    can record the increments the span's work produced.  Exemplar
    records are the span's ``to_dict`` plus ``counter_deltas`` —
    ancestry is already on the span itself.

    Mutated from whichever threads run spans, so every public method
    takes the log's lock (the ``thread-escape`` lint enforces this
    for every class requests share).
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        per_op: int = DEFAULT_SLOW_SPANS_PER_OP,
    ) -> None:
        if per_op < 1:
            raise ValueError(f"per_op must be >= 1, got {per_op}")
        self.registry = registry
        self.per_op = per_op
        self._worst: dict[str, list[dict]] = {}  # name -> records, slowest first
        self._inflight: dict[str, list[float]] = {}  # span_id -> counter snapshot
        self._lock = threading.Lock()

    # -- tracer hooks -------------------------------------------------------

    def on_start(self, span: Span) -> None:
        """Snapshot counters so :meth:`export` can diff them."""
        if self.registry is None:
            return
        before = self.registry.counter_snapshot()
        with self._lock:
            self._inflight[span.span_id] = before

    def export(self, span: Span) -> None:
        """Admit the finished span if it is among its op's N worst.

        Almost every span is not, and for those this is one dict pop and
        one comparison: the record, its counter names and deltas are
        built only for a span that can enter the list.  A tie with the
        current N-th stays out, as the stable sort below would drop it.
        """
        with self._lock:
            before = self._inflight.pop(span.span_id, None)
            worst = self._worst.get(span.name)
            if (
                worst is not None
                and len(worst) >= self.per_op
                and span.duration_ms <= worst[-1]["duration_ms"]
            ):
                return
        deltas: dict[str, float] = {}
        if before is not None and self.registry is not None:
            deltas = {
                name: delta
                for name, delta in self.registry.counter_deltas(before).items()
                if not name.startswith("spans.")  # tracer bookkeeping
            }
        record = {**span.to_dict(), "counter_deltas": deltas}
        with self._lock:
            worst = self._worst.setdefault(span.name, [])
            worst.append(record)
            worst.sort(key=lambda r: -r["duration_ms"])
            del worst[self.per_op:]

    # -- queries ------------------------------------------------------------

    def slowest(self, name: str | None = None, limit: int | None = None) -> list[dict]:
        """Exemplar records, slowest first; one op or all ops merged."""
        with self._lock:
            if name is not None:
                records = list(self._worst.get(name, ()))
            else:
                records = [r for worst in self._worst.values() for r in worst]
        records.sort(key=lambda r: -r["duration_ms"])
        if limit is not None:
            records = records[:limit]
        return records

    def operations(self) -> list[str]:
        """Every span name with at least one exemplar."""
        with self._lock:
            return sorted(self._worst)

    def clear(self) -> None:
        """Drop all exemplars and in-flight snapshots (bench isolation)."""
        with self._lock:
            self._worst.clear()
            self._inflight.clear()
