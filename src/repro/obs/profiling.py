"""Span-attached profiling hooks.

Two opt-in tools that close the gap between "this span was slow" and
"here is why":

* :func:`profile_scope` — run ``cProfile`` around a block and attach
  the top functions (by cumulative time) to the active span, so one
  slow request carries its own flame summary.
* :func:`memory_scope` — sample ``tracemalloc`` around a block and
  attach the peak/net allocation to the active span.

Everything is stdlib; the profilers cost nothing unless their context
managers are entered.  (The always-on worst-spans log is a view of the
record store: ``RecordStore.slowest``, served at ``GET /debug/slow``.)
"""

from __future__ import annotations

import contextlib
import contextvars
import cProfile
import pstats
import tracemalloc
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.tracing import current_span

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
