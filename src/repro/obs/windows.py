"""Rolling time-windowed latency distributions.

The registry's histograms (``repro.obs.metrics``) aggregate since
process start — correct for benchmark trajectories, useless under
sustained load, where "p95 over the last minute" is the question the
SLO burn ratios and ``/stats`` need to answer.  :class:`RollingWindows`
keeps, per key (span name), a ring of time-bucketed mini-histograms:
each observation lands in the bucket covering "now", buckets older than
the window are lazily recycled, and percentile queries merge the live
buckets.  Memory is fixed: ``n_buckets x len(bounds)`` counts per key.

Time is injectable: the constructor takes anything with a ``now()``
method (the ``repro.resilience.Clock`` seam, duck-typed so the
observability layer stays dependency-free) or a plain ``() -> float``
callable.  The process-wide instance (``obs.latency_windows()``) runs
on ``time.monotonic`` and is fed by the tracer — every finished span's
duration lands here under its span name, exactly like the cumulative
``span.duration_ms`` histograms.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable

from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_MS

#: Default window: the last 60 seconds, in 5-second buckets.
DEFAULT_WINDOW_S = 60.0
DEFAULT_BUCKET_S = 5.0


class _Slot:
    """One time bucket of one key's ring: a tiny fixed-bound histogram."""

    __slots__ = ("epoch", "counts", "count", "sum", "min", "max")

    def __init__(self, n_bounds: int) -> None:
        self.epoch = -1  # which bucket_s-sized interval this slot holds
        self.counts = [0] * (n_bounds + 1)  # +1 overflow
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def recycle(self, epoch: int) -> None:
        # Only reached from RollingWindows.observe, under its _lock.
        self.epoch = epoch
        for i in range(len(self.counts)):
            self.counts[i] = 0  # caller holds RollingWindows._lock
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf


def _resolve_now(clock: object | None) -> Callable[[], float]:
    """Accept a Clock-shaped object, a bare callable, or ``None``."""
    if clock is None:
        return time.monotonic
    now = getattr(clock, "now", None)
    if callable(now):
        return now
    if callable(clock):
        return clock  # type: ignore[return-value]
    raise TypeError(f"clock must have .now() or be callable, got {clock!r}")


class RollingWindows:
    """Per-key rolling latency windows over an injectable clock.

    All methods are thread-safe under one internal lock; nothing
    blocking runs while it is held (pure in-memory bookkeeping), so the
    lock-order sanitizer sees it as a leaf.
    """

    def __init__(
        self,
        window_s: float = DEFAULT_WINDOW_S,
        bucket_s: float = DEFAULT_BUCKET_S,
        clock: object | None = None,
        bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> None:
        if window_s <= 0 or bucket_s <= 0 or bucket_s > window_s:
            raise ValueError(
                f"need 0 < bucket_s <= window_s, got {bucket_s}/{window_s}"
            )
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"bounds must be sorted and non-empty, got {bounds}")
        self.window_s = float(window_s)
        self.bucket_s = float(bucket_s)
        self.bounds = tuple(float(b) for b in bounds)
        self.n_buckets = int(math.ceil(window_s / bucket_s))
        self._now = _resolve_now(clock)
        self._rings: dict[str, list[_Slot]] = {}
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------

    def observe(self, key: str, value_ms: float) -> None:
        """Record one latency sample for ``key`` at the current time."""
        value = float(value_ms)
        epoch = int(self._now() // self.bucket_s)
        with self._lock:
            ring = self._rings.get(key)
            if ring is None:
                ring = [_Slot(len(self.bounds)) for _ in range(self.n_buckets)]
                self._rings[key] = ring
            slot = ring[epoch % self.n_buckets]
            if slot.epoch != epoch:
                slot.recycle(epoch)
            slot.count += 1
            slot.sum += value
            if value < slot.min:
                slot.min = value
            if value > slot.max:
                slot.max = value
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    slot.counts[i] += 1
                    return
            slot.counts[-1] += 1

    # -- reading ------------------------------------------------------------

    def _live_slots(self, key: str) -> list[_Slot]:
        """Slots still inside the window; caller holds the lock."""
        ring = self._rings.get(key)
        if ring is None:
            return []
        min_epoch = int(self._now() // self.bucket_s) - self.n_buckets + 1
        return [slot for slot in ring if slot.epoch >= min_epoch and slot.count]

    def count(self, key: str) -> int:
        """Samples recorded for ``key`` inside the window."""
        with self._lock:
            return sum(slot.count for slot in self._live_slots(key))

    def percentile(self, key: str, q: float) -> float | None:
        """Interpolated ``q``-quantile of ``key`` over the window, or
        ``None`` with no samples.  Same pinned interpolation behaviour
        as :meth:`repro.obs.metrics.Histogram.percentile`."""
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"q must be in [0, 1], got {q}")
        with self._lock:
            slots = self._live_slots(key)
            if not slots:
                return None
            merged = [0] * (len(self.bounds) + 1)
            for slot in slots:
                for i, c in enumerate(slot.counts):
                    merged[i] += c
            total = sum(slot.count for slot in slots)
            lo = min(slot.min for slot in slots)
            hi = max(slot.max for slot in slots)
        if q == 0.0:
            return lo
        rank = q * total
        cumulative = 0
        for i, in_bucket in enumerate(merged):
            if in_bucket == 0:
                continue
            if cumulative + in_bucket >= rank:
                if i == len(self.bounds):  # overflow bucket
                    return hi
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = self.bounds[i]
                fraction = (rank - cumulative) / in_bucket
                return min(max(lower + fraction * (upper - lower), lo), hi)
            cumulative += in_bucket
        return hi

    def summary(self, key: str) -> dict | None:
        """``{count,sum,min,max,p50,p95,p99,window_s}`` over the live
        window, or ``None`` when the window holds no samples."""
        with self._lock:
            slots = self._live_slots(key)
            if not slots:
                return None
            count = sum(slot.count for slot in slots)
            total = sum(slot.sum for slot in slots)
            lo = min(slot.min for slot in slots)
            hi = max(slot.max for slot in slots)
        return {
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
            "p50": self.percentile(key, 0.50),
            "p95": self.percentile(key, 0.95),
            "p99": self.percentile(key, 0.99),
            "window_s": self.window_s,
        }

    def summaries(self) -> dict[str, dict]:
        """Key -> :meth:`summary` for every key with live samples."""
        with self._lock:
            keys = sorted(self._rings)
        out: dict[str, dict] = {}
        for key in keys:
            summary = self.summary(key)
            if summary is not None:
                out[key] = summary
        return out

    def reset(self) -> None:
        """Drop every key's window (benchmark isolation)."""
        with self._lock:
            self._rings.clear()
