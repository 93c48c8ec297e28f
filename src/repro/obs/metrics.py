"""Metrics primitives: counters, gauges, and fixed-bucket histograms.

The registry is the platform's single source of operational truth — the
paper's ``GET /stats`` endpoint grows into a full ``GET /metrics`` API
on top of it.  Everything here is dependency-free stdlib so the hot
paths (index probes, query execution) can afford to report into it.

Design notes
------------
* Metrics are identified by ``(name, labels)``; handles returned by
  :meth:`MetricsRegistry.counter` & co. are stable across
  :meth:`MetricsRegistry.reset`, so callers may cache them at module
  import and keep incrementing after a benchmark resets the values.
* Histograms use fixed upper-bound buckets (Prometheus-style) and
  estimate percentiles by linear interpolation inside the bucket,
  clamped to the observed min/max.
* Snapshots are plain nested dicts with flattened
  ``name{label="value"}`` keys, so diffing two snapshots (what a
  benchmark phase did) is a dict subtraction — see
  :func:`counters_delta`.
* Every metric and the registry itself are thread-safe: instrumented
  code runs on API worker threads, so increments and the get-or-create
  path take a per-object lock (the ``thread-escape`` lint in
  ``repro.devtools`` enforces this for every class requests share).
"""

from __future__ import annotations

import math
import threading
from array import array
from bisect import bisect_left

_LabelKey = tuple[tuple[str, str], ...]
_MetricKey = tuple[str, _LabelKey]

#: Default latency buckets (milliseconds): sub-millisecond index probes
#: through multi-second training runs.
DEFAULT_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0,
)


def _label_key(labels: dict[str, str] | None) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _flat_name(name: str, label_key: _LabelKey) -> str:
    if not label_key:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in label_key)
    return f"{name}{{{inner}}}"


def _prom_name(name: str) -> str:
    """Prometheus-legal metric name: ``query.spatial`` -> ``tvdp_query_spatial``."""
    sanitized = "".join(c if c.isalnum() else "_" for c in name)
    return f"tvdp_{sanitized}"


def _prom_escape(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format:
    backslash, double-quote, and line feed must be ``\\\\``, ``\\"``,
    and ``\\n`` inside the quoted value."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class Counter:
    """Monotonically increasing value.

    The value lives in a cell of ``cells`` — the registry hands every
    counter it creates a cell of one shared array of doubles, so a
    snapshot of all counters is a copy of that array
    (``counter_snapshot``): no boxed floats, nothing for the garbage
    collector to track.
    """

    __slots__ = ("name", "labels", "_cells", "_at", "_lock")

    def __init__(
        self, name: str, labels: _LabelKey = (), cells: array | None = None
    ) -> None:
        self.name = name
        self.labels = labels
        self._cells = array("d") if cells is None else cells
        self._at = len(self._cells)
        self._cells.append(0.0)
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        return self._cells[self._at]

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        with self._lock:
            self._cells[self._at] += amount

    def _reset(self) -> None:
        with self._lock:
            self._cells[self._at] = 0.0


class Gauge:
    """Value that can go up and down (queue depths, index sizes)."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: _LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount

    def _reset(self) -> None:
        with self._lock:
            self.value = 0.0


class Histogram:
    """Fixed-bucket distribution with interpolated percentiles.

    ``buckets`` are inclusive upper bounds; one implicit overflow bucket
    catches everything above the last bound.
    """

    __slots__ = ("name", "labels", "buckets", "bucket_counts", "count", "sum",
                 "min", "max", "_lock")

    def __init__(
        self,
        name: str,
        labels: _LabelKey = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"buckets must be sorted and non-empty, got {buckets}")
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # +1 overflow
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        # RLock: summary() calls percentile() with the lock already held.
        self._lock = threading.RLock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            # The first bound at or above the value; past the last one —
            # and for a NaN, which is at or under nothing — the overflow
            # bucket.
            at = bisect_left(self.buckets, value) if value == value else -1
            self.bucket_counts[at] += 1

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile (``q`` in [0, 1]) from bucket counts.

        Pinned interpolation behaviour (see ``tests/obs/test_metrics.py``):

        * an empty histogram returns ``0.0`` for every ``q``;
        * ``q=0`` returns the observed minimum and ``q=1`` the observed
          maximum, exactly;
        * quantiles landing in the overflow bucket (above the last
          bound) return the observed maximum — the bucket has no upper
          bound to interpolate towards;
        * everything else interpolates linearly inside its bucket and is
          clamped to the observed ``[min, max]``.
        """
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"q must be in [0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                return 0.0
            if q == 0.0:
                return self.min
            rank = q * self.count
            cumulative = 0
            for i, in_bucket in enumerate(self.bucket_counts):
                if in_bucket == 0:
                    continue
                if cumulative + in_bucket >= rank:
                    if i == len(self.buckets):  # overflow bucket: no upper bound
                        return self.max
                    lower = self.buckets[i - 1] if i > 0 else 0.0
                    upper = self.buckets[i]
                    fraction = (rank - cumulative) / in_bucket
                    estimate = lower + fraction * (upper - lower)
                    return min(max(estimate, self.min), self.max)
                cumulative += in_bucket
            return self.max

    def merge(self, other: "Histogram") -> None:
        """Add every sample of ``other`` (same buckets) to this one —
        how a rolling window reads as one distribution: the live time
        slots' histograms merged, then the one :meth:`percentile`."""
        with self._lock:
            for i, in_bucket in enumerate(other.bucket_counts):
                self.bucket_counts[i] += in_bucket
            self.count += other.count
            self.sum += other.sum
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)

    def summary(self) -> dict[str, float]:
        """Count, sum, extrema, and the operator percentiles."""
        with self._lock:
            if self.count == 0:
                return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                        "p50": 0.0, "p95": 0.0, "p99": 0.0}
            return {
                "count": self.count,
                "sum": self.sum,
                "min": self.min,
                "max": self.max,
                "p50": self.percentile(0.50),
                "p95": self.percentile(0.95),
                "p99": self.percentile(0.99),
            }

    def _reset(self) -> None:
        with self._lock:
            self.bucket_counts = [0] * (len(self.buckets) + 1)
            self.count = 0
            self.sum = 0.0
            self.min = math.inf
            self.max = -math.inf


class MetricsRegistry:
    """Name+labels-keyed store of all platform metrics.

    Get-or-create runs under a registry lock so two threads asking for
    the same ``(name, labels)`` always share one handle — two distinct
    handles would silently split (and lose) increments.
    """

    def __init__(self) -> None:
        self._counters: dict[_MetricKey, Counter] = {}
        #: Every counter's value, in registration order (``Counter``).
        self._counter_cells = array("d")
        self._gauges: dict[_MetricKey, Gauge] = {}
        self._histograms: dict[_MetricKey, Histogram] = {}
        self._lock = threading.Lock()

    # -- handles ------------------------------------------------------------

    def counter(self, name: str, labels: dict[str, str] | None = None) -> Counter:
        """Get-or-create a counter; the handle survives :meth:`reset`."""
        key = (name, _label_key(labels))
        with self._lock:
            if key not in self._counters:
                self._counters[key] = Counter(name, key[1], self._counter_cells)
            return self._counters[key]

    def gauge(self, name: str, labels: dict[str, str] | None = None) -> Gauge:
        """Get-or-create a gauge."""
        key = (name, _label_key(labels))
        with self._lock:
            if key not in self._gauges:
                self._gauges[key] = Gauge(name, key[1])
            return self._gauges[key]

    def histogram(
        self,
        name: str,
        labels: dict[str, str] | None = None,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> Histogram:
        """Get-or-create a histogram (buckets fixed on first creation)."""
        key = (name, _label_key(labels))
        with self._lock:
            if key not in self._histograms:
                self._histograms[key] = Histogram(name, key[1], buckets)
            return self._histograms[key]

    def histograms(self, name: str | None = None) -> list[Histogram]:
        """All registered histograms, optionally filtered by name."""
        with self._lock:
            candidates = list(self._histograms.values())
        return [h for h in candidates if name is None or h.name == name]

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Zero every metric *in place* — existing handles stay valid."""
        with self._lock:
            metrics = (*self._counters.values(), *self._gauges.values(),
                       *self._histograms.values())
        for metric in metrics:
            metric._reset()

    # -- export -------------------------------------------------------------

    def counter_values(self) -> dict[str, float]:
        """Flat ``name{labels}`` -> value map of the counters only.

        Cheaper than :meth:`snapshot` (no histogram summaries); EXPLAIN
        ANALYZE and the benchmarks diff two of these around a phase.
        """
        with self._lock:
            counters = list(self._counters.values())
        return {_flat_name(c.name, c.labels): c.value for c in counters}

    def counter_snapshot(self) -> array:
        """Counter values by position, in registration order.

        Counters are never unregistered, so position ``i`` names the
        same counter in every later snapshot; a longer snapshot only
        adds counters registered since.  No names are built and no lock
        is taken (one array copy) — this is what a request record takes
        when its first span opens and when it closes.
        """
        return self._counter_cells[:]

    def counter_deltas(self, before: array, after: array) -> dict[str, float]:
        """Flat ``name{labels}`` -> change from ``before`` to ``after``
        (two :meth:`counter_snapshot` arrays), zero changes left out; a
        counter registered after ``before`` counts from zero."""
        with self._lock:
            counters = list(self._counters.values())
        known = len(before)
        deltas: dict[str, float] = {}
        for position, (counter, value) in enumerate(zip(counters, after)):
            delta = value - (before[position] if position < known else 0.0)
            if delta:
                deltas[_flat_name(counter.name, counter.labels)] = delta
        return deltas

    def snapshot(self) -> dict[str, dict]:
        """JSON-compatible dump of every metric's current value."""
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        return {
            "counters": {_flat_name(c.name, c.labels): c.value for c in counters},
            "gauges": {_flat_name(g.name, g.labels): g.value for g in gauges},
            "histograms": {
                _flat_name(h.name, h.labels): h.summary() for h in histograms
            },
        }

    def render_prometheus(self) -> str:
        """Prometheus text exposition of every metric.

        Counters/gauges render as single samples; histograms render the
        classic ``_bucket``/``_sum``/``_count`` triplet with cumulative
        ``le`` buckets.
        """
        lines: list[str] = []
        seen_types: set[tuple[str, str]] = set()

        def type_line(name: str, kind: str) -> None:
            if (name, kind) not in seen_types:
                lines.append(f"# TYPE {name} {kind}")
                seen_types.add((name, kind))

        def label_str(labels: _LabelKey, extra: str = "") -> str:
            parts = [f'{k}="{_prom_escape(v)}"' for k, v in labels]
            if extra:
                parts.append(extra)
            return "{" + ",".join(parts) + "}" if parts else ""

        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        for counter in sorted(counters, key=lambda c: (c.name, c.labels)):
            name = _prom_name(counter.name)
            type_line(name, "counter")
            lines.append(f"{name}{label_str(counter.labels)} {counter.value:g}")
        for gauge in sorted(gauges, key=lambda g: (g.name, g.labels)):
            name = _prom_name(gauge.name)
            type_line(name, "gauge")
            lines.append(f"{name}{label_str(gauge.labels)} {gauge.value:g}")
        for hist in sorted(histograms, key=lambda h: (h.name, h.labels)):
            name = _prom_name(hist.name)
            type_line(name, "histogram")
            with hist._lock:
                bucket_counts = list(hist.bucket_counts)
                hist_sum, hist_count = hist.sum, hist.count
            cumulative = 0
            for bound, in_bucket in zip(hist.buckets, bucket_counts):
                cumulative += in_bucket
                le = f'le="{bound:g}"'
                lines.append(f"{name}_bucket{label_str(hist.labels, le)} {cumulative}")
            cumulative += bucket_counts[-1]
            inf = 'le="+Inf"'
            lines.append(f"{name}_bucket{label_str(hist.labels, inf)} {cumulative}")
            lines.append(f"{name}_sum{label_str(hist.labels)} {hist_sum:g}")
            lines.append(f"{name}_count{label_str(hist.labels)} {hist_count}")
        return "\n".join(lines) + ("\n" if lines else "")


def counters_delta(before: dict[str, dict], after: dict[str, dict]) -> dict[str, float]:
    """Counter increments between two :meth:`MetricsRegistry.snapshot`
    calls — the per-phase view benchmarks isolate with."""
    b = before.get("counters", {})
    a = after.get("counters", {})
    out: dict[str, float] = {}
    for key, value in a.items():
        delta = value - b.get(key, 0.0)
        if delta:
            out[key] = delta
    return out
