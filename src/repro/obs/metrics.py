"""Metrics primitives: counters, gauges, and fixed-bucket histograms.

The registry is the platform's single source of operational truth — the
paper's ``GET /stats`` endpoint grows into a full ``GET /metrics`` API
on top of it.  Everything here is stdlib (and numpy, to bucket a batch
of samples), cheap enough for the hot paths to report into.

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
import weakref
from array import array
from typing import Callable

import numpy as np

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
    collector to track.  ``derived`` adds what sources derive of the
    series (:meth:`MetricsRegistry.derive`) to ``value``.
    """

    __slots__ = ("name", "labels", "_cells", "_at", "_lock", "_derived")

    def __init__(
        self, name: str, labels: _LabelKey = (), cells: array | None = None,
        derived: Callable[[], float] | None = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self._cells = array("d") if cells is None else cells
        self._at = len(self._cells)
        self._cells.append(0.0)
        self._lock = threading.Lock()
        self._derived = derived

    @property
    def value(self) -> float:
        pushed = self._cells[self._at]
        return pushed if self._derived is None else pushed + self._derived()

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
    catches everything above the last bound.  ``lock`` guards it (its
    own, unless given: a registry's histograms share its ``samples``
    lock, which a record store folds under).  ``feed``, called with the
    lock held before every read, hands it the samples a store holds for
    it (:meth:`repro.obs.record.RecordStore.settle`).
    """

    __slots__ = ("name", "labels", "buckets", "bucket_counts", "_count", "sum",
                 "min", "max", "_lock", "_feed")

    def __init__(
        self,
        name: str,
        labels: _LabelKey = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS,
        lock: threading.Lock | None = None,
        feed: Callable[[], None] | None = None,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"buckets must be sorted and non-empty, got {buckets}")
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # +1 overflow
        self._count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lock = lock or threading.Lock()
        self._feed = feed

    def observe(self, value: float) -> None:
        with self._lock:
            self._fed()
            self.absorb(array("d", [float(value)]))

    def _fed(self) -> None:
        if self._feed is not None:
            self._feed()

    @property
    def count(self) -> int:
        """Samples counted, those a store still holds for it included."""
        with self._lock:
            self._fed()
            return self._count

    def absorb(self, samples: array) -> None:
        """Count ``samples`` in arrival order, with the lock held: each in
        the first bucket whose bound is at or above it (a NaN, at or
        under nothing, in the overflow bucket and in neither extreme),
        the sum added one value at a time — one ``searchsorted`` for
        them all."""
        values = np.frombuffer(samples)
        self._count += len(values)
        self.sum = float(np.cumsum(np.concatenate(([self.sum], values)))[-1])
        seen = values[values == values]
        if seen.size:
            self.min = min(self.min, float(seen.min()))
            self.max = max(self.max, float(seen.max()))
        filed = np.bincount(np.searchsorted(self.buckets, values), minlength=len(self.bucket_counts))
        self.bucket_counts = [a + b for a, b in zip(self.bucket_counts, filed.tolist())]

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
            return self._percentile(q)

    def _percentile(self, q: float) -> float:
        """:meth:`percentile` with the lock held."""
        self._fed()
        if self._count == 0:
            return 0.0
        if q == 0.0:
            return self.min
        rank = q * self._count
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
        """Add every sample of ``other`` (same buckets, settled) to this
        one: a rolling window is the live time slots' histograms merged."""
        with self._lock:
            for i, in_bucket in enumerate(other.bucket_counts):
                self.bucket_counts[i] += in_bucket
            self._count += other._count
            self.sum += other.sum
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)

    def summary(self) -> dict[str, float]:
        """Count, sum, extrema, and the operator percentiles."""
        with self._lock:
            self._fed()
            if self._count == 0:
                return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                        "p50": 0.0, "p95": 0.0, "p99": 0.0}
            return {
                "count": self._count,
                "sum": self.sum,
                "min": self.min,
                "max": self.max,
                "p50": self._percentile(0.50),
                "p95": self._percentile(0.95),
                "p99": self._percentile(0.99),
            }

    def _reset(self) -> None:
        with self._lock:
            self._fed()  # what is held was before the reset
            self.bucket_counts = [0] * (len(self.buckets) + 1)
            self._count = 0
            self.sum = 0.0
            self.min = math.inf
            self.max = -math.inf


class MetricsRegistry:
    """Name+labels-keyed store of all platform metrics.

    Get-or-create runs under a registry lock so two threads asking for
    the same ``(name, labels)`` always share one handle — two distinct
    handles would silently split (and lose) increments.

    A counter or gauge can also be *derived*: read off someone else's
    table whenever the registry is read (:meth:`derive`) rather than
    pushed per event.  Its value is what was pushed under its name, if
    anything, plus what every source derives.
    """

    def __init__(self) -> None:
        self._counters: dict[_MetricKey, Counter] = {}
        #: Every counter's value, in registration order (``Counter``).
        self._counter_cells = array("d")
        self._gauges: dict[_MetricKey, Gauge] = {}
        self._histograms: dict[_MetricKey, Histogram] = {}
        #: Source of derived series -> the name prefixes it serves.
        self._sources: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()
        #: Every histogram's lock: one acquisition covers all a record
        #: store folds (it folds under this lock, not one of its own).
        self.samples = threading.Lock()

    # -- handles ------------------------------------------------------------

    def counter(self, name: str, labels: dict[str, str] | None = None) -> Counter:
        """Get-or-create a counter; the handle survives :meth:`reset`."""
        key = (name, _label_key(labels))
        with self._lock:
            if key not in self._counters:
                self._counters[key] = Counter(
                    name, key[1], self._counter_cells,
                    lambda: self._derived_part(("counter", *key)),
                )
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
                self._histograms[key] = Histogram(
                    name, key[1], buckets, self.samples, self._settle
                )
            return self._histograms[key]

    def histograms(self, name: str | None = None) -> list[Histogram]:
        """All registered histograms, optionally filtered by name."""
        with self.samples:
            self._settle()
        with self._lock:
            candidates = list(self._histograms.values())
        return [h for h in candidates if name is None or h.name == name]

    # -- derived series -----------------------------------------------------

    def _settle(self) -> None:
        """Hand every histogram the samples its sources hold (a source
        with a ``settle``: a record store); ``samples`` is held."""
        with self._lock:
            sources = list(self._sources)
        for source in sources:
            settle = getattr(source, "settle", None)
            if settle is not None:
                settle()

    def derive(self, names: tuple[str, ...], source: object) -> None:
        """Serve the counters and gauges whose names start with one of
        ``names`` off ``source.series()`` — ``{(kind, name, label key):
        value}``, read at every :meth:`snapshot`, :meth:`counter_values`
        and :meth:`render_prometheus`, and by a counter handle's
        ``value``.  Held weakly: a source nobody holds derives nothing."""
        with self._lock:
            self._sources[source] = names

    def _derived_part(self, series: tuple) -> float:
        """What the sources derive of one ``(kind, name, labels)``."""
        with self._lock:
            claimed = any(series[1].startswith(names) for names in self._sources.values())
        return self._derived().get(series, 0.0) if claimed else 0.0

    def _derived(self) -> dict[tuple, float]:
        """Every source's series, summed where two derive one."""
        with self._lock:
            sources = list(self._sources)
        out: dict[tuple, float] = {}
        for source in sources:
            for key, value in source.series().items():
                out[key] = out.get(key, 0.0) + value
        return out

    def _values(self) -> tuple[dict[_MetricKey, float], dict[_MetricKey, float]]:
        """``(counters, gauges)``: pushed plus derived, by key."""
        with self._lock:
            counters = {key: c._cells[c._at] for key, c in self._counters.items()}
            gauges = {key: g.value for key, g in self._gauges.items()}
        for (kind, name, labels), value in self._derived().items():
            of_kind = counters if kind == "counter" else gauges
            of_kind[name, labels] = of_kind.get((name, labels), 0.0) + value
        return counters, gauges

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Zero every pushed metric *in place* — existing handles stay
        valid; a derived series is zeroed by resetting its source."""
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
        counters, _ = self._values()
        return {_flat_name(*key): value for key, value in counters.items()}

    def counter_snapshot(self) -> array:
        """Pushed counter values by position, in registration order.

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
        counters, gauges = self._values()
        with self._lock:
            histograms = list(self._histograms.values())
        return {
            "counters": {_flat_name(*key): value for key, value in counters.items()},
            "gauges": {_flat_name(*key): value for key, value in gauges.items()},
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

        counters, gauges = self._values()
        with self._lock:
            histograms = list(self._histograms.values())
        for kind, values in (("counter", counters), ("gauge", gauges)):
            for metric, labels in sorted(values):
                name = _prom_name(metric)
                type_line(name, kind)
                lines.append(f"{name}{label_str(labels)} {values[metric, labels]:g}")
        for hist in sorted(histograms, key=lambda h: (h.name, h.labels)):
            name = _prom_name(hist.name)
            type_line(name, "histogram")
            with hist._lock:
                hist._fed()
                bucket_counts = list(hist.bucket_counts)
                hist_sum, hist_count = hist.sum, hist._count
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
