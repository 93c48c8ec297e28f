"""Rolling latency windows — the record store's time ring read per span
name: bucketing, expiry, percentiles, threads.

Ported from the ``RollingWindows`` suite case by case: samples get in
the way they do in production, as the spans of a folded record, and are
read back as ``RecordStore.window`` / ``window_summaries``.  Two cases
went with what they tested — the ring's geometry and bucket bounds are
constants now, so no constructor takes a bad one (unsorted bounds are
still refused by ``Histogram``, ``test_metrics.py``).
"""

from __future__ import annotations

import threading

import pytest

from repro.obs.record import RecordStore, RequestRecord
from repro.obs.tracing import Span


class FakeClock:
    """Manual ``now()`` for driving window expiry without sleeping."""

    def __init__(self, start: float = 0.0) -> None:
        self.t = start

    def now(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def windows(clock):
    return RecordStore(clock=clock.now)


def observe(store: RecordStore, key: str, value_ms: float) -> None:
    """One finished span named ``key`` taking ``value_ms``, folded."""
    span = Span(name=key, trace_id="t", span_id="s", parent_id=None)
    span.duration_ms = float(value_ms)
    store.fold(RequestRecord(spans=(span,)))


def count(store: RecordStore, key: str) -> int:
    window = store.window(key).get(key)
    return window.count if window is not None else 0


def percentile(store: RecordStore, key: str, q: float) -> float | None:
    window = store.window(key).get(key)
    return window.percentile(q) if window is not None else None


def summary(store: RecordStore, key: str) -> dict | None:
    return store.window_summaries().get(key)


class TestConstruction:
    def test_accepts_bare_callable_clock(self):
        w = RecordStore(clock=lambda: 42.0)
        observe(w, "k", 1.0)
        assert count(w, "k") == 1

    def test_rejects_clockless_object(self):
        with pytest.raises(TypeError):
            RecordStore(clock=object())


class TestObserveAndExpiry:
    def test_empty_window_reports_nothing(self, windows):
        assert count(windows, "query.spatial") == 0
        assert percentile(windows, "query.spatial", 0.95) is None
        assert summary(windows, "query.spatial") is None
        assert windows.window_summaries() == {}

    def test_observations_accumulate_within_window(self, windows, clock):
        for i in range(10):
            observe(windows, "op", float(i + 1))
            clock.advance(1.0)
        assert count(windows, "op") == 10
        got = summary(windows, "op")
        assert got["count"] == 10
        assert got["min"] == 1.0
        assert got["max"] == 10.0
        assert got["sum"] == pytest.approx(55.0)
        assert got["window_s"] == 60.0

    def test_old_samples_age_out(self, windows, clock):
        observe(windows, "op", 100.0)
        clock.advance(30.0)
        observe(windows, "op", 200.0)
        assert count(windows, "op") == 2
        # First sample's bucket falls outside the 60 s window...
        clock.advance(35.0)
        assert count(windows, "op") == 1
        assert summary(windows, "op")["max"] == 200.0
        # ...and eventually the second does too.
        clock.advance(60.0)
        assert count(windows, "op") == 0
        assert summary(windows, "op") is None

    def test_ring_slot_recycled_after_full_wrap(self, windows, clock):
        observe(windows, "op", 50.0)
        clock.advance(60.0)  # exactly one full window later
        observe(windows, "op", 70.0)
        assert count(windows, "op") == 1
        assert summary(windows, "op")["min"] == 70.0

    def test_keys_are_independent(self, windows):
        observe(windows, "a", 10.0)
        observe(windows, "b", 20.0)
        assert count(windows, "a") == 1
        assert count(windows, "b") == 1
        assert set(windows.window_summaries()) == {"a", "b"}

    def test_reset_drops_everything(self, windows):
        observe(windows, "op", 5.0)
        windows.reset()
        assert count(windows, "op") == 0
        assert windows.window_summaries() == {}


class TestPercentiles:
    def test_q_zero_is_min_and_q_one_within_range(self, windows):
        for value in (10.0, 20.0, 30.0, 40.0):
            observe(windows, "op", value)
        assert percentile(windows, "op", 0.0) == 10.0
        p100 = percentile(windows, "op", 1.0)
        assert 10.0 <= p100 <= 40.0

    def test_overflow_bucket_reports_observed_max(self, windows):
        observe(windows, "op", 99_999.0)  # beyond the largest bound
        assert percentile(windows, "op", 0.95) == 99_999.0

    def test_percentile_is_monotone_in_q(self, windows):
        for value in (1.0, 5.0, 9.0, 48.0, 120.0, 500.0):
            observe(windows, "op", value)
        quantiles = [percentile(windows, "op", q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert quantiles == sorted(quantiles)

    def test_rejects_out_of_range_q(self, windows):
        observe(windows, "op", 1.0)
        with pytest.raises(ValueError):
            percentile(windows, "op", 1.5)

    def test_window_percentile_tracks_recent_not_historic(self, windows, clock):
        # Old regime: fast. New regime: slow. The window must forget.
        for _ in range(50):
            observe(windows, "op", 5.0)
        clock.advance(70.0)
        for _ in range(50):
            observe(windows, "op", 400.0)
        assert percentile(windows, "op", 0.5) > 100.0

    def test_window_and_cumulative_share_the_one_percentile(self, clock):
        """The window is the live slots' histograms merged and read by
        ``Histogram.percentile`` — the same samples in one cumulative
        histogram answer identically, at every q."""
        from repro.obs.metrics import MetricsRegistry

        store = RecordStore(registry=MetricsRegistry(), clock=clock.now)
        for i, value in enumerate((0.07, 0.3, 0.3, 2.0, 9.0, 48.0, 120.0, 7_000.0)):
            observe(store, "op", value)
            clock.advance(6.0)  # every sample in a slot of its own
        cumulative = store.registry.histogram("span.duration_ms", {"span": "op"})
        for q in (0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0):
            assert percentile(store, "op", q) == cumulative.percentile(q)


class TestThreadSafety:
    def test_concurrent_observers_lose_nothing(self, windows):
        n_threads, per_thread = 8, 200
        barrier = threading.Barrier(n_threads)

        def hammer(offset: int) -> None:
            barrier.wait()
            for i in range(per_thread):
                observe(windows, "op", float(offset + i % 50))

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert count(windows, "op") == n_threads * per_thread
