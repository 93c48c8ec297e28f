"""The hot-query view: ranking, bounded memory, determinism, threads.

Ported from the ``HotQueryTracker`` suite case by case.  The table is a
``Rollup`` — the one keyed-rollup class, here over query shapes — and
its bound is the rollup's one prune rule; the store's ``record`` /
``top`` / ``tracked`` are what ``obs.hot_queries()`` and ``/debug/hot``
go through.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs.record import RecordStore, Rollup


class TestRecordAndTop:
    def test_rejects_bad_capacity_and_k(self):
        with pytest.raises(ValueError):
            Rollup(capacity=0)
        with pytest.raises(ValueError):
            RecordStore().top(0)

    def test_aggregates_per_shape(self):
        tracker = RecordStore()
        tracker.record("spatial(mode=scene,region)", 10.0)
        tracker.record("spatial(mode=scene,region)", 30.0)
        (entry,) = tracker.top(1)
        assert entry["shape"] == "spatial(mode=scene,region)"
        assert entry["count"] == 2
        assert entry["total_ms"] == 40.0
        assert entry["mean_ms"] == 20.0
        assert entry["max_ms"] == 30.0
        assert entry["last_ms"] == 30.0

    def test_ranked_by_count_then_shape(self):
        tracker = RecordStore()
        for _ in range(5):
            tracker.record("frequent", 1.0)
        for _ in range(3):
            tracker.record("slow", 100.0)
        for _ in range(3):
            tracker.record("fast", 1.0)
        # Equal counts order by shape string, never by measured latency.
        shapes = [e["shape"] for e in tracker.top(3)]
        assert shapes == ["frequent", "fast", "slow"]

    def test_tie_break_is_deterministic_on_shape(self):
        tracker = RecordStore()
        tracker.record("b", 5.0)
        tracker.record("a", 5.0)
        assert [e["shape"] for e in tracker.top(2)] == ["a", "b"]

    def test_top_k_truncates(self):
        tracker = RecordStore()
        for i in range(20):
            tracker.record(f"shape-{i:02d}", 1.0)
        assert len(tracker.top(5)) == 5
        assert tracker.tracked() == (20, 0)

    def test_clear(self):
        tracker = RecordStore()
        tracker.record("x", 1.0)
        tracker.reset()
        assert tracker.top() == []
        assert tracker.tracked() == (0, 0)


class TestEviction:
    def test_cold_shapes_pruned_hot_shapes_survive(self):
        tracker = Rollup(capacity=4)
        for _ in range(50):
            tracker.add("hot", 2.0)
        # A long tail of one-off shapes overflows 2x capacity.
        for i in range(20):
            tracker.add(f"tail-{i:02d}", 1.0)
        assert len(tracker.rows) <= tracker.capacity * 2
        assert tracker.evicted > 0
        assert tracker.hottest(1)[0]["shape"] == "hot"

    def test_eviction_is_deterministic(self):
        def run() -> list[str]:
            tracker = Rollup(capacity=3)
            for i in range(30):
                tracker.add(f"shape-{i % 10}", float(i % 7))
            return [e["shape"] for e in tracker.hottest(10)]

        assert run() == run()

    def test_prune_keeps_by_count_then_time_then_key(self):
        """The one bounded-prune rule, spelt out: the ``capacity`` rows
        that survive are the most counted, then the most time, then the
        smallest key — in every key space."""
        tracker = Rollup(capacity=2)
        tracker.add("twice", 1.0)
        tracker.add("twice", 1.0)
        tracker.add("once-slow", 9.0)
        tracker.add("once-b", 1.0)
        assert tracker.evicted == 0 and len(tracker.rows) == 3
        tracker.add("once-a", 1.0)
        assert tracker.evicted == 0 and len(tracker.rows) == 4  # 2 x capacity
        tracker.add("newcomer", 1.0)  # the fifth key prunes, then enters
        assert tracker.evicted == 2
        assert sorted(tracker.rows) == ["newcomer", "once-slow", "twice"]


class TestThreadSafety:
    def test_concurrent_records_lose_nothing(self):
        tracker = RecordStore()
        n_threads, per_thread = 8, 250
        barrier = threading.Barrier(n_threads)

        def hammer(worker: int) -> None:
            barrier.wait()
            for i in range(per_thread):
                tracker.record(f"shape-{(worker + i) % 4}", float(i % 10))

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert sum(e["count"] for e in tracker.top(10)) == n_threads * per_thread


class TestDeterministicRanking:
    def test_equal_counts_rank_by_shape_not_latency(self):
        """total_ms is wall-clock noise; two shapes with the same count
        must order by shape string no matter which was slower."""
        tracker = RecordStore()
        tracker.record("zeta(k=1)", 500.0)   # slow
        tracker.record("alpha(k=1)", 0.1)    # fast
        tracker.record("mid(k=1)", 100.0)
        shapes = [e["shape"] for e in tracker.top(3)]
        assert shapes == ["alpha(k=1)", "mid(k=1)", "zeta(k=1)"]

    def test_ranking_invariant_under_latency_jitter(self):
        def run(jitter: float) -> list[str]:
            tracker = RecordStore()
            for shape in ("b(k=1)", "a(k=1)", "c(k=1)"):
                tracker.record(shape, jitter)
                tracker.record(shape, jitter * 2)
            tracker.record("a(k=1)", jitter)  # a is genuinely hotter
            return [e["shape"] for e in tracker.top(3)]

        assert run(1.0) == run(997.0) == ["a(k=1)", "b(k=1)", "c(k=1)"]
