"""Runtime companion to the concurrency lints: hammer the structures the
``thread-escape`` pass classifies as shared and assert exact results.

Unlocked ``value += n`` / ``list.append`` paths lose updates under
thread switches; lowering the switch interval makes the interleavings
the lint reasons about actually happen.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.geo.point import BoundingBox, GeoPoint
from repro.index.grid import GridIndex
from repro.index.lsh import LSHIndex
from repro.index.rtree import RTree
from repro.obs.metrics import MetricsRegistry

THREADS = 8
OPS = 2_000


@pytest.fixture(autouse=True)
def aggressive_switching():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(previous)


def hammer(worker, n_threads: int = THREADS) -> None:
    """Run ``worker(thread_index)`` on N threads, rethrowing any failure."""
    errors: list[BaseException] = []
    barrier = threading.Barrier(n_threads)

    def run(index: int) -> None:
        try:
            barrier.wait()
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - test harness relay
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestMetricsRegistryUnderThreads:
    def test_counter_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("race.counter")
        hammer(lambda _i: [counter.inc() for _ in range(OPS)])
        assert counter.value == THREADS * OPS

    def test_get_or_create_yields_one_handle(self):
        """All threads racing the registry must share a single counter —
        distinct handles would silently split the total."""
        registry = MetricsRegistry()

        def worker(_index: int) -> None:
            for _ in range(OPS // 10):
                registry.counter("race.shared", {"kind": "get-or-create"}).inc()

        hammer(worker)
        (counter,) = [
            registry.counter("race.shared", {"kind": "get-or-create"})
        ]
        assert counter.value == THREADS * (OPS // 10)

    def test_histogram_observations_are_exact(self):
        registry = MetricsRegistry()
        hist = registry.histogram("race.latency")

        def worker(index: int) -> None:
            for i in range(OPS // 4):
                hist.observe(float(index * OPS + i) % 7.0)

        hammer(worker)
        summary = hist.summary()
        assert summary["count"] == THREADS * (OPS // 4)
        assert sum(hist.bucket_counts) == THREADS * (OPS // 4)

    def test_snapshot_while_writing_does_not_crash(self):
        registry = MetricsRegistry()

        def worker(index: int) -> None:
            for i in range(200):
                if index == 0:
                    registry.snapshot()
                    registry.render_prometheus()
                else:
                    registry.counter("race.mixed", {"t": str(index)}).inc()
                    registry.histogram("race.mixed.ms").observe(float(i))

        hammer(worker)
        snapshot = registry.snapshot()
        total = sum(
            value
            for key, value in snapshot["counters"].items()
            if key.startswith("race.mixed")
        )
        assert total == (THREADS - 1) * 200


class TestIndexesUnderThreads:
    def test_rtree_concurrent_inserts_all_land(self):
        tree = RTree(max_entries=8)
        per_thread = 150

        def worker(index: int) -> None:
            for i in range(per_thread):
                lat = 34.0 + (index * per_thread + i) * 1e-4
                lng = -118.3 + (index * per_thread + i) * 1e-4
                tree.insert_point((index, i), GeoPoint(lat, lng))

        hammer(worker)
        assert len(tree) == THREADS * per_thread
        assert len(tree.all_items()) == THREADS * per_thread
        everywhere = BoundingBox(-90.0, -180.0, 90.0, 180.0)
        assert len(tree.search_range(everywhere)) == THREADS * per_thread

    def test_grid_concurrent_inserts_all_land(self):
        region = BoundingBox(34.0, -118.4, 34.2, -118.2)
        grid = GridIndex(region, rows=16, cols=16)
        per_thread = 300

        def worker(index: int) -> None:
            for i in range(per_thread):
                lat = 34.0 + ((index * per_thread + i) % 1000) * 2e-4
                grid.insert((index, i), GeoPoint(lat, -118.3))

        hammer(worker)
        assert len(grid) == THREADS * per_thread
        assert len(grid.search_range(region)) == THREADS * per_thread

    def test_lsh_concurrent_inserts_and_queries(self):
        rng = np.random.default_rng(7)
        index = LSHIndex(dimension=8, n_tables=4, n_projections=6, seed=1)
        per_thread = 100
        vectors = rng.normal(size=(THREADS * per_thread, 8))

        def worker(thread: int) -> None:
            for i in range(per_thread):
                row = thread * per_thread + i
                index.insert(row, vectors[row])
                if i % 10 == 0:
                    # Interleave reads so the dense-matrix cache is
                    # rebuilt while other threads insert.
                    index.linear_topk(vectors[row], k=3)

        hammer(worker)
        assert len(index) == THREADS * per_thread
        top = index.linear_topk(vectors[0], k=1)
        assert top[0][0] == 0
