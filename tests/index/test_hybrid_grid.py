"""Tests for the Visual R*-tree hybrid index and the grid index."""

import numpy as np
import pytest

from repro.errors import IndexError_
from repro.geo import BoundingBox, GeoPoint
from repro.index import GridIndex, VisualRTree


def make_dataset(n=150, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    points = [
        GeoPoint(float(rng.uniform(33.9, 34.1)), float(rng.uniform(-118.5, -118.3)))
        for _ in range(n)
    ]
    vectors = rng.normal(0, 1, (n, dim))
    return points, vectors


class TestVisualRTree:
    def test_insert_and_len(self):
        points, vectors = make_dataset(30)
        index = VisualRTree(dimension=8)
        for i in range(30):
            index.insert(i, points[i], vectors[i])
        assert len(index) == 30

    def test_dimension_validation(self):
        index = VisualRTree(dimension=4)
        with pytest.raises(IndexError_):
            index.insert(0, GeoPoint(0, 0), np.zeros(5))
        with pytest.raises(IndexError_):
            VisualRTree(dimension=0)

    def test_knn_matches_linear_baseline(self):
        points, vectors = make_dataset(n=200, seed=1)
        index = VisualRTree(dimension=8, max_entries=6)
        for i in range(200):
            index.insert(i, points[i], vectors[i])
        region = BoundingBox(33.95, -118.45, 34.05, -118.35)
        query = np.random.default_rng(5).normal(0, 1, 8)
        fast = index.spatial_visual_knn(region, query, k=10)
        slow = index.linear_spatial_visual_knn(region, query, k=10)
        assert [item for item, _ in fast] == [item for item, _ in slow]
        for (_, d_fast), (_, d_slow) in zip(fast, slow):
            assert d_fast == pytest.approx(d_slow)

    def test_spatial_constraint_respected(self):
        points, vectors = make_dataset(n=100, seed=2)
        index = VisualRTree(dimension=8, max_entries=6)
        for i in range(100):
            index.insert(i, points[i], vectors[i])
        region = BoundingBox(33.99, -118.41, 34.01, -118.39)
        inside = {
            i for i, p in enumerate(points) if region.contains_point(p)
        }
        results = index.spatial_visual_knn(region, vectors[0], k=50)
        assert {item for item, _ in results} <= inside

    def test_empty_region_returns_nothing(self):
        points, vectors = make_dataset(20)
        index = VisualRTree(dimension=8)
        for i in range(20):
            index.insert(i, points[i], vectors[i])
        region = BoundingBox(0.0, 0.0, 1.0, 1.0)
        assert index.spatial_visual_knn(region, vectors[0], k=5) == []

    def test_distances_ascending(self):
        points, vectors = make_dataset(n=120, seed=3)
        index = VisualRTree(dimension=8)
        for i in range(120):
            index.insert(i, points[i], vectors[i])
        region = BoundingBox(33.9, -118.5, 34.1, -118.3)
        results = index.spatial_visual_knn(region, vectors[7], k=15)
        distances = [d for _, d in results]
        assert distances == sorted(distances)
        assert results[0][0] == 7

    def test_bad_k(self):
        index = VisualRTree(dimension=4)
        with pytest.raises(IndexError_):
            index.spatial_visual_knn(BoundingBox(0, 0, 1, 1), np.zeros(4), k=0)


class TestGridIndex:
    def region(self):
        return BoundingBox(33.9, -118.5, 34.1, -118.3)

    def test_range_matches_brute_force(self):
        points, _ = make_dataset(n=200, seed=4)
        grid = GridIndex(self.region(), rows=16, cols=16)
        for i, p in enumerate(points):
            grid.insert(i, p)
        query = BoundingBox(33.95, -118.45, 34.0, -118.40)
        expected = {i for i, p in enumerate(points) if query.contains_point(p)}
        assert set(grid.search_range(query)) == expected

    def test_out_of_region_points_still_found(self):
        grid = GridIndex(self.region())
        outside = GeoPoint(40.0, -100.0)
        grid.insert("far", outside)
        assert len(grid) == 1
        hits = grid.search_range(BoundingBox(39.0, -101.0, 41.0, -99.0))
        assert hits == ["far"]
