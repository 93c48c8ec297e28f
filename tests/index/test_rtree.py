"""Tests for the R-tree, validated against brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.geo import BoundingBox, GeoPoint
from repro.index import RTree


def random_points(n, seed=0, region=(33.7, -118.7, 34.3, -118.1)):
    rng = np.random.default_rng(seed)
    lats = rng.uniform(region[0], region[2], n)
    lngs = rng.uniform(region[1], region[3], n)
    return [GeoPoint(float(a), float(b)) for a, b in zip(lats, lngs)]


class TestInsertAndStructure:
    def test_empty(self):
        tree = RTree()
        assert len(tree) == 0
        assert tree.search_range(BoundingBox(-90, -180, 90, 180)) == []

    def test_size_tracks_inserts(self):
        tree = RTree()
        for i, p in enumerate(random_points(50)):
            tree.insert_point(i, p)
        assert len(tree) == 50
        assert sorted(tree.search_range(BoundingBox(-90, -180, 90, 180))) == list(range(50))

    def test_height_grows_logarithmically(self):
        tree = RTree(max_entries=4)
        for i, p in enumerate(random_points(200)):
            tree.insert_point(i, p)
        node, height = tree._root, 1
        while not node.leaf:
            node, height = node.entries[0], height + 1
        assert 2 <= height <= 8

    def test_min_fanout_enforced(self):
        with pytest.raises(IndexError_):
            RTree(max_entries=3)


class TestRangeSearch:
    def test_matches_brute_force(self):
        points = random_points(300, seed=1)
        tree = RTree(max_entries=6)
        for i, p in enumerate(points):
            tree.insert_point(i, p)
        query = BoundingBox(33.9, -118.5, 34.1, -118.3)
        expected = {i for i, p in enumerate(points) if query.contains_point(p)}
        assert set(tree.search_range(query)) == expected

    def test_box_entries(self):
        tree = RTree()
        tree.insert("wide", BoundingBox(0.0, 0.0, 10.0, 10.0))
        tree.insert("narrow", BoundingBox(20.0, 20.0, 21.0, 21.0))
        assert set(tree.search_range(BoundingBox(5.0, 5.0, 6.0, 6.0))) == {"wide"}
        assert set(tree.search_range(BoundingBox(0.0, 0.0, 30.0, 30.0))) == {
            "wide",
            "narrow",
        }

    def test_disjoint_query_empty(self):
        tree = RTree()
        for i, p in enumerate(random_points(50)):
            tree.insert_point(i, p)
        assert tree.search_range(BoundingBox(80.0, 170.0, 81.0, 171.0)) == []

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_queries_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        points = random_points(80, seed=seed)
        tree = RTree(max_entries=5)
        for i, p in enumerate(points):
            tree.insert_point(i, p)
        lat0, lng0 = rng.uniform(33.7, 34.3), rng.uniform(-118.7, -118.1)
        query = BoundingBox(lat0, lng0, min(lat0 + 0.2, 90), min(lng0 + 0.2, 180))
        expected = {i for i, p in enumerate(points) if query.contains_point(p)}
        assert set(tree.search_range(query)) == expected
