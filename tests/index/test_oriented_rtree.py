"""Tests for the Oriented R-tree (direction-aware FOV index)."""

import numpy as np
import pytest

from repro.errors import IndexError_
from repro.geo import BoundingBox, FieldOfView, GeoPoint, destination_point
from repro.index import OrientedRTree, direction_mask, SECTORS


def make_fovs(n, seed=0):
    rng = np.random.default_rng(seed)
    fovs = []
    for _ in range(n):
        camera = GeoPoint(float(rng.uniform(33.9, 34.1)), float(rng.uniform(-118.5, -118.3)))
        fovs.append(
            FieldOfView(
                camera,
                float(rng.uniform(0, 360)),
                float(rng.uniform(40, 80)),
                float(rng.uniform(50, 300)),
            )
        )
    return fovs


class TestDirectionMask:
    def test_zero_tolerance_single_sector_band(self):
        mask = direction_mask(0.0, tolerance_deg=0.0)
        assert mask != 0
        assert bin(mask).count("1") <= 2  # boundary bearings touch 2 sectors

    def test_full_tolerance_all_sectors(self):
        mask = direction_mask(123.0, tolerance_deg=180.0)
        assert mask == (1 << SECTORS) - 1

    def test_opposite_directions_disjoint(self):
        north = direction_mask(0.0, tolerance_deg=20.0)
        south = direction_mask(180.0, tolerance_deg=20.0)
        assert north & south == 0

    def test_wraparound(self):
        near_north = direction_mask(355.0, tolerance_deg=15.0)
        also_north = direction_mask(5.0, tolerance_deg=15.0)
        assert near_north & also_north != 0


class TestOrientedRTree:
    def test_insert_and_len(self):
        index = OrientedRTree()
        for i, fov in enumerate(make_fovs(20)):
            index.insert(i, fov)
        assert len(index) == 20

    def test_duplicate_item_raises(self):
        index = OrientedRTree()
        fov = make_fovs(1)[0]
        index.insert("a", fov)
        with pytest.raises(IndexError_):
            index.insert("a", fov)

    def test_range_matches_brute_force(self):
        fovs = make_fovs(150, seed=1)
        index = OrientedRTree(max_entries=6)
        for i, fov in enumerate(fovs):
            index.insert(i, fov)
        query = BoundingBox(33.95, -118.45, 34.05, -118.35)
        expected = {i for i, fov in enumerate(fovs) if fov.intersects_box(query)}
        assert set(index.search_range(query)) == expected

    def test_direction_filter_matches_brute_force(self):
        fovs = make_fovs(150, seed=2)
        index = OrientedRTree(max_entries=6)
        for i, fov in enumerate(fovs):
            index.insert(i, fov)
        query = BoundingBox(33.9, -118.5, 34.1, -118.3)
        expected = {
            i
            for i, fov in enumerate(fovs)
            if fov.intersects_box(query) and fov.direction_matches(90.0, 30.0)
        }
        got = set(index.search_range(query, direction_deg=90.0, tolerance_deg=30.0))
        assert got == expected

    def test_search_point_finds_depicting_images(self):
        index = OrientedRTree()
        scene = GeoPoint(34.0, -118.4)
        camera = destination_point(scene, 180.0, 100.0)  # south of scene
        looking_at = FieldOfView(camera, 0.0, 60.0, 200.0)  # looks north
        looking_away = FieldOfView(camera, 180.0, 60.0, 200.0)
        index.insert("at", looking_at)
        index.insert("away", looking_away)
        found = index.search_point(scene.lat, scene.lng)
        assert found == ["at"]

    def test_search_point_direction_filter(self):
        index = OrientedRTree()
        scene = GeoPoint(34.0, -118.4)
        camera = destination_point(scene, 180.0, 100.0)
        index.insert("north_facing", FieldOfView(camera, 0.0, 60.0, 200.0))
        assert index.search_point(scene.lat, scene.lng, direction_deg=0.0) == [
            "north_facing"
        ]
        assert index.search_point(scene.lat, scene.lng, direction_deg=180.0) == []

    def test_search_overlapping(self):
        index = OrientedRTree()
        base = GeoPoint(34.0, -118.4)
        a = FieldOfView(base, 0.0, 60.0, 200.0)
        far_camera = destination_point(base, 90.0, 5_000.0)
        b = FieldOfView(far_camera, 0.0, 60.0, 200.0)
        index.insert("a", a)
        index.insert("b", b)
        hits = index.search_overlapping(FieldOfView(base, 0.0, 90.0, 150.0))
        assert "a" in hits and "b" not in hits
