"""Property tests on geospatial and ML invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geo import (
    BoundingBox,
    FieldOfView,
    GeoPoint,
    destination_point,
    haversine_m,
    scene_location,
)
from repro.ml import KMeans, StandardScaler, accuracy, confusion_matrix, f1_score

camera = st.builds(
    GeoPoint,
    lat=st.floats(min_value=-60.0, max_value=60.0, allow_nan=False),
    lng=st.floats(min_value=-170.0, max_value=170.0, allow_nan=False),
)
fovs = st.builds(
    FieldOfView,
    camera=camera,
    direction_deg=st.floats(0.0, 359.9, allow_nan=False),
    angle_deg=st.floats(20.0, 120.0, allow_nan=False),
    range_m=st.floats(20.0, 1_000.0, allow_nan=False),
)


class TestGeoProperties:
    @settings(max_examples=60, deadline=None)
    @given(fovs, st.floats(0.05, 0.95), st.floats(-0.45, 0.45))
    def test_scene_location_contains_visible_points(self, fov, rfrac, afrac):
        point = destination_point(
            fov.camera, fov.direction_deg + afrac * fov.angle_deg, rfrac * fov.range_m
        )
        assert scene_location(fov).contains_point(point)

    @settings(max_examples=60, deadline=None)
    @given(fovs, camera)
    def test_contains_implies_within_range(self, fov, point):
        if fov.contains_point(point):
            assert haversine_m(fov.camera, point) <= fov.range_m + 1e-6

    @settings(max_examples=60, deadline=None)
    @given(fovs, camera, st.floats(1.0, 500.0))
    # The camera 1.1 m south of the box centre, 0.1 m outside the box:
    # only the radial edges crossing its south side witness the hit.
    @example(FieldOfView(GeoPoint(-1e-05, 0.0), 0.0, 20.0, 20.0), GeoPoint(0.0, 0.0), 1.0)
    def test_intersects_box_consistent_with_contains(self, fov, center, radius):
        box = BoundingBox.around(center, radius)
        # If the box centre is visible, the box must intersect the FOV.
        if fov.contains_point(center):
            assert fov.intersects_box(box)

    @settings(max_examples=60, deadline=None)
    @given(camera, camera, camera)
    def test_haversine_triangle_inequality(self, a, b, c):
        assert haversine_m(a, c) <= haversine_m(a, b) + haversine_m(b, c) + 1e-6


labels_st = st.lists(st.integers(0, 3), min_size=2, max_size=40)


class TestMetricProperties:
    @settings(max_examples=60, deadline=None)
    @given(labels_st, st.integers(0, 1000))
    def test_f1_invariant_under_consistent_relabeling(self, ys, seed):
        """Renaming classes (a bijection on labels) must not change
        macro F1."""
        rng = np.random.default_rng(seed)
        y_true = np.array(ys)
        y_pred = rng.permutation(y_true)
        mapping = {0: 10, 1: 11, 2: 12, 3: 13}
        remap = np.vectorize(mapping.get)
        original = f1_score(y_true, y_pred, average="macro")
        renamed = f1_score(remap(y_true), remap(y_pred), average="macro")
        assert original == pytest.approx(renamed)

    @settings(max_examples=60, deadline=None)
    @given(labels_st, st.integers(0, 1000))
    def test_confusion_matrix_row_sums_are_class_counts(self, ys, seed):
        rng = np.random.default_rng(seed)
        y_true = np.array(ys)
        y_pred = rng.permutation(y_true)
        matrix, labels = confusion_matrix(y_true, y_pred)
        for i, label in enumerate(labels):
            assert matrix[i].sum() == np.sum(y_true == label)

    @settings(max_examples=60, deadline=None)
    @given(labels_st)
    def test_accuracy_bounds_micro_f1(self, ys):
        y = np.array(ys)
        rng = np.random.default_rng(0)
        y_pred = rng.permutation(y)
        assert f1_score(y, y_pred, average="micro") == pytest.approx(
            accuracy(y, y_pred)
        )


matrix_st = st.lists(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=3),
    min_size=4,
    max_size=25,
)


class TestMLProperties:
    @settings(max_examples=40, deadline=None)
    @given(matrix_st)
    def test_scaler_is_idempotent_on_scaled_data(self, rows):
        X = np.array(rows)
        Z = StandardScaler().fit_transform(X)
        Z2 = StandardScaler().fit_transform(Z)
        assert np.allclose(Z, Z2, atol=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(matrix_st, st.integers(1, 3))
    def test_kmeans_assignment_is_nearest_centroid(self, rows, k):
        X = np.array(rows)
        k = min(k, len({tuple(r) for r in rows}))
        if k < 1:
            return
        model = KMeans(k=k, seed=0).fit(X)
        assignment = model.predict(X)
        for i, row in enumerate(X):
            distances = np.linalg.norm(model.centroids_ - row, axis=1)
            assert distances[assignment[i]] == pytest.approx(distances.min())
