"""Tests for the Field-of-View sector model (paper Fig. 3)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GeoError
from repro.geo import (
    BoundingBox,
    FieldOfView,
    GeoPoint,
    destination_point,
)

camera_st = st.builds(
    GeoPoint,
    lat=st.floats(min_value=-60.0, max_value=60.0, allow_nan=False),
    lng=st.floats(min_value=-170.0, max_value=170.0, allow_nan=False),
)
fov_st = st.builds(
    FieldOfView,
    camera=camera_st,
    direction_deg=st.floats(min_value=0.0, max_value=359.9, allow_nan=False),
    angle_deg=st.floats(min_value=10.0, max_value=180.0, allow_nan=False),
    range_m=st.floats(min_value=10.0, max_value=2_000.0, allow_nan=False),
)


def make_fov(direction=0.0, angle=60.0, range_m=100.0):
    return FieldOfView(GeoPoint(34.0, -118.0), direction, angle, range_m)


class TestValidation:
    def test_bad_angle_raises(self):
        with pytest.raises(GeoError):
            make_fov(angle=0.0)
        with pytest.raises(GeoError):
            make_fov(angle=361.0)

    def test_bad_range_raises(self):
        with pytest.raises(GeoError):
            make_fov(range_m=0.0)

    @pytest.mark.parametrize("field", ["direction", "angle", "range_m"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_geometry_raises(self, field, value):
        """``nan <= 0.0`` is false and a non-finite bearing normalises
        to 0.0: neither slipped through to ``mbr()`` any more."""
        with pytest.raises(GeoError):
            make_fov(**{field: value})

    def test_direction_normalised(self):
        assert make_fov(direction=370.0).direction_deg == pytest.approx(10.0)
        assert make_fov(direction=-10.0).direction_deg == pytest.approx(350.0)


class TestContainsPoint:
    def test_camera_location_is_contained(self):
        fov = make_fov()
        assert fov.contains_point(fov.camera)

    def test_point_ahead_within_range(self):
        fov = make_fov(direction=0.0, angle=60.0, range_m=200.0)
        ahead = destination_point(fov.camera, 0.0, 100.0)
        assert fov.contains_point(ahead)

    def test_point_behind_not_contained(self):
        fov = make_fov(direction=0.0, angle=60.0, range_m=200.0)
        behind = destination_point(fov.camera, 180.0, 100.0)
        assert not fov.contains_point(behind)

    def test_point_beyond_range_not_contained(self):
        fov = make_fov(direction=0.0, angle=60.0, range_m=200.0)
        far = destination_point(fov.camera, 0.0, 250.0)
        assert not fov.contains_point(far)

    def test_point_outside_angle_not_contained(self):
        fov = make_fov(direction=0.0, angle=60.0, range_m=200.0)
        side = destination_point(fov.camera, 45.0, 100.0)
        assert not fov.contains_point(side)

    def test_point_just_inside_angle(self):
        fov = make_fov(direction=0.0, angle=60.0, range_m=200.0)
        edge = destination_point(fov.camera, 29.0, 100.0)
        assert fov.contains_point(edge)

    @given(fov_st, st.floats(min_value=0.05, max_value=0.95), st.floats(min_value=-0.45, max_value=0.45))
    def test_interior_sample_always_contained(self, fov, radial_frac, angular_frac):
        bearing = fov.direction_deg + angular_frac * fov.angle_deg
        p = destination_point(fov.camera, bearing, radial_frac * fov.range_m)
        assert fov.contains_point(p)


class TestMBR:
    @given(fov_st)
    def test_mbr_contains_camera_and_boundary(self, fov):
        box = fov.mbr()
        assert box.contains_point(fov.camera)
        for p in fov.boundary_points(12):
            assert box.min_lat - 1e-9 <= p.lat <= box.max_lat + 1e-9
            assert box.min_lng - 1e-9 <= p.lng <= box.max_lng + 1e-9

    def test_north_facing_mbr_bulges_north(self):
        fov = make_fov(direction=0.0, angle=90.0, range_m=500.0)
        box = fov.mbr()
        # Almost all of the box should be north of the camera.
        assert box.max_lat - fov.camera.lat > 10 * (fov.camera.lat - box.min_lat)

    def test_full_circle_mbr_symmetric(self):
        fov = make_fov(direction=0.0, angle=360.0, range_m=500.0)
        box = fov.mbr()
        north = box.max_lat - fov.camera.lat
        south = fov.camera.lat - box.min_lat
        assert north == pytest.approx(south, rel=0.01)


class TestIntersectsBox:
    def test_box_containing_camera(self):
        fov = make_fov()
        assert fov.intersects_box(BoundingBox.around(fov.camera, 10.0))

    def test_box_in_front(self):
        fov = make_fov(direction=0.0, angle=60.0, range_m=500.0)
        ahead = destination_point(fov.camera, 0.0, 250.0)
        assert fov.intersects_box(BoundingBox.around(ahead, 20.0))

    def test_box_behind(self):
        fov = make_fov(direction=0.0, angle=60.0, range_m=500.0)
        behind = destination_point(fov.camera, 180.0, 250.0)
        assert not fov.intersects_box(BoundingBox.around(behind, 20.0))

    def test_distant_box(self):
        fov = make_fov(range_m=100.0)
        far = destination_point(fov.camera, 0.0, 50_000.0)
        assert not fov.intersects_box(BoundingBox.around(far, 100.0))


class TestOverlap:
    def test_same_fov_overlaps_itself(self):
        fov = make_fov()
        assert fov.overlaps_fov(fov)

    def test_facing_each_other(self):
        a = make_fov(direction=0.0, angle=60.0, range_m=300.0)
        cam_b = destination_point(a.camera, 0.0, 400.0)
        b = FieldOfView(cam_b, 180.0, 60.0, 300.0)
        assert a.overlaps_fov(b)

    def test_back_to_back_disjoint(self):
        a = make_fov(direction=0.0, angle=60.0, range_m=200.0)
        b = FieldOfView(a.camera, 180.0, 60.0, 200.0)
        # Sectors share only the apex; apex containment counts as overlap.
        assert a.overlaps_fov(b)

    def test_far_apart_disjoint(self):
        a = make_fov(range_m=100.0)
        cam_b = destination_point(a.camera, 90.0, 10_000.0)
        b = FieldOfView(cam_b, 0.0, 60.0, 100.0)
        assert not a.overlaps_fov(b)


class TestMisc:
    def test_coverage_area(self):
        fov = make_fov(angle=90.0, range_m=100.0)
        # Quarter circle of radius 100: pi * 100^2 / 4.
        assert fov.coverage_area_m2() == pytest.approx(7853.98, rel=1e-4)

    def test_direction_matches(self):
        fov = make_fov(direction=10.0)
        assert fov.direction_matches(350.0, tolerance_deg=30.0)
        assert not fov.direction_matches(180.0, tolerance_deg=30.0)

    def test_midpoint_on_axis(self):
        fov = make_fov(direction=90.0, range_m=400.0)
        mid = fov.midpoint()
        assert fov.contains_point(mid)

    @given(fov_st)
    def test_dict_round_trip(self, fov):
        restored = FieldOfView.from_dict(fov.to_dict())
        assert restored.camera == fov.camera
        assert restored.direction_deg == pytest.approx(fov.direction_deg)
        assert restored.angle_deg == fov.angle_deg
        assert restored.range_m == fov.range_m

    def test_boundary_points_count(self):
        assert len(make_fov().boundary_points(10)) == 10
        with pytest.raises(GeoError):
            make_fov().boundary_points(1)
