"""Property tests: each step of a write cycle against the code it replaced.

An upload's histogram, its FOV rectangle and its place in the Visual
R*-tree are computed incrementally or in one pass; the from-scratch
code each of them replaced is kept here as the oracle.  The histogram
and the rectangle must be the same floats; the tree must have the shape
and boxes a full recompute gives at every node, and spheres within
rounding of it (an inner node's radius now comes from one row-wise norm
where the old code took a dot product per child).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import BoundingBox, FieldOfView, GeoPoint
from repro.geo.geodesy import angular_difference_deg
from repro.geo.point import EARTH_RADIUS_M
from repro.imaging import Image, hsv_histogram, rgb_to_hsv
from repro.index import VisualRTree

# -- (a) one-pass HSV histogram ------------------------------------------------------


def per_channel_histogram(image, bins, normalize):
    """``hsv_histogram`` as it was: one ``np.histogram`` per channel."""
    hsv = rgb_to_hsv(image.pixels)
    parts = []
    for channel, nbins in zip(range(3), bins):
        values = hsv[..., channel].ravel()
        hist, _ = np.histogram(values, bins=nbins, range=(0.0, 1.0))
        parts.append(hist.astype(np.float64))
    vector = np.concatenate(parts)
    if normalize:
        vector = vector / float(image.height * image.width)
    return vector


#: Channel values that land HSV values on bin edges, 0.0 and 1.0 (a grey
#: pixel's V is the value itself; ``(1, 1 - s, 1 - s)`` has S within an
#: ulp of ``s``) beside the uint8 grid a decoded upload holds.
on_edges = st.sampled_from(
    sorted({i / n for n in (20, 10, 7, 4, 3) for i in range(n + 1)})
)
channel = st.one_of(
    on_edges,
    on_edges.map(lambda s: 1.0 - s),
    st.integers(0, 255).map(lambda level: level / 255.0),
    st.floats(0.0, 1.0, allow_nan=False),
)
bin_counts = st.one_of(
    st.just((20, 20, 10)), st.tuples(*[st.integers(1, 24)] * 3)
)


@st.composite
def images(draw):
    height, width = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    pixels = draw(
        st.lists(
            st.one_of(
                st.tuples(channel, channel, channel),
                channel.map(lambda v: (v, v, v)),
                channel.map(lambda s: (1.0, 1.0 - s, 1.0 - s)),
            ),
            min_size=height * width,
            max_size=height * width,
        )
    )
    return Image(np.array(pixels).reshape(height, width, 3))


class TestOnePassHistogram:
    @settings(max_examples=300, deadline=None)
    @given(images(), bin_counts, st.booleans())
    def test_equals_one_np_histogram_per_channel(self, image, bins, normalize):
        assert np.array_equal(
            hsv_histogram(image, bins, normalize),
            per_channel_histogram(image, bins, normalize),
        )

    @pytest.mark.parametrize("level", [0.0, 1.0])
    def test_black_and_white_fill_the_end_bins(self, level):
        image = Image(np.full((2, 3, 3), level))
        assert np.array_equal(
            hsv_histogram(image, normalize=False),
            per_channel_histogram(image, (20, 20, 10), False),
        )
        assert hsv_histogram(image, normalize=False)[-1 if level else 40] == 6


# -- (b) incremental Visual R*-tree summaries -------------------------------------------


def recomputed(node):
    """``(box, centroid, radius, count)`` of a node from its entries
    alone — ``_VNode.refresh`` as it ran on every node of every insert."""
    if node.leaf:
        boxes = [e[0] for e in node.entries]
        vectors = np.vstack([e[1] for e in node.entries])
        count = len(node.entries)
    else:
        boxes = [c.box for c in node.entries]
        vectors = np.vstack([c.centroid for c in node.entries])
        count = sum(c.count for c in node.entries)
    box = boxes[0]
    for other in boxes[1:]:
        box = box.union(other)
    centroid = vectors.mean(axis=0)
    if node.leaf:
        radius = float(np.linalg.norm(vectors - centroid, axis=1).max())
    else:
        radius = max(
            float(np.linalg.norm(c.centroid - centroid)) + c.radius
            for c in node.entries
        )
    return box, centroid, radius, count


def vectors_under(node):
    if node.leaf:
        return [e[1] for e in node.entries]
    return [v for child in node.entries for v in vectors_under(child)]


def check_summaries(node):
    box, centroid, radius, count = recomputed(node)
    assert node.box == box and node.count == count
    assert np.abs(node.centroid - centroid).max() <= 1e-12
    assert abs(node.radius - radius) <= 1e-12
    for vector in vectors_under(node):
        assert np.linalg.norm(vector - node.centroid) <= node.radius + 1e-9
    if not node.leaf:
        for child in node.entries:
            check_summaries(child)


DIM = 3
#: A lattice (cameras that share a point, boxes of zero area) and a few
#: vector levels (equal distances, zero-radius leaves).
place = st.tuples(
    st.one_of(st.sampled_from([34.0, 34.1, 34.2]), st.floats(33.5, 34.5)),
    st.one_of(st.sampled_from([-118.3, -118.2]), st.floats(-119.0, -117.5)),
)
feature = st.lists(
    st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(-2.0, 2.0)),
    min_size=DIM,
    max_size=DIM,
)


class TestIncrementalSummaries:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(4, 8),
        st.lists(st.tuples(place, feature), min_size=1, max_size=70),
        st.integers(1, 12),
    )
    def test_every_node_is_what_a_full_recompute_gives(self, max_entries, inserts, k):
        tree = VisualRTree(dimension=DIM, max_entries=max_entries)
        for item, ((lat, lng), vector) in enumerate(inserts):
            tree.insert(item, GeoPoint(lat, lng), np.array(vector))
            check_summaries(tree._root)
        assert tree._root.count == len(tree) == len(inserts)
        region = BoundingBox(33.9, -118.35, 34.15, -118.0)
        query = np.array(inserts[0][1]) * 0.5
        for box in (region, BoundingBox(-90.0, -180.0, 90.0, 180.0)):
            assert tree.spatial_visual_knn(box, query, k) == (
                tree.linear_spatial_visual_knn(box, query, k)
            )


# -- (c) FOV rectangle without throw-away points -----------------------------------------


def destination_point(origin, bearing_deg, distance_m):
    """``geodesy.destination_point`` as it was: every sine and cosine
    per call, a validated point out."""
    delta = distance_m / EARTH_RADIUS_M
    theta = math.radians(bearing_deg)
    lat1 = math.radians(origin.lat)
    lng1 = math.radians(origin.lng)
    lat2 = math.asin(
        math.sin(lat1) * math.cos(delta)
        + math.cos(lat1) * math.sin(delta) * math.cos(theta)
    )
    lng2 = lng1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(lat1),
        math.cos(delta) - math.sin(lat1) * math.sin(lat2),
    )
    lng2 = (math.degrees(lng2) + 540.0) % 360.0 - 180.0
    return GeoPoint(math.degrees(lat2), lng2)


def arc_points(fov, samples):
    half = fov.angle_deg / 2.0
    bearings = [
        fov.direction_deg - half + fov.angle_deg * i / (samples - 1)
        for i in range(samples)
    ]
    return [destination_point(fov.camera, b, fov.range_m) for b in bearings]


def rectangle_from_points(fov):
    """``FieldOfView.mbr`` as it was."""
    points = [fov.camera, *arc_points(fov, 16)]
    half = fov.angle_deg / 2.0
    for cardinal in (0.0, 90.0, 180.0, 270.0):
        if angular_difference_deg(cardinal, fov.direction_deg) <= half:
            points.append(destination_point(fov.camera, cardinal, fov.range_m))
    return BoundingBox.from_points(points)


cameras = st.builds(
    GeoPoint,
    lat=st.one_of(
        st.floats(-90.0, -89.0), st.floats(89.0, 90.0), st.floats(-90.0, 90.0)
    ),
    lng=st.one_of(
        st.floats(-180.0, -179.9), st.floats(179.9, 180.0), st.floats(-180.0, 180.0)
    ),
)
sectors = st.builds(
    FieldOfView,
    camera=cameras,
    direction_deg=st.one_of(
        st.sampled_from([0.0, 90.0, 180.0, 270.0]), st.floats(-720.0, 720.0)
    ),
    angle_deg=st.one_of(
        st.sampled_from([90.0, 180.0, 360.0]),
        st.floats(0.0, 360.0, exclude_min=True),
    ),
    range_m=st.floats(1.0, 50_000.0),
)


class TestRectangleFromFloats:
    @settings(max_examples=400, deadline=None)
    @given(sectors)
    def test_mbr_and_arc_are_the_points_they_were(self, fov):
        try:
            expected = rectangle_from_points(fov)
        except ValueError as error:
            # asin of 1 + an ulp, a destination on the pole: both raise.
            with pytest.raises(type(error)):
                fov.mbr()
            return
        assert fov.mbr() == expected
        assert fov.boundary_points(16) == arc_points(fov, 16)
        assert fov.boundary_points(2) == arc_points(fov, 2)
