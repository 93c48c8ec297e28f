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

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TVDP
from repro.core import ClassificationCatalog
from repro.core.persistence import load_platform, save_platform
from repro.db import Database
from repro.db.schema import ColumnType, tvdp_schema
from repro.errors import QueryError, SchemaError
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


# -- (d) an upload held as its bytes -------------------------------------------------------


def old_content_hash(image):
    """``Image.content_hash`` as it was: the floats rounded back to bytes."""
    h = hashlib.sha1()
    h.update(str(image.shape).encode())
    h.update(np.round(image.pixels * 255.0).astype(np.uint8).tobytes())
    return h.hexdigest()


#: The levels where HSV values meet bin edges or each other: black,
#: white, their neighbours, the middle.
level = st.one_of(st.integers(0, 255), st.sampled_from([0, 1, 2, 127, 128, 253, 254, 255]))


@st.composite
def byte_arrays(draw):
    height, width = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    pixel = st.one_of(
        st.tuples(level, level, level),
        level.map(lambda v: (v, v, v)),  # grey: no hue, no saturation
        st.tuples(level, level).map(lambda p: (p[0], p[0], p[1])),  # a tie for the max or min
    )
    pixels = draw(st.lists(pixel, min_size=height * width, max_size=height * width))
    return np.array(pixels, dtype=np.uint8).reshape(height, width, 3)


def both_births(array):
    """The same bytes as an upload holds them, and as floats."""
    return Image.from_uint8(array), Image(array / 255.0)


class TestBytesHeldImages:
    @settings(max_examples=300, deadline=None)
    @given(byte_arrays(), bin_counts, st.booleans())
    def test_one_histogram_for_one_content(self, array, bins, normalize):
        byte_born, float_born = both_births(array)
        vector = hsv_histogram(byte_born, bins, normalize)
        assert vector.tobytes() == hsv_histogram(float_born, bins, normalize).tobytes()
        assert np.array_equal(vector, per_channel_histogram(float_born, bins, normalize))

    @pytest.mark.parametrize("bins", [(20, 20, 10), (1, 1, 1), (24, 7, 13)])
    def test_every_level_pair_and_a_camera_frame(self, bins):
        high, low = np.triu_indices(256)
        pairs = np.stack([low, (high + low) // 2, high], axis=1)
        every_pair = np.concatenate([np.roll(pairs, shift, axis=1) for shift in range(3)])
        frame = np.random.default_rng(0).integers(0, 256, (480, 640, 3), dtype=np.uint8)
        for array in (every_pair.reshape(-1, 1, 3).astype(np.uint8), frame):
            byte_born, float_born = both_births(array)
            vector = hsv_histogram(byte_born, bins, normalize=False)
            assert vector.tobytes() == hsv_histogram(float_born, bins, normalize=False).tobytes()
            assert np.array_equal(vector, per_channel_histogram(float_born, bins, False))

    @settings(max_examples=200, deadline=None)
    @given(byte_arrays())
    def test_one_identity_for_one_content(self, array):
        byte_born, float_born = both_births(array)
        assert byte_born.content_hash() == float_born.content_hash() == old_content_hash(byte_born)
        assert byte_born == float_born and hash(byte_born) == hash(float_born)
        assert np.array_equal(byte_born.to_uint8(), float_born.to_uint8())
        assert byte_born.pixels.tobytes() == float_born.pixels.tobytes()
        assert byte_born.shape == float_born.shape == array.shape[:2]

    def test_every_level_survives_the_float_round_trip(self):
        levels = np.arange(256)
        assert np.array_equal(np.round(levels / 255.0 * 255.0), levels)

    def test_pixels_and_bytes_stay_read_only(self):
        array = np.full((2, 2, 3), 9, dtype=np.uint8)
        image = Image.from_uint8(array)
        array[0, 0, 0] = 200  # the caller's array is not the image's
        assert image.to_uint8()[0, 0, 0] == 9
        for view in (image.pixels, image.to_uint8()):
            with pytest.raises(ValueError):
                view[0, 0, 0] = 1


# -- (e) a row checked by a compiled column list ---------------------------------------------


def old_validate_row(schema, row):
    """``TableSchema.validate_row`` as it was: a walk over the columns."""
    unknown = set(row) - {c.name for c in schema.columns}
    if unknown:
        raise SchemaError(f"unknown columns for {schema.name!r}: {sorted(unknown)}")
    normalized = {}
    for col in schema.columns:
        if col.primary_key and col.name not in row:
            continue
        value = row.get(col.name)
        if value is None:
            if not col.nullable and not col.primary_key:
                raise SchemaError(f"{schema.name}.{col.name} is not nullable and missing")
            normalized[col.name] = None
        else:
            normalized[col.name] = col.type.validate(value)
    return normalized


SCHEMAS = tvdp_schema()
#: A value of every kind a column may be handed: a bool where an int is
#: wanted, an int where a real is, a numpy float (a float subclass), JSON.
cell = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.floats(allow_nan=False),
    st.just(np.float64(2.5)), st.text(max_size=3), st.just([1, 2]), st.just({"x": 1}),
)


TYPED = {
    ColumnType.INTEGER: st.integers(1, 9), ColumnType.REAL: st.floats(-1.0, 1.0),
    ColumnType.TEXT: st.text(max_size=3), ColumnType.BOOLEAN: st.booleans(),
    ColumnType.JSON: st.lists(st.floats(0.0, 1.0), max_size=3),
}


@st.composite
def rows(draw):
    """A well-typed row of one of the paper's tables (primary key given
    or absent), then up to three columns dropped or replaced by any
    :data:`cell`, and sometimes a column no table has."""
    schema = draw(st.sampled_from(SCHEMAS))
    row = {c.name: draw(TYPED[c.type]) for c in schema.columns}
    if draw(st.booleans()):
        del row[schema.primary_key.name]
    for column in draw(st.lists(st.sampled_from(schema.columns), max_size=3)):
        if draw(st.booleans()):
            row.pop(column.name, None)
        else:
            row[column.name] = draw(cell)
    if draw(st.integers(0, 9)) == 0:
        row["not_a_column"] = 1
    return schema, row


def outcome(check, schema, row):
    try:
        return "row", [(name, type(value), value) for name, value in check(schema, row).items()]
    except SchemaError as exc:
        return "error", str(exc)


class TestCompiledRowCheck:
    @settings(max_examples=600, deadline=None)
    @given(rows())
    def test_same_row_or_same_error(self, drawn):
        schema, row = drawn
        new = outcome(lambda s, r: s.validate_row(r), schema, row)
        assert new == outcome(old_validate_row, schema, row)

    def test_primary_key_given_absent_or_null(self):
        users = SCHEMAS[0]
        base = {"name": "a", "role": "r"}
        for row in (base, {**base, "user_id": 7}, {**base, "user_id": None}):
            assert users.validate_row(row) == old_validate_row(users, row)
        assert users.primary_key.name == "user_id"


# -- (f) a label resolved by a map ---------------------------------------------------------


def scanned_type_id(db, name, label):
    """``ClassificationCatalog.type_id`` as it was: a scan of the labels."""
    rows = db.table("image_content_classification").find("name", name)
    if not rows:
        raise QueryError(f"unknown classification {name!r}")
    cid = rows[0]["classification_id"]
    for row in db.table("image_content_classification_types").find("classification_id", cid):
        if row["label"] == label:
            return row["type_id"]
    raise QueryError(f"classification {name!r} has no label {label!r}")


def resolved(resolve, *args):
    try:
        return resolve(*args)
    except QueryError as exc:
        return str(exc)


NAMES, LABELS = ["a", "b", "c"], ["x", "y", "z"]
catalog_op = st.one_of(
    st.tuples(st.just("define"), st.sampled_from(NAMES), st.lists(st.sampled_from(LABELS), min_size=1, max_size=3, unique=True)),
    st.tuples(st.just("rename"), st.integers(0, 8), st.sampled_from(LABELS + ["w"])),
    st.tuples(st.just("lookup"), st.sampled_from(NAMES), st.sampled_from(LABELS)),
    st.tuples(st.just("upload"), st.integers(0, 255), st.just(None)),
)


class TestLabelMap:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(catalog_op, max_size=12))
    def test_every_lookup_is_what_the_scan_says(self, ops):
        platform = TVDP()
        catalog, db = platform.catalog, platform.db
        types = db.table("image_content_classification_types")
        fov = FieldOfView(GeoPoint(34.0, -118.2), 10.0, 60.0, 100.0)
        for op, first, second in ops:
            if op == "define" and first not in catalog.names():
                catalog.define(first, second)
            elif op == "rename" and len(types):
                # Through Table.update, past the catalog.
                type_id = sorted(row["type_id"] for row in types.all_rows())[first % len(types)]
                types.update(type_id, {"label": second})
            elif op == "upload":
                platform.upload_image(Image.from_uint8(np.full((1, 1, 3), first, np.uint8)), fov, 0.0, 1.0)
            for name in NAMES:
                for label in LABELS + ["w"]:
                    assert resolved(catalog.type_id, name, label) == resolved(
                        scanned_type_id, db, name, label
                    )

    def test_a_restored_platform_and_a_shard_replica_resolve_alike(self, tmp_path):
        platform = TVDP()
        with pytest.raises(QueryError):
            platform.catalog.type_id("street", "clean")  # a lookup before the definition
        platform.catalog.define("street", ["clean", "dirty"])
        expected = platform.catalog.type_id("street", "dirty")
        save_platform(platform, tmp_path)
        restored = load_platform(tmp_path)
        assert restored.catalog.type_id("street", "dirty") == expected
        replica = Database.tvdp()
        platform.catalog.replicate_into(replica)
        assert ClassificationCatalog(replica).type_id("street", "dirty") == expected
        restored.catalog.define("graffiti", ["tag"])
        assert restored.catalog.type_id("graffiti", "tag") == resolved(
            scanned_type_id, restored.db, "graffiti", "tag"
        )
