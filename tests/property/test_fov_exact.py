"""The FOV sector's exact predicates against dense samples.

``FieldOfView.intersects_box`` and ``overlaps_fov`` decide on the sphere
``contains_point`` defines (:mod:`repro.geo.fov`).  Here each answer is
checked against two lattices of 10⁴ points each, one over either
region, every lattice point judged by the vectorised form of that same
definition:

* no lattice point lies in both regions while the predicate says no;
* every yes comes within one lattice step of a point of both regions.

Cameras are drawn at the poles and on the antimeridian as well as
elsewhere; sectors up to 360° and 50 km; boxes down to 1e-6° thin,
inside the sector and around it; sector pairs facing each other, whose
overlap is a lens with neither camera inside.  Seeded loops then check
``contains_point ⇒ intersects_box`` and the symmetry of ``overlaps_fov``
on 10⁴ draws each, and the catalog slice's scene refine against the
scalar predicate row by row, at 1 and 4 shards.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TVDP, SpatialQuery
from repro.geo import BoundingBox, FieldOfView, GeoPoint
from repro.geo.point import EARTH_RADIUS_M
from repro.imaging.image import Image

#: Meters per degree of latitude.
M_PER_DEG = math.pi * EARTH_RADIUS_M / 180.0
N = 100  # lattice points per side: N² per region


def destination(fov, bearings, distances):
    """``(lats, lngs)`` from ``fov``'s camera on each bearing after each
    distance, as unit vectors (exact near a pole as anywhere)."""
    lat, lng = math.radians(fov.camera.lat), math.radians(fov.camera.lng)
    camera = np.array([math.cos(lat) * math.cos(lng), math.cos(lat) * math.sin(lng), math.sin(lat)])
    north = np.array([-math.sin(lat) * math.cos(lng), -math.sin(lat) * math.sin(lng), math.cos(lat)])
    east = np.array([-math.sin(lng), math.cos(lng), 0.0])
    theta, delta = np.radians(bearings), np.asarray(distances) / EARTH_RADIUS_M
    p = np.outer(camera, np.cos(delta)) + (
        np.outer(north, np.cos(theta)) + np.outer(east, np.sin(theta))
    ) * np.sin(delta)
    return np.degrees(np.arctan2(p[2], np.hypot(p[0], p[1]))), np.degrees(np.arctan2(p[1], p[0]))


def in_sector(fov, lats, lngs, slack_m=0.0):
    """``contains_point`` on columns (the same haversine and bearing);
    with ``slack_m``, within that many meters of the sector instead."""
    lat1, lat2 = math.radians(fov.camera.lat), np.radians(lats)
    dlng = np.radians(lngs - fov.camera.lng)
    h = np.sin((lat2 - lat1) / 2.0) ** 2 + math.cos(lat1) * np.cos(lat2) * np.sin(dlng / 2.0) ** 2
    dist = 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))
    x = np.sin(dlng) * np.cos(lat2)
    y = math.cos(lat1) * np.sin(lat2) - math.sin(lat1) * np.cos(lat2) * np.cos(dlng)
    off = np.abs(np.degrees(np.arctan2(x, y)) % 360.0 - fov.direction_deg) % 360.0
    outside = np.radians(np.minimum(off, 360.0 - off) - fov.angle_deg / 2.0)
    # Past an edge by less than 90°, the edge is nearest; beyond, the camera.
    aside = np.where(outside < math.pi / 2, dist * np.sin(np.clip(outside, 0.0, None)), dist)
    return (dist <= fov.range_m + slack_m) & ((dist <= slack_m) | (aside <= slack_m))


def in_box(box, lats, lngs, slack_m=0.0):
    """``BoundingBox.contains_point`` on columns, grown by ``slack_m``."""
    dlat = slack_m / M_PER_DEG
    dlng = dlat / np.maximum(np.cos(np.radians(lats)), 1e-12)
    return (
        (lats >= box.min_lat - dlat) & (lats <= box.max_lat + dlat)
        & (lngs >= box.min_lng - dlng) & (lngs <= box.max_lng + dlng)
    )


def sector_lattice(fov):
    """N x N points over the sector (bearings by distances), and the
    step between neighbours in meters."""
    half = fov.angle_deg / 2.0
    bearings, distances = np.meshgrid(
        np.linspace(fov.direction_deg - half, fov.direction_deg + half, N),
        np.linspace(0.0, fov.range_m, N),
    )
    step = fov.range_m / (N - 1) * max(1.0, math.radians(fov.angle_deg))
    return (*destination(fov, bearings.ravel(), distances.ravel()), step)


def box_lattice(box):
    """N x N points over the box, and the step between neighbours in meters."""
    lats, lngs = np.meshgrid(
        np.linspace(box.min_lat, box.max_lat, N), np.linspace(box.min_lng, box.max_lng, N)
    )
    widest = max(box.max_lat - box.min_lat, box.max_lng - box.min_lng)
    return lats.ravel(), lngs.ravel(), widest * M_PER_DEG / (N - 1)


cameras = st.one_of(
    st.builds(GeoPoint, st.floats(-60.0, 60.0), st.floats(-180.0, 180.0)),
    st.builds(  # polar
        GeoPoint,
        st.one_of(st.floats(89.0, 90.0), st.floats(-90.0, -89.0)),
        st.floats(-180.0, 180.0),
    ),
    st.builds(  # antimeridian
        GeoPoint,
        st.floats(-60.0, 60.0),
        st.one_of(st.floats(179.9, 180.0), st.floats(-180.0, -179.9)),
    ),
)
sectors = st.builds(
    FieldOfView,
    camera=cameras,
    direction_deg=st.floats(0.0, 360.0, exclude_max=True),
    angle_deg=st.one_of(st.sampled_from([90.0, 180.0, 360.0]), st.floats(1.0, 360.0)),
    range_m=st.floats(1.0, 50_000.0),
)


def clamped(lat, lng, dlat, dlng):
    """The box ``dlat`` x ``dlng`` degrees from ``(lat, lng)``, cut to the globe."""
    lo_lat, hi_lat = sorted(min(max(v, -90.0), 90.0) for v in (lat, lat + dlat))
    lo_lng, hi_lng = sorted(min(max(v, -180.0), 180.0) for v in (lng, lng + dlng))
    return BoundingBox(lo_lat, lo_lng, hi_lat, hi_lng)


@st.composite
def sector_and_box(draw):
    """A sector and a box near it: thin (≤ 1e-6° across), small and
    centred inside the sector, or anywhere from 1 % to 2x the range
    across and shifted off its anchor."""
    fov = draw(sectors)
    shape = draw(st.sampled_from(["thin", "inside", "around"]))
    inner = shape == "inside"
    radial = draw(st.floats(0.1, 0.9) if inner else st.floats(0.0, 1.0))
    across = draw(st.floats(-0.4, 0.4) if inner else st.floats(-0.5, 0.5))
    lats, lngs = destination(
        fov, [fov.direction_deg + across * fov.angle_deg], [radial * fov.range_m]
    )
    lat, lng = float(lats[0]), float(lngs[0])
    size = fov.range_m * draw(st.sampled_from([1e-3, 1e-2, 0.1, 0.5, 2.0]))
    dlat = size / M_PER_DEG * draw(st.floats(0.1, 1.5))
    dlng = dlat / max(math.cos(math.radians(lat)), 1e-9) * draw(st.floats(0.1, 1.5))
    if shape == "thin":
        if draw(st.booleans()):
            dlat = draw(st.floats(0.0, 1e-6))
        else:
            dlng = draw(st.floats(0.0, 1e-6))
    shift = 0.0 if inner else draw(st.floats(-1.5, 0.5))
    return fov, clamped(lat + shift * dlat, lng + shift * dlng, dlat, dlng)


@st.composite
def facing_pairs(draw):
    """Two sectors whose cameras are 0.3 to 2.2 ranges apart, the second
    facing back towards the first within 60°: most overlaps are lenses."""
    a = draw(sectors)
    bearing = draw(st.floats(0.0, 360.0))
    lats, lngs = destination(a, [bearing], [a.range_m * draw(st.floats(0.3, 2.2))])
    b = FieldOfView(
        GeoPoint(float(lats[0]), float(lngs[0])),
        bearing + 180.0 + draw(st.floats(-60.0, 60.0)),
        draw(st.one_of(st.just(360.0), st.floats(1.0, 360.0))),
        a.range_m * draw(st.floats(0.3, 2.0)),
    )
    return a, b


class TestDenseSample:
    @settings(max_examples=150, deadline=None)
    @given(sector_and_box())
    def test_intersects_box_misses_no_hit_and_accepts_only_near_ones(self, case):
        fov, box = case
        got = fov.intersects_box(box)
        s_lat, s_lng, s_step = sector_lattice(fov)
        b_lat, b_lng, b_step = box_lattice(box)
        hit = (in_box(box, s_lat, s_lng) & in_sector(fov, s_lat, s_lng)).any() or (
            in_sector(fov, b_lat, b_lng).any()
        )
        if hit:
            assert got
        elif got:
            assert in_box(box, s_lat, s_lng, s_step).any() or (
                in_sector(fov, b_lat, b_lng, b_step).any()
            )

    @settings(max_examples=150, deadline=None)
    @given(facing_pairs())
    def test_overlaps_fov_misses_no_lens_and_accepts_only_near_ones(self, pair):
        a, b = pair
        got = a.overlaps_fov(b)
        assert b.overlaps_fov(a) == got
        a_lat, a_lng, a_step = sector_lattice(a)
        b_lat, b_lng, b_step = sector_lattice(b)
        hit = (in_sector(a, b_lat, b_lng) & in_sector(b, b_lat, b_lng)).any() or (
            in_sector(a, a_lat, a_lng) & in_sector(b, a_lat, a_lng)
        ).any()
        if hit:
            assert got
        elif got:
            assert in_sector(b, a_lat, a_lng, a_step).any() or (
                in_sector(a, b_lat, b_lng, b_step).any()
            )


def random_sector(rng):
    """A sector as :data:`sectors` draws them, from a seeded generator."""
    lat = [rng.uniform(-60.0, 60.0), rng.uniform(89.0, 90.0) * rng.choice([-1, 1])][rng.integers(2)]
    lng = [rng.uniform(-180.0, 180.0), rng.uniform(179.9, 180.0) * rng.choice([-1, 1])][rng.integers(2)]
    angle = [360.0, 90.0, rng.uniform(1.0, 360.0)][rng.integers(3)]
    return FieldOfView(GeoPoint(lat, lng), rng.uniform(0.0, 360.0), angle, rng.uniform(1.0, 5_000.0))


def test_contains_implies_intersects_on_ten_thousand_draws():
    rng = np.random.default_rng(0)
    contained = 0
    for _ in range(10_000):
        fov = random_sector(rng)
        lats, lngs = destination(
            fov,
            [fov.direction_deg + rng.uniform(-0.6, 0.6) * fov.angle_deg],
            [rng.uniform(0.0, 1.1) * fov.range_m],
        )
        center = GeoPoint(float(lats[0]), float(lngs[0]))
        if fov.contains_point(center):
            contained += 1
            assert fov.intersects_box(BoundingBox.around(center, rng.uniform(1.0, 500.0))), (
                fov,
                center,
            )
    assert contained > 5_000  # the draw exercises the implication


def test_overlaps_fov_is_symmetric_on_ten_thousand_draws():
    rng = np.random.default_rng(1)
    overlapping = 0
    for _ in range(10_000):
        a = random_sector(rng)
        lats, lngs = destination(a, [rng.uniform(0.0, 360.0)], [a.range_m * rng.uniform(0.0, 2.5)])
        b = FieldOfView(
            GeoPoint(float(lats[0]), float(lngs[0])),
            rng.uniform(0.0, 360.0),
            rng.uniform(1.0, 360.0),
            a.range_m * rng.uniform(0.2, 2.0),
        )
        got = a.overlaps_fov(b)
        overlapping += got
        assert b.overlaps_fov(a) == got, (a, b)
    assert 1_000 < overlapping < 9_000


def test_the_slice_refine_is_the_scalar_predicate_row_by_row():
    """Scene-mode answers from the camera columns, served and straight
    off the slice, at 1 and 4 shards, equal the ids whose
    ``FieldOfView`` the scalar predicate keeps; so do the overlapping
    views localisation reads."""
    rng = np.random.default_rng(2)
    platform = TVDP(shard_grid=(3, 3))
    fovs = {}
    try:
        for n in range(80):
            camera = GeoPoint(34.05 + rng.uniform(-0.01, 0.01), -118.25 + rng.uniform(-0.01, 0.01))
            fov = FieldOfView(
                camera,
                rng.uniform(0.0, 360.0),
                [360.0, rng.uniform(10.0, 180.0)][rng.integers(2)],
                rng.uniform(20.0, 800.0),
            )
            pixels = np.random.default_rng(n).random((2, 2, 3))
            fovs[platform.upload_image(Image(pixels), fov, 0.0, 1.0).image_id] = fov
        queries = []
        for _ in range(150):
            center = GeoPoint(34.05 + rng.uniform(-0.015, 0.015), -118.25 + rng.uniform(-0.015, 0.015))
            direction = {} if rng.random() < 0.7 else {"direction_deg": rng.uniform(0.0, 360.0)}
            if rng.random() < 0.2:
                queries.append(SpatialQuery(point=center, radius_m=0.0, **direction))
            else:
                queries.append(SpatialQuery(point=center, radius_m=rng.uniform(1.0, 300.0), **direction))
        for n_shards in (1, 4):
            platform.set_shards(n_shards)
            for query in queries:
                region = query.bounding_region()
                want = sorted(
                    image_id
                    for image_id, fov in fovs.items()
                    if (
                        fov.contains_point(query.point)
                        if query.radius_m == 0.0
                        else fov.intersects_box(region)
                    )
                    and (
                        query.direction_deg is None
                        or fov.direction_matches(query.direction_deg, query.direction_tolerance_deg)
                    )
                )
                assert platform.slice.spatial_ids(query).tolist() == want, query
                assert [r.image_id for r in platform.execute(query)] == want, (n_shards, query)
        for fov in fovs.values():
            want = [image_id for image_id, other in fovs.items() if other.overlaps_fov(fov)]
            assert platform.slice.overlapping_ids(fov).tolist() == want, fov
    finally:
        platform.close()
