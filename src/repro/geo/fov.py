"""Field-of-View (FOV) model for geo-tagged imagery (paper Fig. 3).

An FOV describes the spatial extent of one image as the tuple
``(camera location L, viewing direction theta, viewable angle alpha,
maximum visible distance R)`` captured from GPS + digital compass: the
sector of the sphere within R of L (haversine) whose initial bearings
from L lie within alpha/2 of theta.  What its MBR is, and whether it
meets a box or another sector, are exact functions of those five
numbers, which the catalog slice calls on its columns.

This is the representation MediaQ tags every video frame with, the key
of the Oriented R-tree, and the input of scene localisation and
coverage measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import GeoError
from repro.geo.geodesy import (
    angular_difference_deg,
    bearing_coords_deg,
    destination_point,
    haversine_coords_m,
    normalize_bearing,
)
from repro.geo.point import EARTH_RADIUS_M, BoundingBox, GeoPoint

#: How near both boundaries a crossing may be found and still count:
#: 1 mm on the ground, as an angle at the Earth's centre.
TOLERANCE_RAD = 1e-3 / EARTH_RADIUS_M
#: The five numbers of a sector, by their names in a serialised FOV.
_KEYS = ("lat", "lng", "direction_deg", "angle_deg", "range_m")


@dataclass(frozen=True, slots=True)
class FieldOfView:
    """A camera field of view: sector of a circle on the Earth surface.

    Attributes
    ----------
    camera:
        Camera location ``L`` (GPS fix at capture time).
    direction_deg:
        Viewing direction ``theta`` — compass bearing of the optical
        axis, degrees clockwise from true north.
    angle_deg:
        Viewable angle ``alpha`` — full angular width of the sector.
    range_m:
        Maximum visible distance ``R`` in meters.
    """

    camera: GeoPoint
    direction_deg: float
    angle_deg: float
    range_m: float
    #: Memoized :meth:`mbr` — the FOV is immutable, and index filters
    #: evaluate the MBR once per candidate per query otherwise.
    _mbr_cache: BoundingBox | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # nan compares false with everything and a non-finite bearing
        # normalises to 0.0, so neither check below would catch them.
        if not (math.isfinite(self.direction_deg) and math.isfinite(self.range_m)):
            raise GeoError(
                "viewing direction and visible range must be finite, got "
                f"{self.direction_deg} and {self.range_m}"
            )
        if not (0.0 < self.angle_deg <= 360.0):
            raise GeoError(f"viewable angle must be in (0, 360], got {self.angle_deg}")
        if self.range_m <= 0.0:
            raise GeoError(f"visible range must be positive, got {self.range_m}")
        object.__setattr__(self, "direction_deg", normalize_bearing(self.direction_deg))

    # -- geometry ---------------------------------------------------------

    @property
    def sector(self) -> tuple[float, float, float, float, float]:
        """The five numbers: camera latitude and longitude, direction, angle, range."""
        return (self.camera.lat, self.camera.lng, self.direction_deg, self.angle_deg, self.range_m)

    def contains_point(self, point: GeoPoint) -> bool:
        """True if ``point`` is inside the sector (:func:`sector_contains`)."""
        return sector_contains(*self.sector, point.lat, point.lng)

    def overlaps_fov(self, other: "FieldOfView") -> bool:
        """Sector-sector intersection: the MBR filter, then :func:`sectors_overlap`."""
        return self.mbr().intersects(other.mbr()) and sectors_overlap(self.sector, other.sector)

    def mbr(self) -> BoundingBox:
        """Minimum bounding rectangle of the sector (:func:`sector_mbr`)."""
        if self._mbr_cache is None:
            object.__setattr__(self, "_mbr_cache", BoundingBox(*sector_mbr(*self.sector)))
        return self._mbr_cache

    def intersects_box(self, box: BoundingBox) -> bool:
        """Sector-rectangle intersection: the MBR filter, then :func:`sector_meets_box`."""
        return self.mbr().intersects(box) and sector_meets_box(*self.sector, box)

    def coverage_area_m2(self) -> float:
        """Planar area of the sector in square meters."""
        return math.radians(self.angle_deg) / 2.0 * self.range_m**2

    def direction_matches(self, bearing_deg: float, tolerance_deg: float = 45.0) -> bool:
        """True if the viewing direction is within ``tolerance_deg`` of
        ``bearing_deg`` — the predicate of directional spatial queries
        on the Oriented R-tree."""
        return angular_difference_deg(self.direction_deg, bearing_deg) <= tolerance_deg

    def midpoint(self) -> GeoPoint:
        """Point on the optical axis at half range: a cheap single-point
        summary of "where the scene is" used by coverage heuristics."""
        return destination_point(self.camera, self.direction_deg, self.range_m / 2.0)

    # -- serialisation ----------------------------------------------------

    def to_dict(self) -> dict[str, float]:
        """Serialise to a plain dict (DB rows and API payloads)."""
        return dict(zip(_KEYS, self.sector))

    @classmethod
    def from_dict(cls, data: dict[str, float]) -> "FieldOfView":
        """Inverse of :meth:`to_dict`."""
        lat, lng, direction, angle, range_m = (float(data[key]) for key in _KEYS)
        return cls(GeoPoint(lat, lng), direction, angle, range_m)


# -- the sector as its five numbers ------------------------------------------


def sector_contains(lat, lng, direction, angle, range_m, point_lat, point_lng) -> bool:
    """True if the point is within ``range_m`` of the camera (haversine)
    and its initial bearing is within ``angle / 2`` of ``direction``."""
    dist = haversine_coords_m(lat, lng, point_lat, point_lng)
    if dist > range_m or dist == 0.0:
        return dist <= range_m
    bearing = bearing_coords_deg(lat, lng, point_lat, point_lng)
    return angular_difference_deg(bearing, direction) <= angle / 2.0


def sector_mbr(lat, lng, direction, angle, range_m) -> tuple[float, float, float, float]:
    """``(min_lat, min_lng, max_lat, max_lng)`` of the sector, grown by
    :data:`TOLERANCE_RAD`: the camera, and per boundary piece its ends,
    highest and lowest points and where a meridian touches it; the full
    width if the sector holds a pole or reaches the antimeridian."""
    lats, offsets = [lat], [0.0]
    pieces = _sector_pieces(lat, lng, direction, angle, range_m)
    for piece in pieces:
        w, h, s, u, v, lo, span = piece
        c = 1.0 - 2.0 * h  # cos r
        # Longitude is still where the circle's tangent lies in a meridian plane.
        x, y = c * (w[0] * v[1] - w[1] * v[0]), c * (w[1] * u[0] - w[0] * u[1])
        touch = _turns(x, y, s * (u[1] * v[0] - u[0] * v[1]), 0.0)
        ends = (lo, lo + span) if piece is pieces[0] else ()  # an edge ends at camera and arc
        for t in (*ends, math.atan2(v[2], u[2]), math.atan2(-v[2], -u[2]), *touch):
            if t in ends or _within(t, piece, 0.0):
                px, py, pz = _mix(_mix(u, v, math.cos(t), math.sin(t)), w, s, c)
                lats.append(math.degrees(math.atan2(pz, math.hypot(px, py))))
                offsets.append((math.degrees(math.atan2(py, px)) - lng + 540.0) % 360.0 - 180.0)
    pad = math.degrees(TOLERANCE_RAD)  # past rounding, as far as the predicates reach
    box = [max(min(lats) - pad, -90.0), lng + min(offsets) - pad,
           min(max(lats) + pad, 90.0), lng + max(offsets) + pad]
    for side, pole in ((2, 90.0), (0, -90.0)):
        if _holds_pole(lat, lng, direction, angle, range_m, pole):
            box[side], box[1], box[3] = pole, -180.0, 180.0
    if box[1] <= -180.0 or box[3] >= 180.0:  # -180 and 180 are one meridian
        box[1], box[3] = -180.0, 180.0
    return box[0], box[1], box[2], box[3]


def _holds_pole(lat, lng, direction, angle, range_m, pole) -> bool:
    """True if the pole is in the sector within :data:`TOLERANCE_RAD`.

    Not exactly: a sector whose gap holds the pole but is narrower than
    the tolerance still wraps the pole, and the two ends of its arc,
    past the pole, round to one longitude, so only the full width
    bounds it."""
    slack_m = TOLERANCE_RAD * EARTH_RADIUS_M
    dist = haversine_coords_m(lat, lng, pole, lng)
    if dist > range_m + slack_m or dist <= slack_m:
        return dist <= slack_m
    off = angular_difference_deg(bearing_coords_deg(lat, lng, pole, lng), direction)
    return off <= angle / 2.0 + math.degrees(slack_m / dist)


def sector_meets_box(lat, lng, direction, angle, range_m, box: BoundingBox) -> bool:
    """True if the sector and the lat/lng box share a point, within
    :data:`TOLERANCE_RAD`: the camera is in the box, a corner is in the
    sector, or their boundaries cross."""
    sector = (lat, lng, direction, angle, range_m)
    if box.min_lat <= lat <= box.max_lat and box.min_lng <= lng <= box.max_lng:
        return True  # the camera is in the box
    if any(sector_contains(*sector, corner.lat, corner.lng) for corner in box.corners()):
        return True
    return _meet(_sector_pieces(*sector), _box_pieces(box))


def sectors_overlap(a: tuple, b: tuple) -> bool:
    """True if two sectors (five numbers each) share a point within
    :data:`TOLERANCE_RAD`: a camera is in the other, or the boundaries cross."""
    a, b = sorted((tuple(a), tuple(b)))  # one order, so that the answer is symmetric
    if sector_contains(*a, b[0], b[1]) or sector_contains(*b, a[0], a[1]):
        return True
    return _meet(_sector_pieces(*a), _sector_pieces(*b))


# Two regions meet iff one holds a point of the other or their boundaries
# cross.  A boundary piece is on a circle, a plane's cut of the unit sphere:
# (w, h, s, u, v, lo, span) is (1 - 2h) w + s (cos t u + sin t v), t in
# [lo, lo + span]: w the centre, h = sin²(r/2), s = sin r, u ⟂ v across it.


def _sector_pieces(lat, lng, direction, angle, range_m) -> list[tuple]:
    """The range arc (``t``: the bearing) and, below 360°, the two
    radial edges (``t``: the distance along the edge)."""
    phi, lam = math.radians(lat), math.radians(lng)
    sp, cp, sl, cl = math.sin(phi), math.cos(phi), math.sin(lam), math.cos(lam)
    camera, north, east = (cp * cl, cp * sl, sp), (-sp * cl, -sp * sl, cp), (-sl, cl, 0.0)
    delta = min(range_m / EARTH_RADIUS_M, math.pi)
    first, span = math.radians(direction - angle / 2.0), math.radians(angle)
    return [(camera, math.sin(delta / 2.0) ** 2, math.sin(delta), north, east, first, span)] + [
        (_mix(north, east, math.sin(t), -math.cos(t)), 0.5, 1.0,
         camera, _mix(north, east, math.cos(t), math.sin(t)), 0.0, delta)
        for t in ((first, first + span) if angle < 360.0 else ())
    ]


def _box_pieces(box: BoundingBox) -> list[tuple]:
    """The two parallels (``t``: the longitude) and the two meridians
    (``t``: the latitude) of ``box``."""
    lo_lat, lo_lng = math.radians(box.min_lat), math.radians(box.min_lng)
    lat_span = math.radians(box.max_lat - box.min_lat)
    lng_span = math.radians(box.max_lng - box.min_lng)
    return [
        ((0.0, 0.0, 1.0), math.sin(math.radians(90.0 - lat) / 2.0) ** 2,
         math.cos(math.radians(lat)), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), lo_lng, lng_span)
        for lat in (box.min_lat, box.max_lat)
    ] + [
        ((-math.sin(lam), math.cos(lam), 0.0), 0.5, 1.0,
         (math.cos(lam), math.sin(lam), 0.0), (0.0, 0.0, 1.0), lo_lat, lat_span)
        for lam in (lo_lng, math.radians(box.max_lng))
    ]


def _meet(pieces: list, others: list) -> bool:
    """True if any of ``pieces`` meets any of ``others`` within
    :data:`TOLERANCE_RAD` of both: where the smaller circle crosses the
    other's plane, on both pieces."""
    for a, b in ((a, b) if a[2] <= b[2] else (b, a) for a in pieces for b in others):
        (wa, ha, sa, ua, va, *_), (wb, hb, sb, ub, vb, *_) = a, b
        # b's plane on a's circle: x cos t + y sin t = k (half-angle k: small circles keep digits).
        hd = sum((p - q) ** 2 for p, q in zip(wa, wb)) / 4.0
        k, x, y = 2.0 * (hd + ha - hb) - 4.0 * ha * hd, sa * _dot(wb, ua), sa * _dot(wb, va)
        for t in _turns(x, y, k, TOLERANCE_RAD * sb):
            p = _mix(_mix(ua, va, math.cos(t), math.sin(t)), wa, sa, 1.0 - 2.0 * ha)
            if _within(t, a) and _within(math.atan2(_dot(p, vb), _dot(p, ub)), b):
                return True
    return False


def _turns(x: float, y: float, k: float, slack: float) -> tuple[float, ...]:
    """The ``t`` where ``x cos t + y sin t = k``, touching if ``k`` misses by ≤ ``slack``."""
    rho = math.hypot(x, y)
    if rho == 0.0 or abs(k) - rho > slack:  # parallel planes, or apart
        return ()
    mid, off = math.atan2(y, x), math.acos(max(-1.0, min(1.0, k / rho)))
    return (mid - off, mid + off)


def _within(t: float, piece: tuple, tolerance: float = TOLERANCE_RAD) -> bool:
    """True if ``t`` is on ``piece``, within ``tolerance`` of arc."""
    slack = tolerance / piece[2] if piece[2] else math.inf
    off = (t - piece[5]) % math.tau
    return off <= piece[6] + slack or off >= math.tau - slack


def _dot(a: tuple, b: tuple) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _mix(a: tuple, b: tuple, x: float, y: float) -> tuple[float, float, float]:  # x a + y b
    return (x * a[0] + y * b[0], x * a[1] + y * b[1], x * a[2] + y * b[2])
