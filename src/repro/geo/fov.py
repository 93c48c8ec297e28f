"""Field-of-View (FOV) model for geo-tagged imagery (paper Fig. 3).

An FOV describes the spatial extent of one image as the tuple
``(camera location L, viewing direction theta, viewable angle alpha,
maximum visible distance R)`` captured from GPS + digital compass.
It is a circular sector anchored at the camera.

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
    destination_coords,
    destination_point,
    haversine_m,
    initial_bearing_deg,
    normalize_bearing,
)
from repro.geo.point import BoundingBox, GeoPoint


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
    _mbr_cache: BoundingBox | None = field(
        default=None, init=False, repr=False, compare=False
    )

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

    def contains_point(self, point: GeoPoint) -> bool:
        """True if ``point`` is inside the sector (distance within R and
        bearing within alpha/2 of the viewing direction)."""
        dist = haversine_m(self.camera, point)
        if dist > self.range_m:
            return False
        if dist == 0.0:
            return True
        bearing = initial_bearing_deg(self.camera, point)
        return angular_difference_deg(bearing, self.direction_deg) <= self.angle_deg / 2.0

    def overlaps_fov(self, other: "FieldOfView", samples: int = 8) -> bool:
        """Approximate sector-sector overlap test.

        Exact spherical sector intersection is overkill for index
        filtering; we test mutual containment of *interior* sample
        points (a polar lattice over each sector), which catches
        lens-shaped intersections where neither apex nor arc lies
        inside the other sector.
        """
        if haversine_m(self.camera, other.camera) > self.range_m + other.range_m:
            return False
        if self.contains_point(other.camera) or other.contains_point(self.camera):
            return True
        for fov_a, fov_b in ((self, other), (other, self)):
            for point in fov_a.interior_points(samples):
                if fov_b.contains_point(point):
                    return True
        return False

    def interior_points(self, samples: int = 8) -> list[GeoPoint]:
        """A polar lattice of sample points covering the sector
        (several radial rings x angular steps, arc included)."""
        if samples < 2:
            raise GeoError(f"need at least 2 samples, got {samples}")
        # The 0.999 insets keep every sample strictly inside the sector
        # despite the floating-point round trip of destination_point.
        half = self.angle_deg / 2.0 * 0.999
        span = 2.0 * half
        points = []
        for radial_frac in (0.33, 0.66, 0.999):
            for i in range(samples):
                bearing = self.direction_deg - half + span * i / (samples - 1)
                points.append(
                    destination_point(self.camera, bearing, self.range_m * radial_frac)
                )
        return points

    def _arc_bearings(self, samples: int) -> list[float]:
        """``samples`` bearings evenly spread over the sector, edge to edge."""
        half = self.angle_deg / 2.0
        return [
            self.direction_deg - half + self.angle_deg * i / (samples - 1)
            for i in range(samples)
        ]

    def boundary_points(self, samples: int = 8) -> list[GeoPoint]:
        """Sample points along the sector arc plus the two edge tips."""
        if samples < 2:
            raise GeoError(f"need at least 2 boundary samples, got {samples}")
        return [
            GeoPoint(lat, lng)
            for lat, lng in destination_coords(
                self.camera, self._arc_bearings(samples), self.range_m
            )
        ]

    def mbr(self) -> BoundingBox:
        """Minimum bounding rectangle of the sector.

        Includes the camera apex, the arc sample points, and — when the
        sector spans a cardinal direction — the extremal point on that
        cardinal bearing (otherwise the MBR would clip the arc bulge).
        """
        if self._mbr_cache is not None:
            return self._mbr_cache
        bearings = self._arc_bearings(16)
        half = self.angle_deg / 2.0
        for cardinal in (0.0, 90.0, 180.0, 270.0):
            if angular_difference_deg(cardinal, self.direction_deg) <= half:
                bearings.append(cardinal)
        coords = destination_coords(self.camera, bearings, self.range_m)
        lats = [self.camera.lat, *(lat for lat, _ in coords)]
        lngs = [self.camera.lng, *(lng for _, lng in coords)]
        box = BoundingBox(min(lats), min(lngs), max(lats), max(lngs))
        object.__setattr__(self, "_mbr_cache", box)
        return box

    def intersects_box(self, box: BoundingBox) -> bool:
        """Sector-rectangle intersection (filter + refine).

        True if any box corner is inside the sector, the camera is in
        the box, or a sampled arc point falls inside the box.
        """
        if not self.mbr().intersects(box):
            return False
        if box.contains_point(self.camera):
            return True
        if any(self.contains_point(corner) for corner in box.corners()):
            return True
        if any(box.contains_point(p) for p in self.boundary_points(samples=16)):
            return True
        # Sample interior rays to catch thin boxes crossing the sector.
        for frac in (0.25, 0.5, 0.75):
            for p in FieldOfView(
                self.camera, self.direction_deg, self.angle_deg, self.range_m * frac
            ).boundary_points(samples=8):
                if box.contains_point(p):
                    return True
        return False

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
        return {
            "lat": self.camera.lat,
            "lng": self.camera.lng,
            "direction_deg": self.direction_deg,
            "angle_deg": self.angle_deg,
            "range_m": self.range_m,
        }

    @classmethod
    def from_dict(cls, data: dict[str, float]) -> "FieldOfView":
        """Inverse of :meth:`to_dict`."""
        return cls(
            camera=GeoPoint(float(data["lat"]), float(data["lng"])),
            direction_deg=float(data["direction_deg"]),
            angle_deg=float(data["angle_deg"]),
            range_m=float(data["range_m"]),
        )
