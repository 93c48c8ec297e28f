"""Core geographic primitives: points and bounding boxes.

TVDP's data model is anchored on geo-tagged imagery, so nearly every
subsystem (FOV modelling, spatial indexes, crowdsourcing coverage,
scene localisation) consumes these two types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import GeoError

#: Mean Earth radius in meters (IUGG).
EARTH_RADIUS_M = 6_371_008.8


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A WGS-84 coordinate pair, latitude and longitude in degrees."""

    lat: float
    lng: float

    def __post_init__(self) -> None:
        if not (-90.0 <= self.lat <= 90.0):
            raise GeoError(f"latitude out of range [-90, 90]: {self.lat}")
        if not (-180.0 <= self.lng <= 180.0):
            raise GeoError(f"longitude out of range [-180, 180]: {self.lng}")

    def as_tuple(self) -> tuple[float, float]:
        """Return ``(lat, lng)``."""
        return (self.lat, self.lng)

    def to_dict(self) -> dict[str, float]:
        """Serialise to a plain dict (used by the DB layer and the API)."""
        return {"lat": self.lat, "lng": self.lng}

    @classmethod
    def from_dict(cls, data: dict[str, float]) -> "GeoPoint":
        """Inverse of :meth:`to_dict`."""
        return cls(lat=float(data["lat"]), lng=float(data["lng"]))


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """An axis-aligned lat/lng rectangle (min/max corners, inclusive).

    Used for spatial range queries, R-tree entries, and scene locations
    (the paper's "minimum bounding box surrounding the geographical
    region depicting the image scene").
    """

    min_lat: float
    min_lng: float
    max_lat: float
    max_lng: float

    def __post_init__(self) -> None:
        if self.min_lat > self.max_lat:
            raise GeoError(f"min_lat {self.min_lat} > max_lat {self.max_lat}")
        if self.min_lng > self.max_lng:
            raise GeoError(f"min_lng {self.min_lng} > max_lng {self.max_lng}")

    @classmethod
    def from_points(cls, points: Iterable[GeoPoint]) -> "BoundingBox":
        """Smallest box containing every point in ``points``."""
        pts = list(points)
        if not pts:
            raise GeoError("cannot build a bounding box from zero points")
        lats = [p.lat for p in pts]
        lngs = [p.lng for p in pts]
        return cls(min(lats), min(lngs), max(lats), max(lngs))

    @classmethod
    def around(cls, center: GeoPoint, radius_m: float) -> "BoundingBox":
        """A box that conservatively contains the circle of ``radius_m``
        meters around ``center`` (the standard pre-filter for radius
        queries against an R-tree)."""
        if radius_m < 0:
            raise GeoError(f"radius must be non-negative, got {radius_m}")
        dlat = math.degrees(radius_m / EARTH_RADIUS_M)
        cos_lat = max(math.cos(math.radians(center.lat)), 1e-12)
        dlng = math.degrees(radius_m / (EARTH_RADIUS_M * cos_lat))
        return cls(
            max(center.lat - dlat, -90.0),
            max(center.lng - dlng, -180.0),
            min(center.lat + dlat, 90.0),
            min(center.lng + dlng, 180.0),
        )

    @property
    def center(self) -> GeoPoint:
        """Centroid of the box."""
        return GeoPoint(
            (self.min_lat + self.max_lat) / 2.0,
            (self.min_lng + self.max_lng) / 2.0,
        )

    @property
    def area(self) -> float:
        """Area in squared degrees (fine for index bookkeeping)."""
        return (self.max_lat - self.min_lat) * (self.max_lng - self.min_lng)

    def contains_point(self, point: GeoPoint) -> bool:
        """True if ``point`` lies inside or on the border."""
        return (
            self.min_lat <= point.lat <= self.max_lat
            and self.min_lng <= point.lng <= self.max_lng
        )

    def contains_box(self, other: "BoundingBox") -> bool:
        """True if ``other`` is entirely inside this box."""
        return (
            self.min_lat <= other.min_lat
            and self.min_lng <= other.min_lng
            and self.max_lat >= other.max_lat
            and self.max_lng >= other.max_lng
        )

    def intersects(self, other: "BoundingBox") -> bool:
        """True if the two boxes share any point."""
        return not (
            other.min_lat > self.max_lat
            or other.max_lat < self.min_lat
            or other.min_lng > self.max_lng
            or other.max_lng < self.min_lng
        )

    def union(self, other: "BoundingBox") -> "BoundingBox":
        """Smallest box containing both boxes."""
        return BoundingBox(
            min(self.min_lat, other.min_lat),
            min(self.min_lng, other.min_lng),
            max(self.max_lat, other.max_lat),
            max(self.max_lng, other.max_lng),
        )

    def union_area(self, other: "BoundingBox") -> float:
        """``self.union(other).area`` without building the union — what
        an R-tree asks of every child when it chooses a subtree."""
        return (
            max(self.max_lat, other.max_lat) - min(self.min_lat, other.min_lat)
        ) * (max(self.max_lng, other.max_lng) - min(self.min_lng, other.min_lng))

    def intersection(self, other: "BoundingBox") -> "BoundingBox | None":
        """Overlapping region, or ``None`` when the boxes are disjoint."""
        if not self.intersects(other):
            return None
        return BoundingBox(
            max(self.min_lat, other.min_lat),
            max(self.min_lng, other.min_lng),
            min(self.max_lat, other.max_lat),
            min(self.max_lng, other.max_lng),
        )

    def expand(self, margin_deg: float) -> "BoundingBox":
        """Box grown by ``margin_deg`` degrees on every side."""
        return BoundingBox(
            max(self.min_lat - margin_deg, -90.0),
            max(self.min_lng - margin_deg, -180.0),
            min(self.max_lat + margin_deg, 90.0),
            min(self.max_lng + margin_deg, 180.0),
        )

    def corners(self) -> Iterator[GeoPoint]:
        """Yield the four corner points (SW, SE, NE, NW)."""
        yield GeoPoint(self.min_lat, self.min_lng)
        yield GeoPoint(self.min_lat, self.max_lng)
        yield GeoPoint(self.max_lat, self.max_lng)
        yield GeoPoint(self.max_lat, self.min_lng)

    def to_dict(self) -> dict[str, float]:
        """Serialise to a plain dict."""
        return {
            "min_lat": self.min_lat,
            "min_lng": self.min_lng,
            "max_lat": self.max_lat,
            "max_lng": self.max_lng,
        }

    @classmethod
    def from_dict(cls, data: dict[str, float]) -> "BoundingBox":
        """Inverse of :meth:`to_dict`."""
        return cls(
            float(data["min_lat"]),
            float(data["min_lng"]),
            float(data["max_lat"]),
            float(data["max_lng"]),
        )
