"""Geodesic helpers on the spherical-Earth model.

These are the primitives the FOV sector geometry, coverage measurement,
and crowdsourcing travel-cost computations are built from.  A spherical
model (haversine) is accurate to ~0.5% which is far below the noise of
consumer GPS, the paper's sensing modality.
"""

from __future__ import annotations

import math

from repro.geo.point import EARTH_RADIUS_M, GeoPoint


def haversine_m(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in meters."""
    return haversine_coords_m(a.lat, a.lng, b.lat, b.lng)


def haversine_coords_m(lat_a: float, lng_a: float, lat_b: float, lng_b: float) -> float:
    """:func:`haversine_m` of two ``(lat, lng)`` pairs in degrees."""
    lat1, lat2 = math.radians(lat_a), math.radians(lat_b)
    dlat = lat2 - lat1
    dlng = math.radians(lng_b - lng_a)
    h = (
        math.sin(dlat / 2.0) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin(dlng / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def initial_bearing_deg(a: GeoPoint, b: GeoPoint) -> float:
    """Initial compass bearing from ``a`` to ``b`` in degrees [0, 360).

    0 is true north, 90 east — the convention of the paper's viewing
    direction θ captured from the digital compass.
    """
    return bearing_coords_deg(a.lat, a.lng, b.lat, b.lng)


def bearing_coords_deg(lat_a: float, lng_a: float, lat_b: float, lng_b: float) -> float:
    """:func:`initial_bearing_deg` of two ``(lat, lng)`` pairs in degrees."""
    lat1, lat2 = math.radians(lat_a), math.radians(lat_b)
    dlng = math.radians(lng_b - lng_a)
    x = math.sin(dlng) * math.cos(lat2)
    y = math.cos(lat1) * math.sin(lat2) - math.sin(lat1) * math.cos(lat2) * math.cos(dlng)
    return math.degrees(math.atan2(x, y)) % 360.0


def destination_point(origin: GeoPoint, bearing_deg: float, distance_m: float) -> GeoPoint:
    """Point reached travelling ``distance_m`` meters from ``origin`` on
    the given initial bearing (spherical direct geodesic problem)."""
    delta = distance_m / EARTH_RADIUS_M
    lat1 = math.radians(origin.lat)
    lng1 = math.radians(origin.lng)
    theta = math.radians(bearing_deg)
    lat2 = math.asin(
        math.sin(lat1) * math.cos(delta) + math.cos(lat1) * math.sin(delta) * math.cos(theta)
    )
    lng2 = lng1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(lat1),
        math.cos(delta) - math.sin(lat1) * math.sin(lat2),
    )
    return GeoPoint(math.degrees(lat2), (math.degrees(lng2) + 540.0) % 360.0 - 180.0)


def angular_difference_deg(a: float, b: float) -> float:
    """Smallest absolute difference between two compass headings, in
    [0, 180].  Used to decide whether an FOV's viewing direction matches
    a directional query."""
    diff = abs(a - b) % 360.0
    return min(diff, 360.0 - diff)


def normalize_bearing(deg: float) -> float:
    """Normalise any angle in degrees into [0, 360).

    ``x % 360.0`` can round up to exactly 360.0 for tiny negative
    inputs, so that case is folded back to 0.0 explicitly.
    """
    result = deg % 360.0
    return result if result < 360.0 else 0.0


def meters_per_degree(lat_deg: float) -> tuple[float, float]:
    """Approximate local scale: meters per degree of (latitude,
    longitude) at the given latitude.  Used to convert FOV ranges into
    degree-space margins for bounding-box computation."""
    m_per_deg_lat = math.pi * EARTH_RADIUS_M / 180.0
    m_per_deg_lng = m_per_deg_lat * max(math.cos(math.radians(lat_deg)), 1e-12)
    return (m_per_deg_lat, m_per_deg_lng)
