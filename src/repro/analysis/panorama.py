"""Key-frame selection for panorama generation (paper ref. [6]).

Kim et al.'s W2GIS 2014 work selects, from crowdsourced geo-tagged
video, a minimal set of frames whose FOVs jointly cover the full circle
of directions around a point of interest — the inputs a panorama
stitcher needs.  We reproduce the selection stage: a greedy set cover
over direction buckets, the candidates being the images whose FOV
depicts the point (one point query over the catalog's FOV columns).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TVDPError
from repro.geo.geodesy import angular_difference_deg, initial_bearing_deg, haversine_m
from repro.geo.point import GeoPoint
from repro.core.platform import TVDP
from repro.core.queries import SpatialQuery

#: Angular resolution of coverage buckets (degrees).
BUCKET_DEG = 30.0


@dataclass(frozen=True)
class PanoramaSelection:
    """Chosen frames and the directions they cover."""

    point: GeoPoint
    image_ids: tuple[int, ...]
    covered_buckets: frozenset[int]
    total_buckets: int

    @property
    def coverage(self) -> float:
        """Fraction of the full circle covered."""
        return len(self.covered_buckets) / self.total_buckets


def _buckets_covered(platform: TVDP, image_id: int, point: GeoPoint) -> set[int]:
    """Direction buckets (as seen *from the point*) this image covers.

    The relevant direction for a panorama at ``point`` is the bearing
    from the point to the camera — that is where this image's pixels
    sit in the panorama.  An image contributes a wedge proportional to
    its angular extent as seen from the point.
    """
    fov = platform.fov(image_id)
    if not fov.contains_point(point):
        return set()
    bearing = initial_bearing_deg(point, fov.camera)
    distance = haversine_m(point, fov.camera)
    # Angular half-extent of the camera's view as seen from the point;
    # nearby wide shots cover a bigger wedge of the panorama.
    half_extent = min(90.0, fov.angle_deg / 2.0 + 3_000.0 / max(distance, 10.0))
    total = int(360.0 / BUCKET_DEG)
    covered = set()
    for bucket in range(total):
        center = (bucket + 0.5) * BUCKET_DEG
        if angular_difference_deg(center, bearing) <= half_extent:
            covered.add(bucket)
    return covered


def select_panorama_frames(
    platform: TVDP,
    point: GeoPoint,
    max_frames: int = 12,
) -> PanoramaSelection:
    """Greedy set cover: repeatedly take the stored image adding the
    most uncovered direction buckets around ``point``."""
    if max_frames < 1:
        raise TVDPError(f"max_frames must be >= 1, got {max_frames}")
    depicting = SpatialQuery(point=point, radius_m=0.0)
    candidates = platform.slice.spatial_ids(depicting).tolist()
    total = int(360.0 / BUCKET_DEG)
    coverage = {
        image_id: _buckets_covered(platform, image_id, point)
        for image_id in candidates
    }
    coverage = {i: b for i, b in coverage.items() if b}

    chosen: list[int] = []
    covered: set[int] = set()
    while coverage and len(chosen) < max_frames and len(covered) < total:
        image_id, buckets = max(
            coverage.items(), key=lambda pair: (len(pair[1] - covered), -pair[0])
        )
        gain = buckets - covered
        if not gain:
            break
        chosen.append(image_id)
        covered |= buckets
        del coverage[image_id]
    return PanoramaSelection(
        point=point,
        image_ids=tuple(chosen),
        covered_buckets=frozenset(covered),
        total_buckets=total,
    )
