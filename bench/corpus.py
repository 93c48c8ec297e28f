"""Seeded corpus generator shared by every workload.

A 4x4 lattice of "districts" over the LA box; district ``d`` captures in
time wave ``[1000 d, 1000 d + 999]`` (geo-correlated time, the shape
shard pruning exists for).  Images are 8x8 district-tinted noise, so HSV
histograms cluster by district and LSH buckets are neither empty nor
all-in-one (see ``PIXEL_NOISE``).  Capture ``i`` is a pure function of
``(seed, i)``: a write workload continues the stream where set-up
stopped.
"""

from __future__ import annotations

import colorsys
from dataclasses import dataclass

import numpy as np

from repro.imaging import CLEANLINESS_CLASSES

LAT0, LNG0 = 34.0, -118.5
GRID = 4  # districts per side
DISTRICT_DEG = 0.1
N_DISTRICTS = GRID * GRID
WAVE_S = 1000.0
N_KEYWORDS = 197
EXTRACTOR = "color_hsv_20_20_10"
CLASSIFICATIONS = {
    "district": [f"d{d}" for d in range(N_DISTRICTS)],
    "street_cleanliness": list(CLEANLINESS_CLASSES),
}
IMAGE_PX = 8
#: Per-channel pixel noise around the district tint.  At 0.03 an image
#: shares LSH buckets with some 40 others of a 4,000-image corpus: a
#: k=10 search is answered from hash candidates nine times in ten, a
#: k=100 search nearly always by the exhaustive fallback.  Wider noise
#: puts k=10 on the boundary between the two and its median flips.
PIXEL_NOISE = 0.03


def district_origin(district: int) -> tuple[float, float]:
    """South-west corner of a district tile."""
    row, col = divmod(district, GRID)
    return LAT0 + row * DISTRICT_DEG, LNG0 + col * DISTRICT_DEG


@dataclass(frozen=True)
class Capture:
    """One generated geo-tagged image and the labels attached to it."""

    index: int
    district: int
    lat: float
    lng: float
    direction_deg: float
    captured_at: float
    pixels_u8: list
    keywords: tuple[str, ...]
    cleanliness: str


def capture(seed: int, index: int) -> Capture:
    rng = np.random.default_rng([seed, 1, index])
    district = index % N_DISTRICTS
    lat0, lng0 = district_origin(district)
    tint = colorsys.hsv_to_rgb(district / N_DISTRICTS, 0.6, 0.7)
    pixels = np.clip(tint + rng.normal(0.0, PIXEL_NOISE, (IMAGE_PX, IMAGE_PX, 3)), 0.0, 1.0)
    return Capture(
        index=index,
        district=district,
        lat=lat0 + float(rng.uniform(0.002, DISTRICT_DEG - 0.002)),
        lng=lng0 + float(rng.uniform(0.002, DISTRICT_DEG - 0.002)),
        direction_deg=float(rng.integers(0, 360)),
        captured_at=district * WAVE_S + float(rng.uniform(0.0, WAVE_S - 1.0)),
        pixels_u8=np.round(pixels * 255.0).astype(np.uint8).tolist(),
        keywords=(f"district{district}", "street", f"kw{index % N_KEYWORDS}"),
        cleanliness=CLEANLINESS_CLASSES[int(rng.integers(len(CLEANLINESS_CLASSES)))],
    )


def captures(seed: int, start: int, count: int) -> list[Capture]:
    return [capture(seed, i) for i in range(start, start + count)]


def fov_body(c: Capture) -> dict:
    """The capture's field of view, as ``FieldOfView.from_dict`` takes it."""
    return {
        "lat": c.lat,
        "lng": c.lng,
        "direction_deg": c.direction_deg,
        "angle_deg": 60.0,
        "range_m": 120.0,
    }


def upload_body(c: Capture) -> dict:
    """``POST /images`` payload for one capture."""
    return {
        "image": {"pixels_u8": c.pixels_u8},
        "fov": fov_body(c),
        "captured_at": c.captured_at,
        "uploaded_at": c.captured_at + 5.0,
        "keywords": list(c.keywords),
    }


def annotation_bodies(c: Capture) -> list[dict]:
    """The two ``POST /images/{id}/annotations`` payloads of a capture:
    ``district`` is geo-correlated (prunable), ``street_cleanliness``
    is drawn uniformly (not prunable)."""
    return [
        {
            "classification": "district",
            "label": f"d{c.district}",
            "confidence": 0.9,
            "source": "machine",
        },
        {
            "classification": "street_cleanliness",
            "label": c.cleanliness,
            "confidence": 0.9,
            "source": "machine",
        },
    ]
