"""One builder: a catalog slice rebuilt from rows answers exactly like
the slice that uploads and ``extract_features`` filled incrementally.

``CatalogSlice.rebuild`` has two callers — ``load_platform`` (no parent)
and ``partition_catalog`` (the platform's slice as parent) — and the
platform's own slice is the third way the same indexes get filled.
Hypothesis draws a catalog and an interleaving of uploads, annotations,
on-demand feature requests (out of id order) and augmentations; at a
checkpoint mid-stream and again at the end, every per-slice scan and
every index probe the serial runners and the shard router use must give
the same answer on all three.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CatalogSlice,
    SpatialQuery,
    TemporalQuery,
    TVDP,
    load_platform,
    save_platform,
)
from repro.geo import BoundingBox, FieldOfView, GeoPoint
from repro.imaging.augment import Augmentation, flip_vertical
from repro.shard import partition_catalog
from tests.shard.test_equivalence import (
    LABELS,
    VOCAB,
    PixelProbeExtractor,
    image_specs,
    query_params,
    tie_prone_image,
)

EXTRACTOR = PixelProbeExtractor.name


def rebuilt_slices(platform: TVDP, directory) -> dict[str, CatalogSlice]:
    """The platform's rows through both callers of the one builder."""
    save_platform(platform, directory)
    (shard,) = partition_catalog(platform, 1)
    return {"load_platform": load_platform(directory).slice, "partition": shard.slice}


def answers(catalog_slice: CatalogSlice, platform: TVDP, params: dict) -> dict:
    """Every scan and probe, keyed by name, on one slice."""
    lat_lo, lat_hi = sorted(params["lat_pair"])
    lng_lo, lng_hi = sorted(params["lng_pair"])
    box = BoundingBox(lat_lo, lng_lo, lat_hi + 0.01, lng_hi + 0.01)
    t_lo, t_hi = sorted(params["t_window"])
    vector = np.asarray(params["probe_levels"], dtype=np.float64)
    type_ids = [platform.catalog.type_id("condition", label) for label in LABELS]
    out = {
        "spatial_ids.region": catalog_slice.spatial_ids(
            SpatialQuery(region=box, mode=params["mode"], direction_deg=90.0)
        ),
        "spatial_ids.point": catalog_slice.spatial_ids(
            SpatialQuery(
                point=GeoPoint(lat_lo, lng_lo),
                radius_m=params["radius_m"],
                mode=params["mode"],
            )
        ),
        "temporal_ids": catalog_slice.temporal_ids(
            TemporalQuery(start=float(t_lo), end=float(t_hi))
        ),
        "temporal_ids.uploading": catalog_slice.temporal_ids(
            TemporalQuery(end=float(t_hi), field="timestamp_uploading")
        ),
        "best_confidence": catalog_slice.best_confidence(
            type_ids, params["min_confidence"], params["source"]
        ),
        "search_range": sorted(catalog_slice.spatial.search_range(box)),
        "search_point": sorted(catalog_slice.spatial.search_point(lat_lo, lng_lo)),
        "postings_for": catalog_slice.text.postings_for(sorted(VOCAB)),
        "extractors": sorted(catalog_slice.visual_indexes()),
    }
    if EXTRACTOR in catalog_slice.visual_indexes():
        out["topk_with_stats"] = catalog_slice.lsh(EXTRACTOR).topk_with_stats(
            vector, params["k"]
        )
        out["spatial_visual_knn"] = catalog_slice.hybrid(EXTRACTOR).spatial_visual_knn(
            box, vector, params["k"]
        )
    return out


def assert_rebuilt_matches_live(platform: TVDP, params: dict, directory) -> None:
    live = answers(platform.slice, platform, params)
    for path, rebuilt in rebuilt_slices(platform, directory).items():
        got = answers(rebuilt, platform, params)
        for probe, want in live.items():
            assert got[probe] == want, f"{path}: {probe}: {got[probe]} != {want}"
            # == compares distances by value; pin bit-identity too.
            assert repr(got[probe]) == repr(want), f"{path}: {probe}"


@settings(max_examples=25, deadline=None)
@given(
    specs=image_specs,
    params=query_params,
    feature_picks=st.lists(st.integers(0, 63), min_size=16, max_size=16),
    checkpoint=st.integers(1, 15),
)
def test_slice_rebuilt_from_rows_answers_like_the_incremental_one(
    tmp_path_factory, specs, params, feature_picks, checkpoint
):
    platform = TVDP()
    platform.catalog.define("condition", LABELS)
    platform.register_extractor(PixelProbeExtractor())
    stored: list[int] = []
    for step, (spec, pick) in enumerate(zip(specs, feature_picks)):
        receipt = platform.upload_image(
            image=tie_prone_image(spec["levels"], spec["delta"]),
            fov=FieldOfView(
                GeoPoint(spec["lat"], spec["lng"]), spec["direction"], 60.0, 500.0
            ),
            captured_at=float(spec["t"]),
            uploaded_at=float(spec["t"]) + 1.0,
            keywords=tuple(spec["keywords"]),
        )
        if not receipt.deduplicated:
            stored.append(receipt.image_id)
        if spec["annotation"] is not None:
            label, confidence, source = spec["annotation"]
            platform.annotations.annotate(
                receipt.image_id, "condition", label, confidence, source=source
            )
        # A feature request for some earlier image: vectors are stored
        # (and indexed) out of image-id order, unlike the rebuild.
        platform.feature_vector(stored[pick % len(stored)], EXTRACTOR)
        if step % 5 == 4:
            platform.add_augmented(stored[0], [Augmentation("flip_v", flip_vertical)])
        if step + 1 == checkpoint:
            assert_rebuilt_matches_live(platform, params, tmp_path_factory.mktemp("mid"))
    platform.extract_features(EXTRACTOR)
    assert_rebuilt_matches_live(platform, params, tmp_path_factory.mktemp("end"))
