"""Scene localisation and panorama selection read the FOV columns.

``TVDP.localize_scene`` once took its other views from
``OrientedRTree.search_overlapping`` and ``select_panorama_frames`` its
candidates from ``OrientedRTree.search_point``, both over a tree the
catalog slice kept.  Those two readers are kept here as oracles, over an
Oriented R-tree filled from the same FOVs in upload order.  Hypothesis
draws catalogs with images that have no FOV (augmented), several
cameras at one point, and more mutually overlapping views than
``max_views`` takes.

Panorama selection must equal the oracle on every draw.  Localisation
must equal it whenever at most ``max_views - 1`` other views overlap.
Beyond that the column scan takes the lowest ids, where the tree took
whichever its node layout listed first, so the oracle is asked to take
the lowest too.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import PanoramaSelection, select_panorama_frames
from repro.analysis.panorama import BUCKET_DEG, _buckets_covered
from repro.core import TVDP
from repro.geo import FieldOfView, GeoPoint
from repro.geo.scene import LocalizedScene
from repro.imaging.augment import Augmentation, flip_vertical
from repro.imaging.image import Image
from repro.index import OrientedRTree

#: Camera spots: two a few metres apart, one about 1.1 km north.
SPOTS = [(34.05, -118.25), (34.05002, -118.25001), (34.06, -118.25)]

images = st.lists(
    st.one_of(
        st.fixed_dictionaries(
            {
                "op": st.just("upload"),
                "spot": st.integers(0, len(SPOTS) - 1),
                "direction": st.sampled_from([0.0, 90.0, 180.0, 270.0, 359.9]),
                # 360: the whole disc, so cameras at one spot all overlap.
                "angle": st.sampled_from([60.0, 120.0, 360.0]),
                "range_m": st.sampled_from([80.0, 500.0, 1500.0]),
            }
        ),
        st.fixed_dictionaries({"op": st.just("augment"), "pick": st.integers(0, 63)}),
    ),
    min_size=1,
    max_size=24,
)


def distinct_image(n: int) -> Image:
    """A 2x2 image no other ``n`` (< 32) nor any flip of one hashes to."""
    pixels = np.full((2, 2, 3), 0.5)
    pixels[0, 0, 0] = n / 64.0
    return Image(pixels)


def tree_overlapping(tree: OrientedRTree, fov: FieldOfView) -> list[int]:
    """``OrientedRTree.search_overlapping``: the MBR candidates in the
    tree's order, refined by ``overlaps_fov``."""
    return [
        item
        for item, _ in tree._tree.search_range(fov.mbr())
        if tree._fovs[item].overlaps_fov(fov)
    ]


def tree_localize(
    platform: TVDP, tree: OrientedRTree, image_id: int, max_views: int, lowest: bool
) -> LocalizedScene:
    """``localize_scene``'s estimate as the tree answered it; ``lowest``:
    of the overlapping views, the lowest ids rather than the tree's first."""
    fov = platform.fov(image_id)
    overlapping = [other for other in tree_overlapping(tree, fov) if other != image_id]
    if lowest:
        overlapping.sort()
    fovs = [fov] + [platform.fov(other) for other in overlapping[: max_views - 1]]
    return LocalizedScene.estimate(fovs)


def tree_panorama(
    platform: TVDP, tree: OrientedRTree, point: GeoPoint, max_frames: int
) -> PanoramaSelection:
    """``select_panorama_frames`` with its candidates from the tree."""
    candidates = tree.search_point(point.lat, point.lng)
    total = int(360.0 / BUCKET_DEG)
    coverage = {
        image_id: _buckets_covered(platform, image_id, point) for image_id in candidates
    }
    coverage = {i: b for i, b in coverage.items() if b}
    chosen: list[int] = []
    covered: set[int] = set()
    while coverage and len(chosen) < max_frames and len(covered) < total:
        image_id, buckets = max(
            coverage.items(), key=lambda pair: (len(pair[1] - covered), -pair[0])
        )
        if not buckets - covered:
            break
        chosen.append(image_id)
        covered |= buckets
        del coverage[image_id]
    return PanoramaSelection(point, tuple(chosen), frozenset(covered), total)


@settings(max_examples=60, deadline=None)
@given(images, st.sampled_from([1, 2, 3, 5]), st.sampled_from([1, 2, 12]))
def test_localisation_and_panorama_equal_the_tree_backed_readers(ops, max_views, max_frames):
    platform = TVDP()
    tree = OrientedRTree()
    stored: list[int] = []
    for n, op in enumerate(ops):
        if op["op"] == "upload":
            fov = FieldOfView(
                GeoPoint(*SPOTS[op["spot"]]), op["direction"], op["angle"], op["range_m"]
            )
            receipt = platform.upload_image(distinct_image(n), fov, 0.0, 1.0)
            stored.append(receipt.image_id)
            tree.insert(receipt.image_id, fov)
        elif stored:
            source = stored[op["pick"] % len(stored)]
            platform.add_augmented(source, [Augmentation("flip_v", flip_vertical)])

    for image_id in stored:
        others = [o for o in tree_overlapping(tree, platform.fov(image_id)) if o != image_id]
        lowest = len(others) > max_views - 1
        want = tree_localize(platform, tree, image_id, max_views, lowest)
        assert platform.localize_scene(image_id, max_views) == want, (image_id, others)
    points = [GeoPoint(*spot) for spot in SPOTS] + [GeoPoint(34.053, -118.25)]
    for point in points:
        want = tree_panorama(platform, tree, point, max_frames)
        assert select_panorama_frames(platform, point, max_frames) == want, point
