"""Whole-platform persistence.

The relational rows already round-trip through :mod:`repro.db`; this
module adds the pixel blobs and rebuilds the in-memory indexes on load,
so a TVDP instance survives process restarts — table stakes for a
platform whose value is accumulated shared knowledge.

Layout on disk (a directory):

* ``db.json``    — the relational store (schema + rows + index defs);
* ``blobs.npz``  — one uint8 array per image id.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import TVDPError
from repro.db.persistence import dump_database, load_database
from repro.geo.fov import FieldOfView
from repro.geo.point import GeoPoint
from repro.imaging.image import Image
from repro.index.lsh import LSHIndex
from repro.index.hybrid import VisualRTree
from repro.core.platform import TVDP
from repro.core.queries import TEMPORAL_FIELDS

_DB_FILE = "db.json"
_BLOBS_FILE = "blobs.npz"


def save_platform(platform: TVDP, directory: str | Path) -> None:
    """Persist database rows and image blobs under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    dump_database(platform.db, directory / _DB_FILE)
    arrays = {
        str(image_id): image.to_uint8()
        for image_id, image in platform._blobs.items()
    }
    np.savez_compressed(directory / _BLOBS_FILE, **arrays)


def load_platform(directory: str | Path) -> TVDP:
    """Rebuild a platform from :func:`save_platform` output.

    Relational state and blobs are restored exactly; the spatial,
    textual, visual, and hybrid indexes are rebuilt from the rows
    (indexes are derived state, so rebuilding keeps the on-disk format
    simple and forward-compatible).  Feature *extractors* are code, not
    data — re-register them after loading before issuing visual queries
    that pass raw example images.
    """
    directory = Path(directory)
    if not (directory / _DB_FILE).exists():
        raise TVDPError(f"no platform snapshot in {directory}")
    platform = TVDP()
    platform.db = load_database(directory / _DB_FILE)
    # The helper services hold a reference to the db — repoint them.
    from repro.core.annotations import AnnotationService
    from repro.core.catalog import ClassificationCatalog

    platform.catalog = ClassificationCatalog(platform.db)
    platform.annotations = AnnotationService(platform.db, platform.catalog)

    # The platform is not yet published to other threads, but its blob
    # and dedup maps are declared lock-guarded in the concurrency
    # manifest — hydrate them under the same lock the serving paths use.
    with platform._lock:
        with np.load(directory / _BLOBS_FILE) as blobs:
            for key in blobs.files:
                platform._blobs[int(key)] = Image.from_uint8(blobs[key])

        images = platform.db.table("images")
        # Snapshots written before the time indexes existed do not list
        # them; like every platform index they are derived from rows.
        for column in TEMPORAL_FIELDS:
            images.create_ordered_index(column)
        for row in images.all_rows():
            image_id = row["image_id"]
            if image_id in platform._blobs:
                platform._hash_to_id[row["content_hash"]] = image_id

    # Spatial index from FOV rows.
    for fov_row in platform.db.table("image_fov").all_rows():
        image_row = images.get(fov_row["image_id"])
        platform._spatial.insert(
            fov_row["image_id"],
            FieldOfView(
                camera=GeoPoint(image_row["lat"], image_row["lng"]),
                direction_deg=fov_row["direction_deg"],
                angle_deg=fov_row["angle_deg"],
                range_m=fov_row["range_m"],
            ),
        )

    # Textual index from keywords (one document per image).
    keywords_by_image: dict[int, list[str]] = {}
    for kw_row in platform.db.table("image_manual_keywords").all_rows():
        keywords_by_image.setdefault(kw_row["image_id"], []).append(kw_row["keyword"])
    for image_id, words in keywords_by_image.items():
        platform._text.add(image_id, " ".join(words))

    # Visual + hybrid indexes from stored feature vectors.  The index
    # registries are lock-guarded; the per-index inserts below take each
    # index's own lock, matching the nesting order of the upload path.
    for feature_row in platform.db.table("image_visual_features").all_rows():
        name = feature_row["extractor_name"]
        vector = np.array(feature_row["vector"], dtype=np.float64)
        with platform._lock:
            if name not in platform._lsh:
                platform._lsh[name] = LSHIndex(dimension=vector.shape[0])
                platform._hybrid[name] = VisualRTree(dimension=vector.shape[0])
            lsh, hybrid = platform._lsh[name], platform._hybrid[name]
        image_row = images.get(feature_row["image_id"])
        lsh.insert(feature_row["image_id"], vector)
        hybrid.insert(
            feature_row["image_id"],
            GeoPoint(image_row["lat"], image_row["lng"]),
            vector,
        )
    return platform
