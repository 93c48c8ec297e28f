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
from repro.imaging.image import Image
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
        str(image_id): image.to_uint8() for image_id, image in platform.blobs().items()
    }
    np.savez_compressed(directory / _BLOBS_FILE, **arrays)


def load_platform(directory: str | Path) -> TVDP:
    """Rebuild a platform from :func:`save_platform` output.

    Relational state and blobs are restored exactly; the index suite is
    rebuilt from the rows by :meth:`repro.core.slice.CatalogSlice.rebuild`
    (indexes are derived state, so rebuilding keeps the on-disk format
    simple and forward-compatible).  Feature *extractors* are code, not
    data — re-register them after loading before issuing visual queries
    that pass raw example images.
    """
    directory = Path(directory)
    if not (directory / _DB_FILE).exists():
        raise TVDPError(f"no platform snapshot in {directory}")
    db = load_database(directory / _DB_FILE)
    # Snapshots written before the time indexes existed do not list
    # them; like every platform index they are derived from rows.
    for column in TEMPORAL_FIELDS:
        db.table("images").create_ordered_index(column)
    with np.load(directory / _BLOBS_FILE) as archive:
        blobs = {int(key): Image.from_uint8(archive[key]) for key in archive.files}
    platform = TVDP()
    platform.restore(db, blobs)
    return platform
