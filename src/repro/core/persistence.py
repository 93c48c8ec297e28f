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

import zipfile
import zlib
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
    """Persist image blobs, then database rows, under ``directory``.

    Each file is written beside itself and renamed over the old one, so
    a save that dies part-way leaves every file whole.  The blobs go
    first: the catalog only grows, so whatever ``db.json`` is on disk,
    the blobs there cover each of its rows (a load drops the rest)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays = {
        str(image_id): image.to_uint8() for image_id, image in platform.blobs().items()
    }
    blobs = directory / _BLOBS_FILE
    tmp = blobs.with_name(blobs.name + ".tmp")
    with open(tmp, "wb") as file:  # a file object: numpy adds no suffix
        np.savez_compressed(file, **arrays)
    tmp.replace(blobs)
    dump_database(platform.db, directory / _DB_FILE)


def load_platform(directory: str | Path) -> TVDP:
    """Rebuild a platform from :func:`save_platform` output.

    Relational state and blobs are restored exactly — the blobs of the
    images whose rows came back; the index suite is rebuilt from the
    rows by :meth:`repro.core.slice.CatalogSlice.rebuild` (indexes are
    derived state, so rebuilding keeps the on-disk format simple and
    forward-compatible).  Feature *extractors* are code, not data —
    re-register them after loading before issuing visual queries that
    pass raw example images.  A snapshot without ``db.json``, or whose
    blobs do not read, raises :class:`TVDPError`.
    """
    directory = Path(directory)
    if not (directory / _DB_FILE).exists():
        raise TVDPError(f"no platform snapshot in {directory}")
    db = load_database(directory / _DB_FILE)
    # Snapshots written before the time indexes existed do not list
    # them; like every platform index they are derived from rows.
    for column in TEMPORAL_FIELDS:
        db.table("images").create_ordered_index(column)
    images = db.table("images")
    try:
        with np.load(directory / _BLOBS_FILE) as archive:
            blobs = {
                int(key): Image.from_uint8(archive[key])
                for key in archive.files
                if int(key) in images
            }
    except (OSError, EOFError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
        raise TVDPError(f"unreadable image blobs in {directory}: {exc}") from exc
    platform = TVDP()
    platform.restore(db, blobs)
    return platform
