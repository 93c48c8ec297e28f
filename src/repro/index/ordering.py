"""Canonical tie-break ordering shared by every ranked index path.

Equal-scored hits used to surface in whatever order a heap, a hash set,
or a stable argsort happened to produce them — fine for one process,
fatal for scatter-gather: a coordinator merging per-shard top-k lists
would interleave ties differently than a serial scan, so sharded and
serial answers could disagree on *order* while agreeing on *content*.

Every ranked path therefore breaks ties on :func:`tie_key`, giving one
total order — ``(score, media_id)`` — that serial execution and the
shard merge both produce bit-for-bit.
"""

from __future__ import annotations

import numpy as np

_KeyTuple = tuple[int, float, str]


def tie_key(item: object) -> _KeyTuple:
    """Total-order sort key for opaque item ids.

    Numeric ids (the platform's media ids) order numerically and before
    non-numeric ids, which order by their string form — so mixed id
    vocabularies still compare without ``TypeError``.
    """
    if isinstance(item, bool):
        return (1, 0.0, str(item))
    if isinstance(item, (int, float)):
        return (0, float(item), "")
    return (1, 0.0, str(item))


def by_score(ids: np.ndarray, scores: np.ndarray) -> tuple[list, list[float]]:
    """The items of two parallel columns (``scores[i]`` the score of
    ``ids[i]``) in the canonical ranked order — best score first, ties
    on :func:`tie_key` — as two parallel lists.

    An int64 id column is ordered by one ``lexsort`` (score descending,
    then id: :func:`tie_key` is the numeric order there); any other id
    column goes through the ``(-score, tie_key)`` sort, the split
    :func:`nearest` makes.
    """
    if len(ids) < 2:
        return ids.tolist(), scores.tolist()
    if ids.dtype.kind == "i":
        order = np.lexsort((ids, -scores))
        return ids[order].tolist(), scores[order].tolist()
    pairs = sorted(
        zip(ids.tolist(), scores.tolist()),
        key=lambda pair: (-pair[1], tie_key(pair[0])),
    )
    return [item for item, _ in pairs], [score for _, score in pairs]


def nearest(
    items: list, distances: np.ndarray, k: int | None
) -> list[tuple[object, float]]:
    """The ``k`` nearest of ``items`` (all of them for ``k=None``) as
    ``(item, distance)`` in canonical order, ``distances[i]`` being the
    distance of ``items[i]``: order everything, then cut.  Selection is
    the caller's (:meth:`LSHIndex.nearest_rows` hands over little more
    than ``k`` rows).

    Plain-``int`` ids — the platform's — are ordered as arrays, where
    :func:`tie_key` is the numeric order; anything else goes through
    the ``(distance, tie_key)`` sort, the split :func:`by_score` makes.
    """
    if set(map(type, items)) <= {int}:
        ids = np.asarray(items)
        if ids.dtype.kind == "i":  # not so for an int past 64 bits
            order = np.lexsort((ids, distances))[:k]
            return list(zip(ids[order].tolist(), distances[order].tolist()))
    pairs = sorted(
        zip(items, distances.tolist()),
        key=lambda pair: (pair[1], tie_key(pair[0])),
    )
    return pairs[:k]
