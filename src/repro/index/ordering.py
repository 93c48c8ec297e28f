"""Canonical tie-break ordering shared by every ranked index path.

Equal-scored hits used to surface in whatever order a heap, a hash set,
or a stable argsort happened to produce them — fine for one process,
fatal for scatter-gather: a coordinator merging per-shard top-k lists
would interleave ties differently than a serial scan, so sharded and
serial answers could disagree on *order* while agreeing on *content*.

Every ranked path therefore breaks ties on :func:`tie_key`, giving one
total order — ``(score, media_id)`` — that serial execution and the
shard merge both produce bit-for-bit.

Ranked answers travel as two parallel columns, ids and scores (or
distances).  An id column is int64 while every id is a plain ``int``
that fits (:func:`fits`), and object dtype otherwise; on int64 the
canonical order is one ``lexsort``, on object the ``tie_key`` sort.
"""

from __future__ import annotations

import numpy as np

_KeyTuple = tuple[int, float, str]


def tie_key(item: object) -> _KeyTuple:
    """Total-order sort key for opaque item ids.

    Numeric ids (the platform's media ids) order numerically and before
    non-numeric ids, which order by their string form — so mixed id
    vocabularies still compare without ``TypeError``.  A number is its
    own key: Python compares ints and floats exactly, where a float of
    an int past 2**53 would tie it with its neighbours.
    """
    if isinstance(item, bool):
        return (1, 0.0, str(item))
    if isinstance(item, (int, float)):
        return (0, item, "")
    return (1, 0.0, str(item))


def fits(item: object) -> bool:
    """Whether ``item`` can live in an int64 id column."""
    return type(item) is int and -(2**63) <= item < 2**63


def id_column(items: list) -> np.ndarray:
    """``items`` as an id column: int64 if every one :func:`fits`,
    else object dtype holding the items themselves."""
    if all(map(fits, items)):
        return np.array(items, dtype=np.int64)
    return np.fromiter(items, dtype=object, count=len(items))


def by_score(ids: np.ndarray, scores: np.ndarray) -> tuple[list, list[float]]:
    """The items of two parallel columns (``scores[i]`` the score of
    ``ids[i]``) in the canonical ranked order — best score first, ties
    on :func:`tie_key` — as two parallel lists.

    An int64 id column is ordered by one ``lexsort`` (score descending,
    then id: :func:`tie_key` is the numeric order there); any other id
    column goes through the ``(-score, tie_key)`` sort.
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


def by_distance(
    ids: np.ndarray, distances: np.ndarray, k: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` nearest (all for ``k=None``) of two parallel columns
    (``distances[i]`` the distance of ``ids[i]``) as two columns in
    canonical order — nearest first, ties on :func:`tie_key`: order
    everything, then cut.  Selection is the caller's
    (:meth:`LSHIndex.nearest_columns` hands over little more than ``k``
    rows; a shard merge at most ``k`` per shard).

    An int64 id column is ordered by one ``lexsort`` on ``(distance,
    id)``; any other id column goes through the ``(distance,
    tie_key)`` sort.
    """
    if ids.dtype.kind == "i":
        order = np.lexsort((ids, distances))[:k]
    else:
        keys = distances.tolist()
        ranked = sorted(range(len(ids)), key=lambda i: (keys[i], tie_key(ids[i])))
        order = np.array(ranked[:k], dtype=np.intp)
    return ids[order], distances[order]


def pairs(ids: np.ndarray, values: np.ndarray) -> list[tuple]:
    """Two parallel columns as a list of ``(id, value)`` pairs."""
    return list(zip(ids.tolist(), values.tolist()))


def nearest(items: list, distances: np.ndarray, k: int | None) -> list[tuple[object, float]]:
    """:func:`by_distance` of a list of items, as ``(item, distance)`` pairs."""
    return pairs(*by_distance(id_column(items), distances, k))
