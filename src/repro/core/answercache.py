"""The version-stamped answer cache.

TVDP is shared: its users reuse each other's data, features and results,
and its traffic repeats itself — the same dashboard view, the same
district label, the same example vector asked for again before anything
is written.  :class:`AnswerCache` lets such a repeat cost a lookup.

It answers only at the catalog's write version it was filled at
(:attr:`repro.db.database.Database.version`, which every row write and
every index write moves):

* the first query to see the version move drops the cache wholesale and
  neither reads nor fills it, so a platform taking a write before every
  query pays an integer compare and the emptying of an empty cache;
* an answer is admitted on the *second* sighting of its key at one
  version — the first is noted as the key's digest (:func:`answer_digest`)
  in a bounded set, never as the query — and only if the version did not
  move while the query ran;
* a partial answer (``failed_shards``), an example-image visual query
  and a query whose key cannot be built are never stored;
* the ids held are bounded by :data:`MAX_IDS`: an answer that would
  cross it starts the cache over.

A hit is the stored :class:`~repro.core.queries.Answer` itself, shared
between every caller that gets it: read-only to all of them.
"""

from __future__ import annotations

import threading
from typing import Hashable

from repro.core.queries import Answer, HybridQuery, SpatialQuery, VisualQuery

#: Most answer ids the cache holds at once, over all its answers.
MAX_IDS = 100_000
#: Most first sightings (key digests) noted at once; past it the notes
#: start over.
MAX_SEEN = 65_536


def answer_key(query: object) -> Hashable | None:
    """What identifies ``query``'s answer: its fields — the query
    itself, whose dataclass equality and hash are over them — with the
    vector's bytes for a visual query and the parts' keys for a hybrid.
    ``None`` for a visual query by example image, whose vector is only
    known once extracted."""
    kind = type(query)
    if kind is HybridQuery:
        parts = query.queries
    elif kind is VisualQuery:
        parts = (query,)
    else:
        return query
    key: list = [kind]
    for part in parts:
        if type(part) is VisualQuery:
            if part.vector is None:
                return None
            part = (part.extractor_name, part.vector.tobytes(), part.k, part.max_distance)
        key.append(part)
    return tuple(key)


def answer_digest(query: object) -> int | None:
    """``query``'s key, hashed without being built — what every lookup
    pays, where the key itself is built only once a digest is found, to
    be compared or held.  Equal keys have equal digests: a box's corners
    are read off it rather than hashed through its dataclass, and a
    vector's squared norm stands in for its bytes (two vectors that
    share one are told apart by their keys).  ``None`` when the key is;
    a field that does not hash raises ``TypeError``."""
    kind = type(query)
    if kind is SpatialQuery:
        box = query.region
        if box is not None:
            return hash((box.min_lat, box.min_lng, box.max_lat, box.max_lng,
                         query.mode, query.direction_deg))
        return hash((query.point, query.radius_m, query.mode, query.direction_deg))
    if kind is VisualQuery:
        if query.vector is None:
            return None
        return hash((query.extractor_name, query.k, query.max_distance, query.sq_norm))
    if kind is HybridQuery:
        digests: list = [kind]
        for part in query.queries:
            digest = answer_digest(part)
            if digest is None:
                return None
            digests.append(digest)
        return hash(tuple(digests))
    return hash(query)


class AnswerCache:
    """Whole answers by query key, valid at one write version (see the
    module docstring for what is admitted and when it is dropped)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: The write version every held answer and sighting belongs to.
        self._version = -1
        #: key digest -> (key, answer).
        self._answers: dict[int, tuple[Hashable, Answer]] = {}
        #: Digests of the keys sighted once at ``_version``.
        self._seen: set[int] = set()
        self._ids = 0

    def lookup(self, query: object, version: int) -> tuple[Answer | None, tuple | None]:
        """``(answer, ticket)`` for ``query`` asked at write ``version``:
        the held answer (a hit), or ``None`` and the ticket that
        :meth:`admit` takes to store the answer once run — ``None`` too
        unless this is the key's second sighting."""
        if version != self._version:
            self._turn(version)
            return None, None
        try:
            digest = answer_digest(query)
        except TypeError:
            return None, None
        if digest is None:
            return None, None
        with self._lock:
            held = self._answers.get(digest)
            if held is None and digest not in self._seen:
                if len(self._seen) >= MAX_SEEN:
                    self._seen.clear()
                self._seen.add(digest)
                return None, None
        # The digest is held or was sighted: the key decides.
        key = answer_key(query)
        if held is None:
            return None, (key, digest, version)
        return (held[1], None) if held[0] == key else (None, None)

    def admit(self, ticket: tuple, answer: Answer, version: int) -> None:
        """Hold ``answer`` under ``ticket``'s key, if it is whole and
        the write version, read again now the query has run, is the one
        the ticket was issued at."""
        key, digest, issued_at = ticket
        size = len(answer.ids)
        if version != issued_at or answer.failed_shards or size > MAX_IDS:
            return
        with self._lock:
            if self._version != issued_at:
                return
            replaced = self._answers.pop(digest, None)
            if replaced is not None:
                self._ids -= len(replaced[1].ids)
            if self._ids + size > MAX_IDS:
                self._answers.clear()
                self._ids = 0
            self._answers[digest] = (key, answer)
            self._ids += size

    def _turn(self, version: int) -> None:
        """Start over at ``version``, unless the cache is there already
        or past it (a reader that read the version before a racing
        writer moved it)."""
        with self._lock:
            if version > self._version:
                self._version = version
                self._answers.clear()
                self._seen.clear()
                self._ids = 0
