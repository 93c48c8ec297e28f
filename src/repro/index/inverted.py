"""Inverted index with tf-idf ranking for textual queries.

Zobel & Moffat-style inverted files (paper ref. [27]) over the manual
keywords and descriptions attached to images.
"""

from __future__ import annotations

import math
import re
import threading
from collections import Counter

import numpy as np

from repro.errors import IndexError_
from repro.index.ordering import by_score, fits
from repro.obs import metrics as _metrics
from repro.obs.accounting import charge_probes

# Probe counters: postings entries touched while scoring.
_QUERIES = _metrics().counter("index.inverted.queries")
_POSTINGS_SCANNED = _metrics().counter("index.inverted.postings_scanned")

_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: Words too common to carry signal in short keyword strings.
STOPWORDS = frozenset(
    "a an and are as at be by for from has in is it of on or the to with".split()
)


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokens minus stopwords."""
    return [t for t in _TOKEN_RE.findall(text.lower()) if t not in STOPWORDS]


#: Rows a column starts with; it doubles when full.
_INITIAL_ROWS = 16

#: The position past every document's: what a posting list holds past
#: its last row.
_PAST = np.iinfo(np.int64).max


def _grown(column: np.ndarray, rows: int, fill: object = 0) -> np.ndarray:
    """``column`` with room for a row past its first ``rows``: itself,
    or a copy twice the size, ``fill`` past those rows (a reader's view
    of the old one stays as it was)."""
    if rows < len(column):
        return column
    grown = np.full(2 * len(column), fill, dtype=column.dtype)
    grown[:rows] = column[:rows]
    return grown


class _Postings:
    """One term's posting list as two growable columns in ascending
    document position: the position, and the term's frequency there
    (a float64, exact for a count).  The columns always have a row past
    the last — position :data:`_PAST`, frequency zero — so a bisection
    never lands outside them."""

    __slots__ = ("positions", "tfs", "count")

    def __init__(self) -> None:
        self.positions = np.full(_INITIAL_ROWS, _PAST, dtype=np.int64)
        self.tfs = np.zeros(_INITIAL_ROWS)
        self.count = 0

    def __len__(self) -> int:
        return self.count

    def live(self) -> tuple[np.ndarray, np.ndarray]:
        return self.positions[: self.count], self.tfs[: self.count]

    def append(self, position: int, tf: int) -> None:
        """List a new document, which has the highest position yet."""
        n = self.count
        if n + 1 == len(self.positions):
            self.positions = _grown(self.positions, n + 1, _PAST)
            self.tfs = _grown(self.tfs, n + 1)
        self.positions[n] = position
        self.tfs[n] = tf
        self.count = n + 1


def _owned(live: tuple, ids: np.ndarray, owns) -> tuple[np.ndarray, np.ndarray]:
    """A posting list's live ``(positions, tfs)``, cut to the documents
    ``owns`` keeps (all of them without it)."""
    if owns is None:
        return live
    positions, tfs = live
    mine = owns(ids[positions])
    return positions[mine], tfs[mine]


class InvertedIndex:
    """Document index: per-term postings as columns, tf-idf ranked.

    A document is given the next position when it is added: the id
    column holds its id there and the length column its token count.
    Each term's postings are two growable columns in ascending position
    (:class:`_Postings`).  A write appends to them; nothing is rebuilt
    or rewritten.  The id column is int64 while every id is a plain
    ``int`` that fits, and object dtype from the first one that is not.
    """

    def __init__(self) -> None:
        self._ids = np.empty(_INITIAL_ROWS, dtype=np.int64)
        self._lengths = np.empty(_INITIAL_ROWS)
        self._position: dict[object, int] = {}  # document -> position
        self._postings: dict[str, _Postings] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._position)

    def __contains__(self, doc_id: object) -> bool:
        with self._lock:
            return doc_id in self._position

    def add(self, doc_id: object, text: str) -> None:
        """Index a new document; an id already indexed is refused
        (:class:`IndexError_`): a document, once listed, stays as it is."""
        tokens = tokenize(text)
        with self._lock:
            if doc_id in self._position:
                raise IndexError_(f"document {doc_id!r} already indexed")
            position = len(self._position)
            if self._ids.dtype != object and not fits(doc_id):
                self._ids = self._ids.astype(object)
            self._ids = _grown(self._ids, position)
            self._lengths = _grown(self._lengths, position)
            self._ids[position], self._lengths[position] = doc_id, len(tokens)
            self._position[doc_id] = position
            for term, count in Counter(tokens).items():
                postings = self._postings.get(term)
                if postings is None:
                    postings = self._postings[term] = _Postings()
                postings.append(position, count)

    # -- queries ------------------------------------------------------------

    def scores(
        self, terms: list[str], match: str = "any", owns=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, scores)`` — two parallel columns, unranked — of the
        documents holding *any* of ``terms``, or only those holding them
        *all*, each scored tf-idf; given ``owns`` (an id column to a
        mask), only the documents it keeps, as if they were the index.

        The one scoring function: :func:`~repro.index.ordering.by_score`
        ranks its columns for ``search_any`` / ``search_all``, the
        platform's textual runner and every shard of a scatter.  A
        document's score is summed term by term in sorted-term order,
        ``tf / length * idf`` each time with the whole index's idf,
        whatever the match mode and whichever shard owns it, so it is
        the same float everywhere.

        ``any`` adds each term's postings into a score column over every
        position; ``all`` scores only the rarest term's positions, each
        other term's frequency there read by one bisection per term, and
        keeps those every term lists.  Given ``owns``, each term's
        postings are cut to the documents it keeps before any is scored,
        and the rarest term and the postings charged are those of the
        cut lists.  A scan that reads no posting, masked or not, books
        nothing: the counters do not depend on the shard count.
        """
        terms = sorted(set(terms))
        # One lock hold: document frequencies, postings and lengths must
        # come from one index state, not a half-applied add().
        with self._lock:
            documents = len(self._position)
            # (postings, its live (positions, tfs) cut to owns, idf
            # weight) of each term the index lists among those documents.
            weighted = []
            for term in terms:
                postings = self._postings.get(term)
                if postings is None:
                    continue
                live = _owned(postings.live(), self._ids, owns)
                if len(live[0]):
                    weight = math.log(1.0 + documents / postings.count)
                    weighted.append((postings, live, weight))
            if match == "all" and len(weighted) < len(terms):
                weighted = []  # a term nothing holds: no document has them all
            lengths = self._lengths
            if match == "all" and weighted:
                rarest, (rows, tfs), _ = min(weighted, key=lambda entry: len(entry[1][0]))
                length = lengths[rows]
                # Every position the rarest term lists is scored, then
                # kept if every other term lists it too.  Another term's
                # slot for a position is a bisection of its whole
                # position column (ascending past its last row, so never
                # off its end); where it does not list the position, the
                # tf read there is a neighbour's, or the zero past its
                # last row, and the row is dropped.
                held = out = None
                for postings, _, weight in weighted:
                    if postings is not rarest:
                        at = postings.positions.searchsorted(rows)
                        listed = postings.positions[at] == rows
                        held = listed if held is None else held & listed
                    tf = tfs if postings is rarest else postings.tfs[at]
                    share = tf / length * weight
                    out = share if out is None else out + share  # 0.0 + x is x
                if held is not None:
                    rows, out = rows[held], out[held]
                scanned = len(tfs) + (len(weighted) - 1) * len(rows)
            else:
                out = np.zeros(documents)
                held = np.zeros(documents, dtype=bool)
                for _, (positions, tfs), weight in weighted:
                    out[positions] += tfs / lengths[positions] * weight
                    held[positions] = True
                rows = np.flatnonzero(held)
                out = out[rows]
                scanned = sum(len(positions) for _, (positions, _), _ in weighted)
            ids = self._ids[rows]
        if scanned:
            _QUERIES.inc()
            _POSTINGS_SCANNED.inc(scanned)
            charge_probes("inverted", scanned)
        return ids, out

    def search_any(self, query: str) -> list[tuple[object, float]]:
        """Documents matching *any* query term, tf-idf ranked."""
        return list(zip(*by_score(*self.scores(tokenize(query)))))

    def search_all(self, query: str) -> list[tuple[object, float]]:
        """Documents matching *every* query term (conjunctive), ranked."""
        return list(zip(*by_score(*self.scores(tokenize(query), "all"))))

    def term_ids(self) -> dict[str, np.ndarray]:
        """Term -> the ids of the documents holding it, in position
        order: the vocabulary a partition reads per shard."""
        with self._lock:
            return {
                term: self._ids[postings.live()[0]] for term, postings in self._postings.items()
            }
