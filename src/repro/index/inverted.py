"""Inverted index with tf-idf ranking for textual queries.

Zobel & Moffat-style inverted files (paper ref. [27]) over the manual
keywords and descriptions attached to images.
"""

from __future__ import annotations

import math
import re
import threading
from collections import Counter

from repro.errors import IndexError_
from repro.index.ordering import tie_key
from repro.obs import metrics as _metrics
from repro.obs.accounting import charge_probes

# Probe counters: postings entries touched while scoring (search_all
# delegates its ranking to search_any, so counts land there once).
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


class InvertedIndex:
    """Document index mapping terms to posting lists with tf counts."""

    def __init__(self) -> None:
        self._postings: dict[str, dict[object, int]] = {}
        self._doc_lengths: dict[object, int] = {}
        # Reentrant: query methods hold it across scoring loops that
        # call locked helpers (_idf) internally.
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._doc_lengths)

    def __contains__(self, doc_id: object) -> bool:
        with self._lock:
            return doc_id in self._doc_lengths

    def add(self, doc_id: object, text: str) -> None:
        """Index a document; adding the same id again extends it."""
        tokens = tokenize(text)
        with self._lock:
            self._doc_lengths[doc_id] = self._doc_lengths.get(doc_id, 0) + len(tokens)
            for term, count in Counter(tokens).items():
                bucket = self._postings.setdefault(term, {})
                bucket[doc_id] = bucket.get(doc_id, 0) + count

    def remove(self, doc_id: object) -> None:
        """Drop a document from every posting list."""
        with self._lock:
            if doc_id not in self._doc_lengths:
                raise IndexError_(f"document {doc_id!r} not indexed")
            del self._doc_lengths[doc_id]
            empty_terms = []
            for term, bucket in self._postings.items():
                bucket.pop(doc_id, None)
                if not bucket:
                    empty_terms.append(term)
            for term in empty_terms:
                del self._postings[term]

    def _idf(self, term: str) -> float:
        with self._lock:
            df = len(self._postings.get(term, ()))
            if df == 0:
                return 0.0
            return math.log(1.0 + len(self._doc_lengths) / df)

    # -- queries ------------------------------------------------------------

    def search_any(self, query: str) -> list[tuple[object, float]]:
        """Documents matching *any* query term, tf-idf ranked."""
        scores: dict[object, float] = {}
        scanned = 0
        # Score under the lock: idf and posting traversal must observe
        # one consistent index state per query, not a half-applied add().
        with self._lock:
            for term in sorted(set(tokenize(query))):
                idf = self._idf(term)
                postings = self._postings.get(term, {})
                scanned += len(postings)
                for doc_id, tf in postings.items():
                    length = max(self._doc_lengths[doc_id], 1)
                    scores[doc_id] = scores.get(doc_id, 0.0) + (tf / length) * idf
        _QUERIES.inc()
        _POSTINGS_SCANNED.inc(scanned)
        charge_probes("inverted", scanned)
        return sorted(scores.items(), key=lambda pair: (-pair[1], str(pair[0])))

    def search_all(self, query: str) -> list[tuple[object, float]]:
        """Documents matching *every* query term (conjunctive), ranked."""
        terms = set(tokenize(query))
        if not terms:
            return []
        with self._lock:
            candidate_sets = [set(self._postings.get(term, {})) for term in terms]
        common = set.intersection(*candidate_sets) if candidate_sets else set()
        ranked = [
            (doc_id, score)
            for doc_id, score in self.search_any(query)
            if doc_id in common
        ]
        return ranked

    def vocabulary(self) -> list[str]:
        """Sorted indexed terms."""
        with self._lock:
            return sorted(self._postings)

    # -- scatter-gather exports ---------------------------------------------

    def doc_count(self) -> int:
        """Documents indexed — the ``N`` of the idf formula."""
        with self._lock:
            return len(self._doc_lengths)

    def term_dfs(self) -> dict[str, int]:
        """Term -> document frequency for every indexed term.

        Shard statistics for the scale-out planner: pruning a shard must
        not change ranking, so the coordinator computes *global* idf
        from the per-shard dfs of **all** shards — including ones the
        match itself prunes.
        """
        with self._lock:
            return {term: len(bucket) for term, bucket in self._postings.items()}

    def postings_for(
        self, terms: list[str]
    ) -> dict[str, list[tuple[object, int, int]]]:
        """Raw postings for ``terms``: term -> ``(doc, tf, doc_length)``
        triples, docs in canonical id order, absent terms omitted.

        The scatter-gather coordinator rescores these with global
        document frequencies, accumulating per-document contributions in
        sorted-term order — the same float-addition sequence
        :meth:`search_any` performs, so sharded tf-idf scores are
        bit-identical to serial ones.
        """
        out: dict[str, list[tuple[object, int, int]]] = {}
        scanned = 0
        with self._lock:
            for term in terms:
                postings = self._postings.get(term)
                if not postings:
                    continue
                scanned += len(postings)
                out[term] = sorted(
                    (
                        (doc, tf, max(self._doc_lengths[doc], 1))
                        for doc, tf in postings.items()
                    ),
                    key=lambda triple: tie_key(triple[0]),
                )
        _QUERIES.inc()
        _POSTINGS_SCANNED.inc(scanned)
        charge_probes("inverted", scanned)
        return out
