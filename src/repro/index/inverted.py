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
from repro.index.ordering import by_score
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


class InvertedIndex:
    """Document index mapping terms to posting lists with tf counts."""

    def __init__(self) -> None:
        self._postings: dict[str, dict[object, int]] = {}
        self._doc_lengths: dict[object, int] = {}
        self._lock = threading.Lock()

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

    # -- queries ------------------------------------------------------------

    def scores(
        self, terms: list[str], match: str = "any", idf: dict | None = None
    ) -> dict[object, float]:
        """Document -> tf-idf score over ``terms``: every document
        holding *any* of them, or only those holding them *all*.

        The one scoring function: ``search_any`` / ``search_all`` rank
        its result, and so do the platform's textual runner and — with
        the coordinator's global ``idf`` (term -> weight) in place of
        this index's own — every shard of a scatter.  A document's score
        is summed in sorted-term order whatever the match mode and
        whichever slice holds it, so it is the same float everywhere.

        ``all`` walks the rarest term's postings and scores only the
        documents every other term also lists.
        """
        terms = sorted(set(terms))
        out: dict[object, float] = {}
        scanned = 0
        # One lock hold: document frequencies, postings and lengths must
        # come from one index state, not a half-applied add().
        with self._lock:
            lengths = self._doc_lengths
            # (postings, idf weight) of each term the index lists.
            weighted = [
                (
                    self._postings[term],
                    math.log(1.0 + len(lengths) / len(self._postings[term]))
                    if idf is None
                    else idf[term],
                )
                for term in terms
                if term in self._postings
            ]
            if match == "all" and len(weighted) < len(terms):
                weighted = []  # a term nothing holds: no document has them all
            if match == "all" and weighted:
                rarest = min((postings for postings, _ in weighted), key=len)
                others = [p for p, _ in weighted if p is not rarest]
                for doc in rarest:
                    if all(doc in postings for postings in others):
                        length = lengths[doc] or 1
                        score = 0.0
                        for postings, weight in weighted:
                            score += (postings[doc] / length) * weight
                        out[doc] = score
                scanned = len(rarest) + len(others) * len(out)
            else:
                so_far = out.get
                for postings, weight in weighted:
                    scanned += len(postings)
                    for doc, tf in postings.items():
                        share = tf / (lengths[doc] or 1)
                        out[doc] = so_far(doc, 0.0) + share * weight
        _QUERIES.inc()
        _POSTINGS_SCANNED.inc(scanned)
        charge_probes("inverted", scanned)
        return out

    def search_any(self, query: str) -> list[tuple[object, float]]:
        """Documents matching *any* query term, tf-idf ranked."""
        return list(zip(*by_score(self.scores(tokenize(query)))))

    def search_all(self, query: str) -> list[tuple[object, float]]:
        """Documents matching *every* query term (conjunctive), ranked."""
        return list(zip(*by_score(self.scores(tokenize(query), "all"))))

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
