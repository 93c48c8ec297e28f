"""Property tests: text and time answers off columns.

The inverted index holds its postings as per-term columns (document
position, term frequency) and scores a query with a handful of array
operations per term; the dict-of-dicts scorer it replaced is kept here
as the oracle.  Scores and order must be its own bit for bit — the same
floats in the same ranked order — under refused re-adds of an indexed
id, both match modes, unknown terms, stopword-only text and ids that are not
ints; and one index scored as four row sets, their columns joined and
ranked once, must give the serial answer, each row set charging the
postings a separate index over its documents would.

The time order is two arrays (values, primary keys) plus a short tail of
recent inserts; every window must equal a linear scan of the rows,
whatever ``None``, NaN, ties and open ends came before, and however
often the tail was merged in.

Both families must then answer alike on a platform, serial and sharded,
with uploads interleaved with the queries.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import TemporalQuery, TextualQuery, TVDP
from repro.db import Column, ColumnType, Table, TableSchema
from repro.db import table as table_module
from repro.errors import IndexError_
from repro.geo import FieldOfView, GeoPoint
from repro.imaging import Image
from repro.index import InvertedIndex, tie_key, tokenize
from repro.index.ordering import by_score
from repro.obs import accounting
from tests.shard.test_equivalence import LATS, LNGS

# -- textual: the column scorer against the dict scorer -------------------------------


class DictScorer:
    """``InvertedIndex`` as it was before its postings became columns:
    a dict of documents per term, scored into a dict per query."""

    def __init__(self) -> None:
        self._postings: dict[str, dict[object, int]] = {}
        self._doc_lengths: dict[object, int] = {}

    def add(self, doc_id: object, text: str) -> None:
        tokens = tokenize(text)
        self._doc_lengths[doc_id] = self._doc_lengths.get(doc_id, 0) + len(tokens)
        for term, count in Counter(tokens).items():
            bucket = self._postings.setdefault(term, {})
            bucket[doc_id] = bucket.get(doc_id, 0) + count

    def scores(
        self, terms: list[str], match: str = "any", idf: dict | None = None
    ) -> dict[object, float]:
        terms = sorted(set(terms))
        out: dict[object, float] = {}
        lengths = self._doc_lengths
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
            weighted = []
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
        else:
            for postings, weight in weighted:
                for doc, tf in postings.items():
                    share = tf / (lengths[doc] or 1)
                    out[doc] = out.get(doc, 0.0) + share * weight
        return out


def dict_ranked(scores: dict) -> tuple[list, list[float]]:
    """The replaced ``by_score``: ties in ``tie_key`` order, then a
    stable sort by score, best first."""
    items = sorted(scores, key=tie_key)
    items.sort(key=scores.__getitem__, reverse=True)
    return items, [scores[item] for item in items]


WORDS = ["tent", "trash", "lamp", "tree", "cart"]
STOP = ["the", "a", "of"]
doc_ids = st.sampled_from([2, 9, 10, 11, 100, 7_000_000_000, 2**70, "cam-7", "b"])
# Up to 10 words from a few: repeats give tf / length ratios (3/5, 2/7,
# ...) whose float depends on the order of the operations.
texts = st.lists(st.sampled_from(WORDS + STOP), max_size=10).map(" ".join)
term_lists = st.lists(st.sampled_from(WORDS + STOP + ["unknown"]), max_size=4)
text_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), doc_ids, texts),
        st.tuples(st.just("query"), term_lists, st.sampled_from(["any", "all"])),
    ),
    min_size=1,
    max_size=40,
)


def ranked(columns: tuple) -> str:
    """A ranking as the exact text of its ids and floats."""
    return repr(by_score(*columns))


@settings(max_examples=200, deadline=None)
@given(text_ops)
# tf / length = 3 / 5 is 0.6, where 3 * (1 / 5) is 0.6000000000000001.
@example([("add", 1, "tent tent tent trash trash"), ("add", 2, "tent")]
         + [("query", ["tent", "trash"], match) for match in ("any", "all")])
def test_column_scorer_is_the_dict_scorer_bit_for_bit(operations):
    index, oracle = InvertedIndex(), DictScorer()
    for op in operations:
        if op[0] == "add" and op[1] in index:
            with pytest.raises(IndexError_):  # a document, once listed, stays
                index.add(op[1], op[2])
            continue
        if op[0] == "add":
            index.add(op[1], op[2])
            oracle.add(op[1], op[2])
            continue
        _, terms, match = op
        want = repr(dict_ranked(oracle.scores(terms, match)))
        assert ranked(index.scores(terms, match)) == want, (terms, match)
        query = " ".join(terms)
        search = index.search_all(query) if match == "all" else index.search_any(query)
        assert repr(search) == repr(list(zip(*dict_ranked(oracle.scores(tokenize(query), match)))))
    assert len(index) == len(oracle._doc_lengths)
    assert index.term_dfs() == {t: len(p) for t, p in oracle._postings.items()}


def shard_of(doc_id: object) -> int:
    return sum(map(ord, str(doc_id))) % 4


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(doc_ids, texts), min_size=1, max_size=30),
    st.lists(st.tuples(term_lists, st.sampled_from(["any", "all"])), min_size=1, max_size=6),
)
def test_four_row_sets_of_one_index_rank_like_it(docs, queries):
    serial, oracle = InvertedIndex(), DictScorer()
    shards = [InvertedIndex() for _ in range(4)]
    for doc_id, text in dict(docs).items():
        serial.add(doc_id, text)
        oracle.add(doc_id, text)
        shards[shard_of(doc_id)].add(doc_id, text)
    owners = [
        lambda ids, n=n: np.array([shard_of(doc_id) == n for doc_id in ids], dtype=bool)
        for n in range(4)
    ]
    for n, owns in enumerate(owners):
        assert serial.term_dfs(owns) == shards[n].term_dfs()
    for terms, match in queries:
        payloads = []
        for shard, owns in zip(shards, owners):
            with accounting.ledger_scope() as restricted:
                payloads.append(serial.scores(terms, match, owns))
            with accounting.ledger_scope() as alone:
                shard.scores(terms, match)
            assert restricted.charges == alone.charges, (terms, match)
        joined = (
            np.concatenate([ids for ids, _ in payloads]),
            np.concatenate([scores for _, scores in payloads]),
        )
        want = repr(dict_ranked(oracle.scores(terms, match)))
        assert ranked(serial.scores(terms, match)) == want
        assert ranked(joined) == want


def test_stopword_only_text_is_a_document_without_terms():
    index = InvertedIndex()
    index.add(1, "the of a")
    index.add(2, "tent")
    assert len(index) == 2 and index.term_dfs() == {"tent": 1}
    assert index.search_any("tent") == [(2, math.log(1 + 2 / 1))]
    assert index.search_any("the") == [] and index.search_all("") == []


# -- temporal: the time order against a scan ------------------------------------------


ties = st.sampled_from([1.0, 2.0, 3.0])
stamps = st.one_of(  # mostly ties: runs of equal values ordered by pk
    ties, ties, ties, st.none(), st.just(math.nan), st.floats(-10.0, 10.0, allow_nan=False)
)
bounds = st.one_of(
    st.none(), st.sampled_from([1.0, 2.0, 3.0, -math.inf, math.inf]), st.floats(-10.0, 10.0)
)
inserts = st.tuples(st.just("insert"), stamps)
time_ops = st.lists(
    st.one_of(
        inserts,
        inserts,
        st.tuples(st.just("query"), bounds, bounds),
    ),
    min_size=10,
    max_size=150,
)


@pytest.mark.parametrize("tail_rows", [1, 3, table_module._TAIL_ROWS])
def test_a_window_is_a_scan_of_the_rows(tail_rows):
    @settings(max_examples=100, deadline=None)
    @given(time_ops)
    def run(operations):
        table = Table(
            TableSchema(
                "shots",
                (
                    Column("id", ColumnType.INTEGER, primary_key=True),
                    Column("at", ColumnType.REAL, nullable=True),
                ),
            )
        )
        table.create_ordered_index("at")
        for op in operations:
            if op[0] == "insert":
                table.insert({"at": op[1]})
            else:
                _, low, high = op
                lo = -math.inf if low is None else low
                hi = math.inf if high is None else high
                hits = sorted(
                    (row["at"], row["id"])
                    for row in table.scan()
                    if row["at"] is not None and lo <= row["at"] <= hi
                )
                keys = table.sorted_keys_in_range("at", low, high)
                assert keys.dtype == np.int64
                assert keys.tolist() == sorted(pk for _, pk in hits)

    saved = table_module._TAIL_ROWS
    table_module._TAIL_ROWS = tail_rows
    try:
        run()
    finally:
        table_module._TAIL_ROWS = saved


# -- both families: serial == sharded under uploads -----------------------------------


VOCAB = ["pothole", "graffiti", "lamp", "tree"]
uploads = st.tuples(
    st.sampled_from(LATS),
    st.sampled_from(LNGS),
    st.integers(0, 12),  # capture times: ties across images
    st.lists(st.sampled_from(VOCAB + STOP), max_size=3),  # repeats raise tf
)
platform_ops = st.lists(
    st.one_of(
        st.tuples(st.just("upload"), uploads),
        st.tuples(
            st.just("text"),
            st.lists(st.sampled_from(VOCAB + ["unknown"]), min_size=1, max_size=3),
            st.sampled_from(["any", "all"]),
        ),
        st.tuples(
            st.just("time"),
            st.one_of(st.none(), st.integers(0, 12)),
            st.one_of(st.none(), st.integers(0, 12)),
            st.sampled_from(["timestamp_capturing", "timestamp_uploading"]),
        ),
    ),
    min_size=1,
    max_size=25,
)


def upload(platform: TVDP, n: int, spec: tuple) -> None:
    lat, lng, t, keywords = spec
    pixels = np.zeros((2, 2, 3))
    pixels[0, 0] = (n % 16 / 16, n // 16 / 16, 0.5)  # distinct content per upload
    platform.upload_image(
        image=Image(pixels),
        fov=FieldOfView(GeoPoint(lat, lng), 0.0, 60.0, 500.0),
        captured_at=float(t),
        uploaded_at=float(t) + 1.0,
        keywords=tuple(keywords),
    )


@settings(max_examples=40, deadline=None)
@given(st.lists(uploads, min_size=1, max_size=8), platform_ops)
def test_text_and_time_answer_alike_serial_and_sharded(first, operations):
    platform = TVDP(shard_grid=(3, 3))
    try:
        for n, spec in enumerate(first):
            upload(platform, n, spec)
        platform.set_shards(4)
        for n, op in enumerate(operations, start=len(first)):
            if op[0] == "upload":
                upload(platform, n, op[1])
                continue
            if op[0] == "text":
                query = TextualQuery(text=" ".join(op[1]), match=op[2])
            else:
                _, low, high, field = op
                if low is None and high is None:
                    low = 0  # a window needs an end
                elif low is not None and high is not None:
                    low, high = sorted((low, high))
                query = TemporalQuery(
                    start=None if low is None else float(low),
                    end=None if high is None else float(high),
                    field=field,
                )
            sharded, serial = platform.execute(query), platform.execute_serial(query)
            assert sharded == serial, query
            assert repr([r.score for r in sharded]) == repr([r.score for r in serial])
    finally:
        platform.close()
