"""Property tests: visual answers off columns.

The vector store ranks, cuts and merges a top-k as two columns — the
items and their distances — where it used to build an ``(item,
distance)`` pair per candidate.  The pair path it replaced is kept here
as the oracle: the exact distance to every row, sorted on ``(distance,
tie_key)`` and cut (:func:`pair_nearest`), the shard merge that sorted
the joined pairs again (:func:`pair_merge`, which the one ranking over
the answering shards' rows replaced) and the per-pair score
(:func:`pair_answer`).  Ids are compared with ``==`` and floats by
``repr``, so the columns must give the same objects in the same order
and every float bit for bit:

* the column routine (``LSHIndex.nearest_columns``, with and without its
  prefilter) on int64 and object id columns — a big, str or bool id
  arriving mid-stream turns the column to object there — for k of 1,
  n - 1, n and n + 1, with and without a row subset, cut at a radius,
  and on an empty index;
* the one ranking a sharded pass makes over the rows of the shards
  that answered (one index, their owner mask), cut by
  ``families._nearest``, against the pair merge of those shards' own
  top-ks — of 1, 2 and 4 shards, one of them empty perhaps;
* the canonical order itself, which no permutation of the input moves
  — ids past 2**53 included, where a float key would tie neighbours;
* the distance formula, against ``np.linalg.norm(axis=1)`` across the
  magnitudes the ranking test uses.
"""

from __future__ import annotations

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.families import _nearest
from repro.core.queries import Answer
from repro.index import LSHIndex, tie_key
from repro.index import lsh as lsh_module
from repro.index.ordering import by_distance, by_score, id_column
from tests.property.test_access_paths import SCALES

# -- the pair path, as it was ----------------------------------------------------------


def pair_nearest(items: list, distances: np.ndarray, k: int | None) -> list:
    """``ordering.nearest`` before the columns: int ids lexsorted as an
    array and zipped into pairs, anything else sorted as pairs."""
    if set(map(type, items)) <= {int}:
        ids = np.asarray(items)
        if ids.dtype.kind == "i":
            order = np.lexsort((ids, distances))[:k]
            return list(zip(ids[order].tolist(), distances[order].tolist()))
    pairs = sorted(zip(items, distances.tolist()), key=lambda pair: (pair[1], tie_key(pair[0])))
    return pairs[:k]


def pair_answer(pairs: list) -> Answer:
    """``Answer.nearest_first`` before the columns."""
    return Answer([item for item, _ in pairs], [1.0 / (1.0 + d) for _, d in pairs])


def pair_merge(payloads: list, k: int, radius: float | None) -> Answer:
    """``families._nearest`` before the columns."""
    if len(payloads) == 1:
        pairs = payloads[0]
    else:
        pairs = [pair for payload in payloads for pair in payload]
        pairs.sort(key=lambda pair: (pair[1], tie_key(pair[0])))
        del pairs[k:]
    if radius is not None:
        pairs = [(item, d) for item, d in pairs if d <= radius]
    return pair_answer(pairs)


def same_pairs(ids: np.ndarray, distances: np.ndarray, want: list) -> None:
    assert ids.tolist() == [item for item, _ in want]
    assert repr(distances.tolist()) == repr([d for _, d in want])


def same_answer(got: Answer, want: Answer) -> None:
    assert got.ids == want.ids
    assert repr(got.scores) == repr(want.scores)


# -- draws ----------------------------------------------------------------------------

tie_prone = st.tuples(*[st.sampled_from([0.0, 0.5, 1.0])] * 3)
vectors3 = st.one_of(
    tie_prone,
    st.builds(lambda v, scale: tuple(c * scale for c in v), tie_prone, st.sampled_from(SCALES)),
)
#: Ids that do not fit an int64 column, by kind: one of them arriving
#: after ``at`` plain ints turns the column to object dtype there.
ODD_IDS = {
    "big": lambda i: 2**70 + i,
    "str": lambda i: f"img{i}",
    "bool": lambda i: True,
}


@st.composite
def streams(draw, max_size: int = 30):
    """Vectors, their distinct ids (plain ints, one odd id mid-stream
    perhaps), a probe, ``k`` and the radius a query cuts at."""
    vectors = draw(st.lists(vectors3, min_size=1, max_size=max_size))
    n = len(vectors)
    ids = list(range(100, 100 + n))
    draw(st.randoms(use_true_random=False)).shuffle(ids)  # ids must not follow row order
    odd = draw(st.sampled_from([None, *ODD_IDS]))
    if odd is not None:
        at = draw(st.integers(0, n - 1))
        ids[at] = ODD_IDS[odd](at)
    probe = draw(st.one_of(vectors3, st.sampled_from(vectors)))
    k = draw(st.sampled_from([1, max(1, n - 1), n, n + 1]))
    radius = draw(st.sampled_from([None, 0.0, 0.5, 1.5, 1e150]))
    return vectors, ids, probe, k, radius


# -- the column routine ---------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(streams(), st.sampled_from([0, 512]), st.randoms(use_true_random=False))
def test_the_column_routine_ranks_like_the_pair_path(case, exact_rows, picker):
    """Both sides of ``_EXACT_ROWS``: 0 sends every ranking through the
    prefilter and band, 512 ranks these few rows exactly."""
    vectors, ids, probe, k, radius = case
    matrix = np.asarray(vectors, dtype=np.float64)
    probe = np.asarray(probe, dtype=np.float64)
    distances = np.linalg.norm(matrix - probe, axis=1)
    index = LSHIndex(dimension=3, bucket_width=1e300)  # one bucket per table
    with mock.patch.object(lsh_module, "_EXACT_ROWS", exact_rows):
        same_pairs(*index.nearest_columns(probe, k), [])  # an empty index
        for row, (item, vector) in enumerate(zip(ids, matrix)):
            index.insert(item, vector)
            fitted = all(type(i) is int and -(2**63) <= i < 2**63 for i in ids[: row + 1])
            assert index._ids.dtype == (np.int64 if fitted else object)
        for kk in (k, None):
            same_pairs(*index.nearest_columns(probe, kk), pair_nearest(ids, distances, kk))
        rows = np.array(picker.sample(range(len(ids)), picker.randint(0, len(ids))), dtype=np.intp)
        same_pairs(
            *index.nearest_columns(probe, k, rows),
            pair_nearest([ids[row] for row in rows], distances[rows], k),
        )
        columns, count = index.topk_in_buckets(index.bucket_keys(probe), probe, k)
        same_pairs(*columns, pair_nearest(ids, distances, k))
        assert count == len(ids)
        if radius is not None:
            want = [pair for pair in pair_nearest(ids, distances, None) if pair[1] <= radius]
            assert repr(index.query_radius(probe, radius)) == repr(want)


# -- the column merge -----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    streams(max_size=40),
    st.sampled_from([1, 2, 4]),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_the_column_merge_merges_like_the_pair_merge(case, n_payloads, one_empty, picker):
    """The pair merge: each answering shard's top-k, made by its own
    index, joined, ordered once and cut at k and at the radius.  The
    columns merge nothing: one index holds every shard's rows, and one
    ranking over the rows the answering shards own is cut at the radius
    — the same answer, since the top-k of a union is the top-k of its
    parts' top-ks."""
    vectors, ids, probe, k, radius = case
    matrix = np.asarray(vectors, dtype=np.float64)
    probe = np.asarray(probe, dtype=np.float64)
    owner = [picker.randrange(n_payloads) for _ in ids]
    if one_empty:
        owner = [0 if shard == n_payloads - 1 and n_payloads > 1 else shard for shard in owner]
    answering = set(picker.sample(range(n_payloads), picker.randint(1, n_payloads)))
    index = LSHIndex(dimension=3)
    for row, item in enumerate(ids):
        index.insert(item, matrix[row])
    pairs = []
    for shard in sorted(answering):
        rows = [row for row, at in enumerate(owner) if at == shard]
        shard_ids = [ids[row] for row in rows]
        pairs.append(pair_nearest(shard_ids, np.linalg.norm(matrix[rows] - probe, axis=1), k))
    shard_of = dict(zip(ids, owner))

    def owns(column: np.ndarray) -> np.ndarray:
        return np.array([shard_of[item] in answering for item in column.tolist()], dtype=bool)

    same_answer(_nearest(index.scan_topk(probe, k, owns), radius), pair_merge(pairs, k, radius))


def test_a_merge_of_nothing_is_empty():
    """A pass over no row — no shard answered, or the answering shards
    own none of the ranked rows — answers empty."""
    index = LSHIndex(dimension=3)
    index.insert(1, np.zeros(3))

    def nobody(ids: np.ndarray) -> np.ndarray:
        return np.zeros(len(ids), dtype=bool)

    everyone = np.arange(len(index))
    for payload in (
        index.nearest_columns(np.zeros(3), 3, everyone, nobody),
        index.scan_topk(np.zeros(3), 3, nobody),
    ):
        for radius in (None, 1.0):
            same_answer(_nearest(payload, radius), Answer([], []))


# -- the canonical order --------------------------------------------------------------

#: Neighbours a float key would tie: past 2**53 every other int has no
#: float of its own, past 2**70 none does.
edge_ids = st.one_of(
    st.integers(2**53 - 4, 2**53 + 4),
    st.integers(2**70 - 4, 2**70 + 4),
    st.integers(-(2**70) - 4, -(2**70) + 4),
    st.integers(-50, 50),
    st.floats(-100.0, 100.0, allow_nan=False),
    st.sampled_from([2.0**53, 2.0**53 + 2, 2.0**70]),
    st.text("abc", max_size=3),
    st.booleans(),
)


def distinct(items: list) -> list:
    """Items no two of which are equal or share a ``tie_key`` — the ids
    of one index (``True == 1``; ``2.0**53 == 2**53``)."""
    seen: dict = {}
    keys: set = set()
    for item in items:
        if item not in seen and tie_key(item) not in keys:
            seen[item] = None
            keys.add(tie_key(item))
    return list(seen)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(edge_ids, min_size=1, max_size=25).map(distinct),
    st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=25, max_size=25),
    st.randoms(use_true_random=False),
)
def test_permuting_the_input_never_changes_the_order(items, values, shuffler):
    values = values[: len(items)]
    order = list(range(len(items)))
    shuffler.shuffle(order)
    permuted = [items[i] for i in order]
    permuted_values = [values[i] for i in order]

    def ranked(ids: list, scores: list) -> tuple:
        column, floats = id_column(ids), np.asarray(scores)
        near_ids, near = by_distance(column, floats, None)
        return near_ids.tolist(), near.tolist(), by_score(column, floats)

    assert repr(ranked(permuted, permuted_values)) == repr(ranked(items, values))
    # The index's ranking, its rows written in either order.
    answers = []
    for ids, scores in ((items, values), (permuted, permuted_values)):
        index = LSHIndex(dimension=1)
        for item, score in zip(ids, scores):
            index.insert(item, np.array([score]))
        answers.append(repr(index.linear_topk(np.zeros(1), len(ids))))
    assert answers[0] == answers[1]


def test_ints_past_2_53_order_by_their_value():
    """A float key ties 2**70 and 2**70 + 1; the number itself does not."""
    items = [2**70 + 1, 2**70, "a", 2**53 + 1, 2**53]
    want = [2**53, 2**53 + 1, 2**70, 2**70 + 1, "a"]
    assert by_distance(id_column(items), np.zeros(5))[0].tolist() == want
    assert by_score(id_column(items), np.zeros(5))[0] == want
    index = LSHIndex(dimension=1)
    for item in items:
        index.insert(item, np.zeros(1))
    assert [item for item, _ in index.linear_topk(np.zeros(1), 5)] == want


# -- the distance formula -------------------------------------------------------------


@pytest.mark.parametrize("scale", SCALES)
def test_the_distance_formula_is_norm_float_for_float(scale):
    """``sqrt(add.reduce(diff * diff, axis=1))`` is what
    ``np.linalg.norm(diff, axis=1)`` computes for float64."""
    rng = random.Random(scale)
    for rows in (0, 1, 2, 7, 64, 1000):
        dimension = rng.choice([1, 3, 8, 50, 61])
        generator = np.random.default_rng(rows * 100 + dimension)
        diff = generator.normal(0.0, 1.0, (rows, dimension)) * scale
        got = np.sqrt(np.add.reduce(diff * diff, axis=1))
        assert repr(got.tolist()) == repr(np.linalg.norm(diff, axis=1).tolist())
