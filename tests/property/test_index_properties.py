"""Property-based tests: index structures vs brute-force oracles."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import BoundingBox
from repro.index import InvertedIndex, LSHIndex, RTree, tokenize

# -- strategies -------------------------------------------------------------

lat = st.floats(min_value=33.0, max_value=35.0, allow_nan=False)
lng = st.floats(min_value=-119.0, max_value=-117.0, allow_nan=False)


@st.composite
def boxes(draw):
    lat0 = draw(lat)
    lng0 = draw(lng)
    dlat = draw(st.floats(min_value=0.0, max_value=0.5))
    dlng = draw(st.floats(min_value=0.0, max_value=0.5))
    return BoundingBox(lat0, lng0, min(lat0 + dlat, 35.0), min(lng0 + dlng, -117.0))


entries = st.lists(boxes(), min_size=0, max_size=40)


class TestRTreeProperties:
    @settings(max_examples=50, deadline=None)
    @given(entries, boxes())
    def test_range_equals_brute_force(self, boxes_list, query):
        tree = RTree(max_entries=4)
        for i, box in enumerate(boxes_list):
            tree.insert(i, box)
        expected = {i for i, box in enumerate(boxes_list) if box.intersects(query)}
        assert set(tree.search_range(query)) == expected


class TestLSHProperties:
    vectors = st.lists(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=4),
        min_size=1,
        max_size=30,
    )

    @settings(max_examples=40, deadline=None)
    @given(vectors, st.integers(0, 1000))
    def test_fallback_matches_linear_for_large_k(self, rows, seed):
        index = LSHIndex(dimension=4, seed=seed)
        for i, row in enumerate(rows):
            index.insert(i, np.array(row))
        query = np.array(rows[0])
        k = len(rows) + 5  # forces the exhaustive fallback
        approx = index.query_topk(query, k)
        exact = index.linear_topk(query, k)
        assert {i for i, _ in approx} == {i for i, _ in exact}

    @settings(max_examples=40, deadline=None)
    @given(vectors, st.floats(min_value=0.0, max_value=10.0))
    def test_radius_results_within_radius(self, rows, radius):
        index = LSHIndex(dimension=4, seed=0)
        for i, row in enumerate(rows):
            index.insert(i, np.array(row))
        results = index.query_radius(np.array(rows[0]), radius)
        for item, distance in results:
            assert distance <= radius + 1e-12
            true = float(np.linalg.norm(np.array(rows[item]) - np.array(rows[0])))
            assert abs(true - distance) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(vectors)
    def test_self_is_nearest(self, rows):
        index = LSHIndex(dimension=4, seed=0)
        for i, row in enumerate(rows):
            index.insert(i, np.array(row))
        results = index.query_topk(np.array(rows[0]), k=1)
        assert results[0][1] == 0.0


words = st.lists(
    st.text(alphabet="abcdefg", min_size=2, max_size=6), min_size=0, max_size=8
)


class TestInvertedIndexProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(words, min_size=1, max_size=10), words)
    def test_all_subset_of_any(self, documents, query_words):
        index = InvertedIndex()
        for doc_id, doc_words in enumerate(documents):
            index.add(doc_id, " ".join(doc_words))
        query = " ".join(query_words)
        any_hits = {doc for doc, _ in index.search_any(query)}
        all_hits = {doc for doc, _ in index.search_all(query)}
        assert all_hits <= any_hits

    @settings(max_examples=50, deadline=None)
    @given(st.lists(words, min_size=1, max_size=10))
    def test_every_document_findable_by_own_terms(self, documents):
        index = InvertedIndex()
        for doc_id, doc_words in enumerate(documents):
            index.add(doc_id, " ".join(doc_words))
        for doc_id, doc_words in enumerate(documents):
            terms = tokenize(" ".join(doc_words))
            if terms:
                hits = {doc for doc, _ in index.search_all(" ".join(terms))}
                assert doc_id in hits
