"""Tests for LSH and the inverted index."""

import itertools

import numpy as np
import pytest

from repro.errors import IndexError_
from repro.index import InvertedIndex, LSHIndex, tokenize
from tests.racing import read_while_writing


class TestLSH:
    def make_index(self, n=200, dim=16, seed=0):
        rng = np.random.default_rng(seed)
        index = LSHIndex(dimension=dim, seed=seed)
        vectors = rng.normal(0, 1, (n, dim))
        for i in range(n):
            index.insert(i, vectors[i])
        return index, vectors

    def test_insert_and_len(self):
        index, _ = self.make_index(50)
        assert len(index) == 50

    def test_duplicate_item_raises(self):
        index = LSHIndex(dimension=4)
        index.insert("a", np.zeros(4))
        with pytest.raises(IndexError_):
            index.insert("a", np.ones(4))

    def test_dimension_mismatch_raises(self):
        index = LSHIndex(dimension=4)
        with pytest.raises(IndexError_):
            index.insert("a", np.zeros(5))
        index.insert("a", np.zeros(4))
        with pytest.raises(IndexError_):
            index.query_topk(np.zeros(3), k=1)

    def test_a_vector_whose_squared_norm_overflows_is_refused(self):
        """Its norm-column entry would be ``inf`` and poison the
        prefilter of every later query; nothing of it is indexed."""
        index, vectors = self.make_index(n=20, dim=4)
        before = index.linear_topk(vectors[3], k=5)
        for bad in (np.full(4, 1e200), np.array([np.nan, 0, 0, 0]), np.array([np.inf, 0, 0, 0])):
            with pytest.raises(IndexError_):
                index.insert("bad", bad)
        assert len(index) == 20
        assert index.linear_topk(vectors[3], k=5) == before

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bucket_ids_past_int64_saturate_by_sign(self):
        """A finite vector can project past +-2**63 buckets.  Its bucket
        ids saturate in float, keeping the sign, instead of taking an
        invalid int64 cast (INT64_MIN everywhere on x86): two such
        vectors pointing apart share no bucket, and a query near one
        finds only that one."""
        index = LSHIndex(dimension=4)
        far = np.array([1e150, 0.0, 0.0, 0.0])
        apart = np.array([-3e140, 5e139, 0.0, 1e141])
        projections = index._projections @ far + index._offsets
        top, bottom = float(2**63 - 1024), float(-(2**63))
        assert index.bucket_keys(far) == [
            tuple(int(top) if p > 0 else int(bottom) for p in row) for row in projections
        ]
        assert all(a != b for a, b in zip(index.bucket_keys(far), index.bucket_keys(apart)))
        index.insert("far", far)
        index.insert("apart", apart)
        probe = np.array([7e100, 1.0, 1.0, 1.0])
        (ids, distances), candidates = index.topk_in_buckets(index.bucket_keys(probe), probe, 1)
        assert (ids.tolist(), distances.tolist(), candidates) == (["far"], [1e150], 1)

    def test_bucket_ids_that_fit_are_the_plain_cast(self):
        index, vectors = self.make_index(n=50)
        for vector in vectors:
            buckets = np.floor(
                (index._projections @ vector + index._offsets) / index.bucket_width
            ).astype(np.int64)
            assert index.bucket_keys(vector) == [tuple(row) for row in buckets.tolist()]

    def test_exact_match_found_first(self):
        index, vectors = self.make_index()
        results = index.query_topk(vectors[17], k=5)
        assert results[0][0] == 17
        assert results[0][1] == pytest.approx(0.0)

    def test_topk_recall_against_linear(self):
        index, vectors = self.make_index(n=300, seed=1)
        query = vectors[42] + np.random.default_rng(9).normal(0, 0.05, 16)
        approx = {item for item, _ in index.query_topk(query, k=10)}
        exact = {item for item, _ in index.linear_topk(query, k=10)}
        # With the exhaustive fallback and 8 tables recall is high.
        assert len(approx & exact) >= 6

    def test_distances_ascending(self):
        index, vectors = self.make_index()
        results = index.query_topk(vectors[0], k=20)
        distances = [d for _, d in results]
        assert distances == sorted(distances)

    def test_radius_query(self):
        index = LSHIndex(dimension=2, bucket_width=5.0, seed=0)
        index.insert("near", np.array([0.1, 0.0]))
        index.insert("far", np.array([10.0, 10.0]))
        results = index.query_radius(np.zeros(2), radius=1.0)
        assert [item for item, _ in results] == ["near"]

    def test_fallback_guarantees_k(self):
        index, vectors = self.make_index(n=50)
        results = index.query_topk(np.full(16, 100.0), k=10)
        assert len(results) == 10

    def test_parameter_validation(self):
        with pytest.raises(IndexError_):
            LSHIndex(dimension=0)
        with pytest.raises(IndexError_):
            LSHIndex(dimension=4, bucket_width=0)
        with pytest.raises(IndexError_):
            LSHIndex(dimension=4, n_tables=0)
        index = LSHIndex(dimension=4)
        with pytest.raises(IndexError_):
            index.query_topk(np.zeros(4), k=0)
        with pytest.raises(IndexError_):
            index.query_radius(np.zeros(4), radius=-1.0)


class TestLSHConcurrentInsert:
    """Inserts land in a preallocated buffer that doubles when full; a
    query racing them ranks against a consistent prefix of the inserts."""

    # Enough inserts that the write phase (an insert hashes in ~6 us)
    # outlasts a scheduler hiccup and queries do overlap it.
    N, DIM, K = 1500, 8, 5

    @staticmethod
    def brute(vectors, m, probe, k):
        distances = np.linalg.norm(vectors[:m] - probe, axis=1)
        order = sorted(range(m), key=lambda i: (float(distances[i]), i))[:k]
        return [(i, float(distances[i])) for i in order]

    @staticmethod
    def same(answer, expected):
        return [item for item, _ in answer] == [item for item, _ in expected] and [
            d for _, d in answer
        ] == pytest.approx([d for _, d in expected], rel=1e-12)

    @pytest.mark.parametrize("method", ["query_topk", "linear_topk"])
    def test_every_answer_ranks_some_prefix_of_the_inserts(self, method):
        rng = np.random.default_rng(7)
        vectors = rng.normal(0.0, 1.0, (self.N, self.DIM))
        probes = rng.normal(0.0, 1.0, (16, self.DIM))
        # One bucket per table holds everything, so the hash candidates
        # of query_topk are exactly the items inserted so far.
        index = LSHIndex(dimension=self.DIM, bucket_width=1e6)
        turn = itertools.count()

        def read_once():
            probe = next(turn) % len(probes)
            before = len(index)
            answer = getattr(index, method)(probes[probe], self.K)
            return before, len(index), probe, answer

        def write_all():
            for i in range(self.N):
                index.insert(i, vectors[i])

        answers = read_while_writing(read_once, write_all)
        assert len(index) == self.N
        raced = sum(1 for before, after, _, _ in answers if 0 < after and before < self.N)
        assert raced >= 3, f"only {raced} queries overlapped the inserts"
        for before, after, probe, answer in answers:
            assert any(
                self.same(answer, self.brute(vectors, m, probes[probe], self.K))
                for m in range(before, after + 1)
            ), (before, after, answer)

    def test_a_view_taken_before_the_buffer_grows_stays_valid(self):
        rng = np.random.default_rng(3)
        vectors = rng.normal(0.0, 1.0, (200, 4))
        index = LSHIndex(dimension=4)
        for i in range(10):
            index.insert(i, vectors[i])
        early = index._dense_matrix()
        early_norms = index._sq_norms[:10]
        for i in range(10, 200):  # several doublings past the first block
            index.insert(i, vectors[i])
        assert np.array_equal(early, vectors[:10])
        assert np.array_equal(index._dense_matrix(), vectors)
        assert index.linear_topk(vectors[150], 1)[0] == (150, 0.0)
        # The norm column doubles with the buffer, under the same lock.
        norms = [float(vector @ vector) for vector in vectors]
        assert early_norms.tolist() == norms[:10]
        assert index._sq_norms[:200].tolist() == norms


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("Illegal DUMPING on 5th") == ["illegal", "dumping", "5th"]

    def test_stopwords_removed(self):
        assert tokenize("the bags on the street") == ["bags", "street"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("the and of") == []


class TestInvertedIndex:
    def make_index(self):
        index = InvertedIndex()
        index.add(1, "illegal dumping near the river")
        index.add(2, "overgrown vegetation on sidewalk")
        index.add(3, "dumping of bulky furniture on sidewalk")
        return index

    def test_len_and_contains(self):
        index = self.make_index()
        assert len(index) == 3
        assert 1 in index and 9 not in index

    def test_search_any(self):
        index = self.make_index()
        hits = [doc for doc, _ in index.search_any("dumping sidewalk")]
        assert set(hits) == {1, 2, 3}

    def test_search_all(self):
        index = self.make_index()
        hits = [doc for doc, _ in index.search_all("dumping sidewalk")]
        assert hits == [3]

    def test_search_all_empty_query(self):
        assert self.make_index().search_all("") == []

    def test_ranking_prefers_rarer_terms(self):
        index = InvertedIndex()
        index.add(1, "graffiti")  # rare term, short doc
        index.add(2, "street street street street graffiti")
        index.add(3, "street cleaning")
        hits = index.search_any("graffiti")
        assert hits[0][0] == 1  # higher tf proportion

    def test_a_second_add_of_an_id_is_refused(self):
        """A document, once listed, stays as it is: no extension."""
        index = InvertedIndex()
        index.add(1, "homeless tents")
        with pytest.raises(IndexError_):
            index.add(1, "encampment")
        assert index.search_any("encampment") == []
        assert [doc for doc, _ in index.search_any("tents")] == [1]
        assert len(index) == 1

    def test_no_match(self):
        assert self.make_index().search_any("wildfire") == []


class TestScoringUnderConcurrentAdds:
    """``search_all`` racing ``add``: the conjunction and its scores come
    from one index state, so every answer is the answer over *some*
    prefix of the adds — never the documents of one moment ranked with
    the document frequencies of another."""

    N = 1500
    #: Long enough that the adds take tens of milliseconds in all.
    FILLER = " ".join(f"w{n}" for n in range(40))
    TEXTS = ["tent trash", "tent", "trash cart tent", "cart", "tent trash trash"]

    def test_every_all_answer_is_the_answer_over_some_prefix_of_the_adds(self):
        texts = [
            f"{self.TEXTS[i % len(self.TEXTS)]} {self.FILLER}" for i in range(self.N)
        ]
        staged = InvertedIndex()
        prefixes = {repr(staged.search_all("tent trash"))}
        for doc_id, text in enumerate(texts):
            staged.add(doc_id, text)
            prefixes.add(repr(staged.search_all("tent trash")))
        index = InvertedIndex()

        def write_all():
            for doc_id, text in enumerate(texts):
                index.add(doc_id, text)

        answers = read_while_writing(lambda: index.search_all("tent trash"), write_all)
        full = len(staged.search_all("tent trash"))
        raced = sum(1 for answer in answers if 0 < len(answer) < full)
        assert raced >= 3, f"only {raced} searches overlapped the adds"
        for answer in answers:
            assert repr(answer) in prefixes
