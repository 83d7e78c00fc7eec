"""Tests of the distributed inverted index."""

import numpy as np
import pytest

from repro.search import DistributedIndex, PostingList


@pytest.fixture()
def index(tiny_corpus):
    rng = np.random.default_rng(0)
    ranks = rng.uniform(0.15, 10.0, tiny_corpus.num_documents)
    return DistributedIndex(tiny_corpus, ranks, num_peers=10), ranks


class TestPostings:
    def test_postings_exactly_docs_with_term(self, index, tiny_corpus):
        idx, _ = index
        for term in tiny_corpus.top_terms(5):
            term = int(term)
            expected = set(tiny_corpus.documents_with_term(term).tolist())
            assert set(idx.postings(term).docs.tolist()) == expected

    def test_postings_sorted_by_rank_desc(self, index):
        idx, ranks = index
        p = idx.postings(0)
        assert np.all(np.diff(ranks[p.docs]) <= 1e-12)
        assert np.allclose(p.ranks, ranks[p.docs])

    def test_unknown_term_empty(self, index):
        idx, _ = index
        p = idx.postings(10_000_000)
        assert len(p) == 0

    def test_rank_lookup(self, index):
        idx, ranks = index
        assert idx.rank_of(3) == pytest.approx(ranks[3])
        assert np.allclose(idx.ranks_of(np.array([1, 2])), ranks[[1, 2]])


class TestTopFraction:
    def make(self, n):
        docs = np.arange(n, dtype=np.int64)
        ranks = np.linspace(10, 1, n)
        return PostingList(term=0, docs=docs, ranks=ranks)

    def test_top_fraction_truncates(self):
        p = self.make(1000)
        out = p.top_fraction(0.1, min_forward=20)
        assert out.size == 100
        assert np.array_equal(out, np.arange(100))

    def test_min_forward_ships_everything(self):
        # paper artifact: top-x% below the floor => forward ALL hits
        p = self.make(150)
        out = p.top_fraction(0.1, min_forward=20)  # 15 < 20
        assert out.size == 150

    def test_exactly_at_floor_truncates(self):
        p = self.make(200)
        out = p.top_fraction(0.1, min_forward=20)  # 20 == 20
        assert out.size == 20

    def test_fraction_validation(self):
        p = self.make(10)
        with pytest.raises(ValueError):
            p.top_fraction(0.0, min_forward=0)
        with pytest.raises(ValueError):
            p.top_fraction(1.5, min_forward=0)


class TestIndexUpdates:
    def test_update_rank_resorts(self, index, tiny_corpus):
        idx, _ = index
        term = int(tiny_corpus.top_terms(1)[0])
        victim = int(idx.postings(term).docs[-1])  # lowest-ranked hit
        idx.update_rank(victim, 1e9)
        assert int(idx.postings(term).docs[0]) == victim

    def test_update_counts_messages(self, index):
        idx, _ = index
        before = idx.index_update_messages
        idx.update_rank(0, 5.0)
        assert idx.index_update_messages == before + 1

    def test_update_bounds(self, index):
        idx, _ = index
        with pytest.raises(IndexError):
            idx.update_rank(10**6, 1.0)

    def test_bulk_load_counted(self, tiny_corpus):
        ranks = np.ones(tiny_corpus.num_documents)
        idx = DistributedIndex(tiny_corpus, ranks, num_peers=4)
        total_postings = sum(t.size for t in tiny_corpus.doc_terms)
        assert idx.index_update_messages == total_postings


class TestPartitioning:
    def test_peer_of_term_stable_and_bounded(self, index):
        idx, _ = index
        for term in range(20):
            p = idx.peer_of_term(term)
            assert 0 <= p < 10
            assert idx.peer_of_term(term) == p

    def test_terms_spread_over_peers(self, index, tiny_corpus):
        idx, _ = index
        owners = {idx.peer_of_term(t) for t in range(tiny_corpus.vocab_size)}
        assert len(owners) == 10


class TestMaintenance:
    def test_index_peers_of_doc(self, index, tiny_corpus):
        idx, _ = index
        doc = 0
        peers = idx.index_peers_of_doc(doc)
        expected = {idx.peer_of_term(int(t)) for t in tiny_corpus.doc_terms[doc]}
        assert peers == expected
        assert all(0 <= p < 10 for p in peers)

    def test_maintenance_messages_sums(self, index):
        idx, _ = index
        docs = [0, 1, 2]
        total = idx.maintenance_messages(docs)
        assert total == sum(len(idx.index_peers_of_doc(d)) for d in docs)

    def test_empty_changed_set(self, index):
        idx, _ = index
        assert idx.maintenance_messages([]) == 0

    def test_bounds(self, index):
        idx, _ = index
        with pytest.raises(IndexError):
            idx.index_peers_of_doc(10**6)

    @pytest.mark.parametrize("doc", [-1, 10**6])
    def test_maintenance_bounds(self, index, doc):
        # A negative id must not wrap around to the last document.
        idx, _ = index
        with pytest.raises(IndexError):
            idx.maintenance_messages([0, doc])
        with pytest.raises(IndexError):
            idx.index_peers_of_doc(doc)

    def test_maintenance_counts_distinct_peers_per_doc(self, index, tiny_corpus):
        idx, _ = index
        docs = list(range(tiny_corpus.num_documents))
        expected = sum(
            len({idx.peer_of_term(int(t)) for t in tiny_corpus.doc_terms[d]})
            for d in docs
        )
        assert idx.maintenance_messages(docs) == expected
        assert idx.maintenance_messages(docs) == expected  # cached


class TestSortDocsByRank:
    def test_sorts_descending_with_stable_ties(self, index):
        idx, ranks = index
        docs = np.array([5, 1, 9, 3])
        out = idx.sort_docs_by_rank(docs)
        assert set(out.tolist()) == set(docs.tolist())
        assert np.all(np.diff(ranks[out]) <= 1e-12)

    def test_validation(self, tiny_corpus):
        with pytest.raises(ValueError):
            DistributedIndex(tiny_corpus, np.ones(3), num_peers=2)
        with pytest.raises(ValueError):
            DistributedIndex(
                tiny_corpus, np.ones(tiny_corpus.num_documents), num_peers=0
            )
