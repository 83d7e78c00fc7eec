"""Property tests of the query path's posting intersection.

Each index peer ANDs the forwarded hits with its postings and re-sorts
by pagerank (§2.4.3).  The intersection assumes both inputs are
duplicate-free, which the index guarantees for posting lists; these
tests pin the result to the plain ``np.intersect1d`` reference,
including rank ties left behind by ``refresh_ranks``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search import DistributedIndex
from repro.search.baseline import intersect_sorted_by_rank, intersect_unique
from repro.search.corpus import Corpus

NUM_TERMS = 6


def _corpus(doc_terms):
    arrays = [np.asarray(sorted(t), dtype=np.int64) for t in doc_terms]
    df = np.zeros(NUM_TERMS, dtype=np.int64)
    for terms in arrays:
        df[terms] += 1
    return Corpus(doc_terms=arrays, vocab_size=NUM_TERMS, document_frequency=df)


@st.composite
def _index_case(draw):
    num_docs = draw(st.integers(1, 40))
    doc_terms = draw(
        st.lists(
            st.sets(st.integers(0, NUM_TERMS - 1), max_size=NUM_TERMS),
            min_size=num_docs,
            max_size=num_docs,
        )
    )
    # Tie-heavy ranks: a handful of distinct values over many documents.
    ranks = st.lists(
        st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=num_docs, max_size=num_docs
    )
    initial, refreshed = draw(ranks), draw(ranks)
    first, second = draw(st.integers(0, NUM_TERMS - 1)), draw(st.integers(0, NUM_TERMS - 1))
    keep = draw(st.integers(0, num_docs))
    return doc_terms, initial, refreshed, first, second, keep


@given(_index_case(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_intersection_matches_reference(case, refresh):
    doc_terms, initial, refreshed, first, second, keep = case
    index = DistributedIndex(_corpus(doc_terms), np.asarray(initial), num_peers=3)
    if refresh:
        index.refresh_ranks(np.asarray(refreshed))
    # The forwarded set: a rank-sorted prefix of one posting list.
    current = index.postings(first).docs[:keep]
    expected = index.sort_docs_by_rank(
        np.intersect1d(current, index.postings(second).docs)
    )
    got = intersect_sorted_by_rank(index, current, second)
    np.testing.assert_array_equal(got, expected)
    assert got.dtype == np.int64


@given(
    st.sets(st.integers(0, 200), max_size=60),
    st.sets(st.integers(0, 200), max_size=60),
)
@settings(max_examples=200, deadline=None)
def test_intersect_unique_matches_intersect1d(a, b):
    a_arr = np.asarray(sorted(a, reverse=True), dtype=np.int64)
    b_arr = np.asarray(list(b), dtype=np.int64)
    np.testing.assert_array_equal(
        intersect_unique(a_arr, b_arr), np.intersect1d(a_arr, b_arr)
    )


def test_duplicate_term_in_a_document_is_posted_once():
    # Document 1 lists its terms out of order and term 0 twice; term 3
    # appears nowhere else.
    doc_terms = [
        np.array([0, 1, 1, 2], dtype=np.int64),
        np.array([3, 0, 0], dtype=np.int64),
        np.array([1], dtype=np.int64),
    ]
    corpus = Corpus(
        doc_terms=doc_terms,
        vocab_size=4,
        document_frequency=np.array([2, 2, 1, 1], dtype=np.int64),
    )
    index = DistributedIndex(corpus, np.array([1.0, 3.0, 2.0]), num_peers=2)
    np.testing.assert_array_equal(index.postings(0).docs, [1, 0])
    np.testing.assert_array_equal(index.postings(1).docs, [2, 0])
    np.testing.assert_array_equal(index.postings(2).docs, [0])
    np.testing.assert_array_equal(index.postings(3).docs, [1])
    # Bulk load charges one message per distinct (term, doc) posting.
    assert index.index_update_messages == 6
    hits = intersect_sorted_by_rank(index, index.postings(0).docs, 1)
    np.testing.assert_array_equal(hits, [0])


def test_negative_term_id_rejected():
    corpus = Corpus(
        doc_terms=[np.array([0, -1], dtype=np.int64)],
        vocab_size=1,
        document_frequency=np.array([1], dtype=np.int64),
    )
    with pytest.raises(ValueError):
        DistributedIndex(corpus, np.ones(1), num_peers=2)
