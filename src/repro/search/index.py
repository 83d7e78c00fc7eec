"""Distributed inverted keyword index over the DHT (paper §2.4.2).

Keyword search on DHT systems uses a distributed index: the index
entry for a keyword lives on the peer that owns the keyword's GUID and
points to every document containing the keyword.  The paper's addition
is an extra column: each posting also stores the document's *pagerank*,
kept current by index-update messages sent whenever a document's
pagerank (re)converges — which is what lets any single peer sort its
hit list by global importance without further communication.

:class:`DistributedIndex` implements that structure.  Posting lists are
kept sorted by descending pagerank (ties by doc id, so results are
deterministic) because every search variant consumes them in that
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro._util import as_generator
from repro._util.rng import SeedLike
from repro.p2p.guid import guid_of
from repro.search.corpus import Corpus

__all__ = ["PostingList", "DistributedIndex"]


@dataclass
class PostingList:
    """Index entry for one term: documents + their pageranks.

    ``docs``/``ranks`` are parallel arrays sorted by descending rank
    (doc id ascending among equal ranks); each document appears once.
    """

    term: int
    docs: np.ndarray
    ranks: np.ndarray

    def __len__(self) -> int:
        return self.docs.size

    def top_fraction(self, fraction: float, *, min_forward: int) -> np.ndarray:
        """The paper's §2.4.3 forwarding rule: the top ``fraction`` of
        hits by pagerank — unless that would be fewer than
        ``min_forward`` documents, in which case *all* hits are
        forwarded (the simulation artifact called out in Table 6's
        discussion; the paper used a threshold of 20)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        k = int(np.ceil(self.docs.size * fraction))
        if k < min_forward:
            return self.docs.copy()
        return self.docs[:k].copy()


class DistributedIndex:
    """Term-partitioned inverted index with a pagerank column.

    Parameters
    ----------
    corpus:
        The document corpus to index.
    ranks:
        Per-document pageranks (what the §2.4.2 index-update messages
        deposited).
    num_peers:
        Number of index peers; terms are assigned to peers by hashing
        the term id (consistent with a DHT's GUID ownership without
        requiring a full ring here).

    Notes
    -----
    The index tracks ``index_update_messages``: one message per
    document per call to :meth:`update_rank`, plus the initial bulk
    load (one per (term, doc) posting), so traffic experiments can
    account for index maintenance if they choose to.
    """

    def __init__(self, corpus: Corpus, ranks: np.ndarray, num_peers: int) -> None:
        if num_peers < 1:
            raise ValueError(f"num_peers must be >= 1, got {num_peers}")
        ranks = np.asarray(ranks, dtype=np.float64)
        if ranks.shape != (corpus.num_documents,):
            raise ValueError(
                f"ranks must have shape ({corpus.num_documents},), got {ranks.shape}"
            )
        self.corpus = corpus
        self.num_peers = int(num_peers)
        self._ranks = ranks.copy()
        self.index_update_messages = 0
        # GUID hashing dominates maintenance accounting on bulk
        # refreshes; these maps are stable for the index's lifetime.
        self._term_peer_cache: Dict[int, int] = {}
        self._term_peers: Optional[np.ndarray] = None
        self._doc_peer_count: Dict[int, int] = {}

        # A document listing a term twice is posted once: posting lists
        # are duplicate-free, which the query path's intersection relies on.
        doc_terms = []
        for terms in corpus.doc_terms:
            terms = np.asarray(terms, dtype=np.int64)
            if np.any(terms[1:] <= terms[:-1]):
                terms = np.unique(terms)
            if terms.size and terms[0] < 0:
                raise ValueError(f"term ids must be >= 0, got {int(terms[0])}")
            doc_terms.append(terms)

        # Invert: term -> docs, a counting sort over the documents.
        num_terms = max((int(t[-1]) + 1 for t in doc_terms if t.size), default=0)
        df = np.zeros(num_terms, dtype=np.int64)
        for terms in doc_terms:
            df[terms] += 1
        starts = np.zeros(num_terms + 1, dtype=np.int64)
        np.cumsum(df, out=starts[1:])
        flat = np.empty(int(starts[-1]), dtype=np.int64)
        fill = starts[:-1].copy()
        for doc, terms in enumerate(doc_terms):
            flat[fill[terms]] = doc
            fill[terms] += 1
        self._postings: Dict[int, PostingList] = {
            term: self._sorted_posting(term, flat[starts[term] : starts[term + 1]])
            for term in np.flatnonzero(df).tolist()
        }
        self.index_update_messages += int(flat.size)

    # ------------------------------------------------------------------
    def _sorted_posting(self, term: int, docs: np.ndarray) -> PostingList:
        r = self._ranks[docs]
        # Descending rank, ascending doc id among ties: lexsort keys
        # are applied last-key-primary.
        order = np.lexsort((docs, -r))
        return PostingList(term=term, docs=docs[order], ranks=r[order])

    # ------------------------------------------------------------------
    def peer_of_term(self, term: int) -> int:
        """Index peer owning ``term`` (GUID-hash partitioning)."""
        peer = self._term_peer_cache.get(term)
        if peer is None:
            peer = guid_of(str(term), namespace="term") % self.num_peers
            self._term_peer_cache[term] = peer
        return peer

    def postings(self, term: int) -> PostingList:
        """The posting list for ``term`` (empty list if unseen)."""
        p = self._postings.get(term)
        if p is None:
            return PostingList(
                term=term,
                docs=np.empty(0, dtype=np.int64),
                ranks=np.empty(0, dtype=np.float64),
            )
        return p

    def rank_of(self, doc: int) -> float:
        """Pagerank currently recorded for ``doc``."""
        return float(self._ranks[doc])

    def ranks_of(self, docs: np.ndarray) -> np.ndarray:
        """Vectorized rank lookup."""
        return self._ranks[np.asarray(docs, dtype=np.int64)]

    def update_rank(self, doc: int, rank: float) -> None:
        """Apply a §2.4.2 index-update message: a document's pagerank
        changed; every posting list containing it re-sorts."""
        if not 0 <= doc < self.corpus.num_documents:
            raise IndexError(f"doc {doc} out of range")
        self._ranks[doc] = float(rank)
        for term in self.corpus.doc_terms[doc].tolist():
            p = self._postings.get(term)
            if p is not None:
                self._postings[term] = self._sorted_posting(term, p.docs)
        self.index_update_messages += 1

    def index_peers_of_doc(self, doc: int) -> set:
        """The index peers holding postings that mention ``doc``.

        One §2.4.2 index-update message must reach each of them when
        the document's pagerank changes — the per-document maintenance
        cost the traffic analysis of index upkeep uses.
        """
        if not 0 <= doc < self.corpus.num_documents:
            raise IndexError(f"doc {doc} out of range")
        return {self.peer_of_term(int(t)) for t in self.corpus.doc_terms[doc]}

    def _term_peer_array(self) -> np.ndarray:
        """``peer_of_term`` for every posted term, as one array indexed
        by term id (built on first use)."""
        if self._term_peers is None:
            size = max(self._postings, default=-1) + 1
            peers = np.zeros(size, dtype=np.int64)
            for term in self._postings:
                peers[term] = self.peer_of_term(term)
            self._term_peers = peers
        return self._term_peers

    def maintenance_messages(self, changed_docs) -> int:
        """Total index-update messages to refresh the pagerank column
        for ``changed_docs`` (one message per affected index peer per
        document)."""
        total = 0
        for d in changed_docs:
            doc = int(d)
            count = self._doc_peer_count.get(doc)
            if count is None:
                if not 0 <= doc < self.corpus.num_documents:
                    raise IndexError(f"doc {doc} out of range")
                peers = self._term_peer_array()[self.corpus.doc_terms[doc]]
                count = int(
                    np.count_nonzero(np.bincount(peers, minlength=self.num_peers))
                )
                self._doc_peer_count[doc] = count
            total += count
        return total

    def refresh_ranks(self, ranks: np.ndarray) -> int:
        """Apply a bulk batch of §2.4.2 index-update messages.

        The serving layer periodically republishes the background
        computation's current rank vector into the index (the paper's
        "index update messages are sent" moment); this is the bulk
        equivalent of calling :meth:`update_rank` per changed document,
        re-sorting each posting list once instead of once per change.

        Returns the number of index-update messages charged (one per
        affected index peer per changed document), also added to
        :attr:`index_update_messages`.  A no-change refresh costs
        nothing and leaves the index untouched.
        """
        ranks = np.asarray(ranks, dtype=np.float64)
        if ranks.shape != self._ranks.shape:
            raise ValueError(
                f"ranks must have shape {self._ranks.shape}, got {ranks.shape}"
            )
        changed = np.flatnonzero(ranks != self._ranks)
        if changed.size == 0:
            return 0
        self._ranks = ranks.copy()
        for term, p in self._postings.items():
            self._postings[term] = self._sorted_posting(term, p.docs)
        messages = self.maintenance_messages(changed)
        self.index_update_messages += messages
        return messages

    def sort_docs_by_rank(self, docs: np.ndarray) -> np.ndarray:
        """Sort arbitrary doc ids by descending recorded pagerank."""
        docs = np.asarray(docs, dtype=np.int64)
        r = self._ranks[docs]
        return docs[np.lexsort((docs, -r))]
