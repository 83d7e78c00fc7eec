"""Synthetic document corpus — the crawl substitute (paper §4.9).

The paper built its search corpus by crawling ~11,000 news pages
(99 MB), removing stopwords, and thresholding to the most frequent
terms, ending with 1880-dimensional term data.  That crawl is not
available, so this module synthesises a corpus with the same
statistical profile, which is all Table 6 depends on:

* term frequencies are Zipf-distributed (the universal law for natural
  language), so "top-100 most frequent terms" is meaningful;
* each document draws a lognormal number of distinct terms from the
  Zipf law;
* the same post-processing pipeline is applied: the most frequent
  ``num_stopwords`` terms are removed (stopwords), then the vocabulary
  is thresholded to the ``vocab_size`` most frequent survivors.

The documents also carry the link structure used to compute their
pageranks, generated with the §4.1 power-law model, so hit lists have
realistically skewed rank distributions — the property incremental
search exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro._util import as_generator, check_positive
from repro._util.rng import SeedLike, spawn_generators
from repro.graphs.linkgraph import LinkGraph
from repro.graphs.powerlaw import broder_graph

__all__ = ["Corpus", "CorpusConfig", "synthesize_corpus", "save_corpus", "load_corpus"]


@dataclass(frozen=True)
class CorpusConfig:
    """Parameters of the synthetic corpus.

    Defaults mirror the paper's corpus: ~11,000 documents reduced to a
    1880-term vocabulary after dropping the most frequent (stopword)
    terms.
    """

    num_documents: int = 11_000
    vocab_size: int = 1_880
    num_stopwords: int = 100
    raw_vocab_size: int = 30_000
    zipf_exponent: float = 1.1
    # ~800 word draws per document (the paper's corpus is ~9 KB of news
    # text per page); this is what gives frequent terms the ~40 %
    # document frequency behind Table 6's thousand-hit lists.
    mean_terms_per_doc: float = 800.0
    sigma_terms_per_doc: float = 0.5

    def __post_init__(self) -> None:
        if self.num_documents < 1:
            raise ValueError("num_documents must be >= 1")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        if self.raw_vocab_size < self.vocab_size + self.num_stopwords:
            raise ValueError(
                "raw_vocab_size must cover stopwords + final vocabulary"
            )
        check_positive("zipf_exponent", self.zipf_exponent)
        check_positive("mean_terms_per_doc", self.mean_terms_per_doc)
        check_positive("sigma_terms_per_doc", self.sigma_terms_per_doc)


@dataclass
class Corpus:
    """A processed document corpus.

    Attributes
    ----------
    doc_terms:
        For each document, a sorted ``int64`` array of the distinct
        term ids it contains (ids index the *processed* vocabulary).
    vocab_size:
        Number of terms in the processed vocabulary.
    document_frequency:
        ``document_frequency[t]`` = number of documents containing
        term ``t``.
    link_graph:
        Optional link structure among the documents (for pagerank).
    """

    doc_terms: List[np.ndarray]
    vocab_size: int
    document_frequency: np.ndarray
    link_graph: Optional[LinkGraph] = None

    @property
    def num_documents(self) -> int:
        return len(self.doc_terms)

    def documents_with_term(self, term: int) -> np.ndarray:
        """All documents containing ``term`` (O(corpus) scan; the
        distributed index precomputes this as posting lists)."""
        if not 0 <= term < self.vocab_size:
            raise IndexError(f"term {term} out of range [0, {self.vocab_size})")
        return np.array(
            [d for d, terms in enumerate(self.doc_terms) if term in set(terms.tolist())],
            dtype=np.int64,
        )

    def top_terms(self, k: int) -> np.ndarray:
        """The ``k`` terms appearing in the most documents — the pool
        the paper draws its synthetic queries from (top 100)."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        k = min(k, self.vocab_size)
        order = np.argsort(self.document_frequency, kind="stable")[::-1]
        return order[:k].astype(np.int64)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a short int array by sort-and-compare, which
    beats its hash table several times over at document sizes."""
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def synthesize_corpus(
    config: Optional[CorpusConfig] = None,
    *,
    seed: SeedLike = None,
    with_links: bool = True,
) -> Corpus:
    """Generate a corpus per :class:`CorpusConfig`.

    The generation pipeline mirrors the paper's §4.9 preparation:

    1. draw each document's raw terms from a Zipf law over the raw
       vocabulary;
    2. drop the globally most frequent ``num_stopwords`` raw terms
       (stopword removal);
    3. keep the ``vocab_size`` most document-frequent remaining terms
       and discard everything else (frequency thresholding);
    4. renumber surviving terms by descending document frequency, so
       term 0 is the most common non-stop term.

    Parameters
    ----------
    config:
        Corpus parameters (paper-scaled defaults).
    seed:
        Deterministic seed.
    with_links:
        Also generate a §4.1 power-law link graph over the documents
        (needed to compute their pageranks).
    """
    cfg = config or CorpusConfig()
    rng_terms, rng_links = spawn_generators(seed, 2)

    # Zipf term sampling over the raw vocabulary, via inverse CDF.
    ranks = np.arange(1, cfg.raw_vocab_size + 1, dtype=np.float64)
    pmf = ranks ** (-cfg.zipf_exponent)
    cdf = np.cumsum(pmf)
    cdf /= cdf[-1]

    # Lognormal number of raw term draws per document.
    mu = np.log(cfg.mean_terms_per_doc) - 0.5 * cfg.sigma_terms_per_doc**2
    lengths = np.maximum(
        1, rng_terms.lognormal(mu, cfg.sigma_terms_per_doc, cfg.num_documents).astype(np.int64)
    )

    # One document's draws at a time: the uniform stream is the same as
    # one bulk draw, without holding every raw draw in memory at once.
    raw_doc_terms = [
        _sorted_unique(np.searchsorted(cdf, rng_terms.random(int(n)), side="left"))
        for n in lengths
    ]

    # Document frequency over the raw vocabulary.
    df = np.zeros(cfg.raw_vocab_size, dtype=np.int64)
    for terms in raw_doc_terms:
        df[terms] += 1

    # Stopword removal + frequency thresholding.
    order = np.argsort(df, kind="stable")[::-1]
    kept = order[cfg.num_stopwords : cfg.num_stopwords + cfg.vocab_size]
    remap = np.full(cfg.raw_vocab_size, -1, dtype=np.int64)
    # New ids ordered by descending document frequency.
    remap[kept] = np.arange(kept.size, dtype=np.int64)

    doc_terms: List[np.ndarray] = []
    for terms in raw_doc_terms:
        mapped = remap[terms]
        mapped = np.sort(mapped[mapped >= 0])
        doc_terms.append(mapped)

    final_df = np.zeros(kept.size, dtype=np.int64)
    for terms in doc_terms:
        final_df[terms] += 1

    link_graph = (
        broder_graph(cfg.num_documents, seed=rng_links) if with_links else None
    )
    return Corpus(
        doc_terms=doc_terms,
        vocab_size=int(kept.size),
        document_frequency=final_df,
        link_graph=link_graph,
    )


def save_corpus(corpus: Corpus, path) -> None:
    """Persist a corpus (terms + link structure) to one ``.npz`` file.

    Regenerating the paper-scale corpus takes seconds, but benchmark
    fixtures and downstream experiments want byte-identical inputs;
    the flat CSR-style encoding here is lossless and loads in O(size).
    """
    lengths = np.array([t.size for t in corpus.doc_terms], dtype=np.int64)
    flat = (
        np.concatenate(corpus.doc_terms)
        if corpus.doc_terms
        else np.empty(0, dtype=np.int64)
    )
    payload = {
        "lengths": lengths,
        "terms": flat,
        "vocab_size": np.int64(corpus.vocab_size),
        "document_frequency": corpus.document_frequency,
        "has_links": np.bool_(corpus.link_graph is not None),
    }
    if corpus.link_graph is not None:
        payload["indptr"] = corpus.link_graph.indptr
        payload["indices"] = corpus.link_graph.indices
    np.savez_compressed(path, **payload)


def load_corpus(path) -> Corpus:
    """Load a corpus written by :func:`save_corpus`."""
    with np.load(path) as data:
        lengths = data["lengths"]
        flat = data["terms"]
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        doc_terms = [
            flat[offsets[i] : offsets[i + 1]].copy() for i in range(lengths.size)
        ]
        link_graph = None
        if bool(data["has_links"]):
            link_graph = LinkGraph(
                data["indptr"].copy(), data["indices"].copy(), lengths.size
            )
        return Corpus(
            doc_terms=doc_terms,
            vocab_size=int(data["vocab_size"]),
            document_frequency=data["document_frequency"].copy(),
            link_graph=link_graph,
        )
