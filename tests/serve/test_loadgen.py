"""Tests of the seeded Zipf load generator (docs/SERVING.md)."""

import copy

import numpy as np
import pytest

from repro.search.corpus import CorpusConfig, synthesize_corpus
from repro.serve.loadgen import LoadGenerator


@pytest.fixture(scope="module")
def corpus():
    config = CorpusConfig(
        num_documents=100, vocab_size=80, num_stopwords=8,
        raw_vocab_size=400, mean_terms_per_doc=30.0,
    )
    return synthesize_corpus(config, seed=0, with_links=False)


def _gen(corpus, **kw):
    defaults = dict(seed=7, num_distinct=20, terms_per_query=2,
                    term_pool_size=40, zipf_exponent=1.0)
    defaults.update(kw)
    return LoadGenerator(corpus, 8, **defaults)


class TestLoadGenerator:
    def test_same_seed_same_stream(self, corpus):
        a = _gen(corpus).open_arrivals(qps=50.0, duration=2.0)
        b = _gen(corpus).open_arrivals(qps=50.0, duration=2.0)
        assert [(x.time, x.query.terms, x.portal_peer) for x in a] == [
            (x.time, x.query.terms, x.portal_peer) for x in b
        ]
        assert len(a) > 0

    def test_different_seed_differs(self, corpus):
        a = _gen(corpus, seed=1).open_arrivals(qps=50.0, duration=2.0)
        b = _gen(corpus, seed=2).open_arrivals(qps=50.0, duration=2.0)
        assert [x.time for x in a] != [x.time for x in b]

    def test_arrivals_ordered_within_duration(self, corpus):
        arrivals = _gen(corpus).open_arrivals(qps=100.0, duration=1.5)
        times = [a.time for a in arrivals]
        assert times == sorted(times)
        assert all(0.0 < t < 1.5 for t in times)

    def test_portal_peers_in_range(self, corpus):
        arrivals = _gen(corpus).open_arrivals(qps=100.0, duration=1.0)
        assert all(0 <= a.portal_peer < 8 for a in arrivals)

    def test_queries_drawn_from_candidate_pool(self, corpus):
        gen = _gen(corpus)
        pool = set(gen.candidates)
        arrivals = gen.open_arrivals(qps=100.0, duration=1.0)
        assert all(a.query in pool for a in arrivals)

    def test_zipf_skew_concentrates_popular_queries(self, corpus):
        # Under heavy skew the head query should dominate the stream;
        # uniform draws should not.
        skewed = _gen(corpus, zipf_exponent=2.0)
        uniform = _gen(corpus, zipf_exponent=0.0)
        head = skewed.candidates[0]
        skewed_draws = [skewed.sample(0.0).query for _ in range(400)]
        uniform_draws = [uniform.sample(0.0).query for _ in range(400)]
        assert skewed_draws.count(head) > uniform_draws.count(head)

    def test_validation(self, corpus):
        with pytest.raises(ValueError):
            LoadGenerator(corpus, 0, seed=0)
        with pytest.raises(ValueError):
            _gen(corpus, num_distinct=0)
        with pytest.raises(ValueError):
            _gen(corpus, zipf_exponent=-1.0)
        with pytest.raises(ValueError):
            _gen(corpus).open_arrivals(qps=0.0, duration=1.0)
        with pytest.raises(ValueError):
            _gen(corpus).open_arrivals(qps=1.0, duration=0.0)

    @pytest.mark.parametrize("zipf_exponent", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_sample_matches_generator_choice(self, corpus, seed, zipf_exponent):
        # The precomputed CDF must reproduce the stream of
        # ``Generator.choice(n, p=weights)`` draw for draw, so seeded
        # query streams do not move.
        gen = _gen(corpus, seed=seed, zipf_exponent=zipf_exponent)
        twin = copy.deepcopy(gen)
        n = len(gen.candidates)
        weights = np.arange(1, n + 1, dtype=np.float64) ** -zipf_exponent
        weights /= weights.sum()
        for _ in range(500):
            arrival = gen.sample(1.0)
            idx = int(twin._rng.choice(n, p=weights))
            portal = int(twin._rng.integers(twin.num_peers))
            assert arrival.query == gen.candidates[idx]
            assert arrival.portal_peer == portal
