"""Tests of the serving layer's result cache (docs/SERVING.md)."""

import numpy as np
import pytest

from repro.serve.cache import ResultCache


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(ttl=5.0)
        assert cache.get(("k",), now=0.0, rank_version=0) is None
        cache.put(("k",), (3, 1, 2), now=0.0, rank_version=0)
        entry = cache.get(("k",), now=1.0, rank_version=0)
        assert entry is not None
        assert entry.hits == (3, 1, 2)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_put_accepts_array_or_tuple(self):
        cache = ResultCache(ttl=5.0)
        cache.put(("a",), np.array([3, 1, 2], dtype=np.int64), now=0.0, rank_version=0)
        cache.put(("t",), (3, 1, 2), now=0.0, rank_version=0)
        for key in (("a",), ("t",)):
            hits = cache.get(key, now=0.0, rank_version=0).hits
            assert hits == (3, 1, 2)
            assert all(type(d) is int for d in hits)

    def test_ttl_expiry(self):
        cache = ResultCache(ttl=2.0)
        cache.put(("k",), (1,), now=0.0, rank_version=0)
        assert cache.get(("k",), now=2.0, rank_version=0) is not None
        assert cache.get(("k",), now=2.1, rank_version=0) is None
        assert cache.stats.expirations == 1
        assert ("k",) not in cache

    def test_rank_version_invalidation_at_lookup(self):
        cache = ResultCache(ttl=100.0)
        cache.put(("k",), (1,), now=0.0, rank_version=0)
        assert cache.get(("k",), now=1.0, rank_version=1) is None
        assert cache.stats.invalidations == 1
        assert len(cache) == 0

    def test_invalidate_version_eagerly_drops_older(self):
        cache = ResultCache(ttl=100.0)
        cache.put(("a",), (1,), now=0.0, rank_version=0)
        cache.put(("b",), (2,), now=0.0, rank_version=1)
        dropped = cache.invalidate_version(1)
        assert dropped == 1
        assert ("a",) not in cache and ("b",) in cache
        assert cache.stats.invalidations == 1

    def test_capacity_fifo_eviction(self):
        cache = ResultCache(ttl=100.0, capacity=2)
        cache.put(("a",), (1,), now=0.0, rank_version=0)
        cache.put(("b",), (2,), now=0.0, rank_version=0)
        cache.put(("c",), (3,), now=0.0, rank_version=0)
        assert len(cache) == 2
        assert ("a",) not in cache

    def test_hit_rate_zero_lookups(self):
        cache = ResultCache(ttl=1.0)
        assert cache.stats.hit_rate == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ResultCache(ttl=0.0)
        with pytest.raises(ValueError):
            ResultCache(ttl=1.0, capacity=0)
