"""Pagerank-aware result cache for the query-serving layer.

Serving reads against ranks that are *still converging* (the paper's
chaotic iteration runs in the background, §2.3), so a cached result
set has two expiry conditions, either of which drops it
(docs/SERVING.md, "Cache invalidation rule"):

* **TTL** — virtual-clock age beyond ``ttl`` units;
* **rank-version invalidation** — the serving layer bumps a
  monotonically increasing *rank version* whenever the background
  ranks drift past the staleness bound ε and the index is refreshed
  (§2.4.2 index-update messages); entries recorded under an older
  version are stale by definition and refuse to serve.

Both checks happen at lookup time, so the cache never returns a result
computed against ranks more than one refresh interval out of date.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

__all__ = ["CachedResult", "ResultCache", "ResultCacheStats"]


@dataclass(frozen=True)
class CachedResult:
    """One cached query answer.

    Attributes
    ----------
    hits:
        The rank-sorted result document ids, as an immutable tuple.
    rank_version:
        The serving layer's rank version when the result was computed.
    expires_at:
        Virtual-clock time after which the entry is TTL-stale.
    """

    hits: Tuple[int, ...]
    rank_version: int
    expires_at: float


@dataclass
class ResultCacheStats:
    """Counters for the result cache.

    ``expirations`` counts TTL evictions observed at lookup;
    ``invalidations`` counts entries refused (and dropped) because the
    rank version moved on.
    """

    hits: int = 0
    misses: int = 0
    expirations: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache; 0.0 with no lookups."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """TTL + rank-version invalidating cache of query result sets.

    Parameters
    ----------
    ttl:
        Entry lifetime in virtual-clock units; must be > 0.
    capacity:
        Optional bound on live entries (FIFO eviction, matching the
        :class:`~repro.p2p.cache.LocationCache` policy).  ``None`` is
        unbounded.

    Keys are opaque to the cache; the serving session keys by the
    query's term tuple as issued.  A session has one routing order
    and one top-x% fraction, so the terms alone determine the answer.
    """

    def __init__(self, ttl: float, *, capacity: Optional[int] = None) -> None:
        if ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.ttl = float(ttl)
        self.capacity = capacity
        self.stats = ResultCacheStats()
        self._entries: Dict[Tuple, CachedResult] = {}

    def get(self, key: Tuple, now: float, rank_version: int) -> Optional[CachedResult]:
        """The cached answer for ``key``, or ``None``.

        A TTL-expired or version-stale entry is dropped on sight and
        counted; only a live, current-version entry is a hit.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if entry.rank_version != rank_version:
            del self._entries[key]
            self.stats.invalidations += 1
            self.stats.misses += 1
            return None
        if now > entry.expires_at:
            del self._entries[key]
            self.stats.expirations += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return entry

    def put(
        self,
        key: Tuple,
        hits: Union[Tuple[int, ...], np.ndarray],
        now: float,
        rank_version: int,
    ) -> None:
        """Record a freshly computed result under the current version.

        ``hits`` is a tuple of ints (kept as is) or a doc id array
        (converted once).
        """
        if self.capacity is not None and key not in self._entries:
            while len(self._entries) >= self.capacity:
                oldest = next(iter(self._entries))
                del self._entries[oldest]
        self._entries[key] = CachedResult(
            hits=tuple(hits.tolist()) if isinstance(hits, np.ndarray) else tuple(hits),
            rank_version=int(rank_version),
            expires_at=now + self.ttl,
        )

    def invalidate_version(self, rank_version: int) -> int:
        """Eagerly drop every entry older than ``rank_version``.

        Called on a rank refresh so memory is reclaimed immediately
        rather than lazily at next lookup; returns the number dropped
        (counted as invalidations).
        """
        stale = [k for k, e in self._entries.items() if e.rank_version < rank_version]
        for k in stale:
            del self._entries[k]
        self.stats.invalidations += len(stale)
        return len(stale)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        return key in self._entries
