"""Embedding-table cache facade.

Sizes an :class:`~repro.cache.lru.LruCache` as a *ratio* of the embedding
table (the paper's cache-ratio knob: 1–40 %, default 10 %) and offers the
bulk filter operation the serving engine needs: split a query's keys into
cache hits and misses, admitting the misses after the SSD serves them —
one call into the policy per direction (``get_many`` / ``put_many``).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Tuple

from ..errors import CacheError
from .lru import CacheStats, LruCache


class EmbeddingCache:
    """Key cache sized as a fraction of the table (LRU by default).

    ``policy`` selects the eviction policy (``lru``, ``fifo``, ``lfu``,
    ``slru`` — see :mod:`repro.cache.policies`); the paper's CacheLib
    configuration corresponds to the default ``lru``.
    """

    def __init__(
        self, num_keys: int, cache_ratio: float, policy: str = "lru"
    ) -> None:
        if num_keys <= 0:
            raise CacheError(f"num_keys must be positive, got {num_keys}")
        if not 0.0 <= cache_ratio <= 1.0:
            raise CacheError(
                f"cache_ratio must be in [0, 1], got {cache_ratio}"
            )
        from .policies import make_cache

        self.num_keys = num_keys
        self.cache_ratio = cache_ratio
        self.policy = policy
        capacity = math.ceil(num_keys * cache_ratio)
        # make_cache returns a NullCache (zeroed, never-counting stats)
        # at capacity 0, so the disabled path is policy-uniform.
        self._cache = make_cache(policy, capacity)

    @property
    def enabled(self) -> bool:
        """False for a zero-ratio (cacheless) configuration."""
        return self._cache.capacity > 0

    @property
    def capacity(self) -> int:
        """Entry capacity (0 when disabled)."""
        return self._cache.capacity

    @property
    def stats(self) -> CacheStats:
        """Underlying policy counters (zeros when disabled)."""
        return self._cache.stats

    def filter_hits(self, keys: Iterable[int]) -> Tuple[List[int], List[int]]:
        """Split ``keys`` into (hits, misses), refreshing recency on hits."""
        return self._cache.get_many(keys)

    def admit(self, keys: Iterable[int]) -> None:
        """Insert keys served from SSD (no-op when disabled)."""
        self._cache.put_many(keys)

    def admit_value(self, key: int, value) -> None:
        """Insert one key with an explicit value (DLRM path)."""
        self._cache.put(key, value)

    def get_value(self, key: int):
        """Value lookup for the DLRM path (None on miss or disabled)."""
        return self._cache.get(key)
