"""DRAM embedding cache substrate.

The paper fronts the SSD with Meta's CacheLib configured as an LRU cache
with ``updateOnRead`` (reads refresh recency) but not ``updateOnWrite`` —
the read-intensive configuration.  :class:`LruCache` reproduces those
semantics; :class:`EmbeddingCache` sizes it as a fraction of the embedding
table (the paper's "cache ratio", default 10 %).

Every policy extends :class:`CachePolicy`: per-key ``get`` / ``put`` are
the primitive; ``get_many(keys) -> (hits, misses)`` / ``put_many(keys)``
mean those calls in key order and are what ``EmbeddingCache.filter_hits``
/ ``admit`` enter once per query (:class:`LruCache` fuses them).
"""

from .lru import CachePolicy, CacheStats, LruCache
from .embedding_cache import EmbeddingCache
from .policies import (
    CACHE_POLICIES,
    FifoCache,
    LfuCache,
    NullCache,
    SegmentedLruCache,
    make_cache,
)

__all__ = [
    "LruCache",
    "CachePolicy",
    "CacheStats",
    "EmbeddingCache",
    "FifoCache",
    "LfuCache",
    "NullCache",
    "SegmentedLruCache",
    "CACHE_POLICIES",
    "make_cache",
]
