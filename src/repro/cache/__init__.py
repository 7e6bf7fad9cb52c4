"""DRAM embedding cache: a bounded set of resident key ids.

The paper fronts the SSD with Meta's CacheLib configured as an LRU cache
with ``updateOnRead`` (reads refresh recency) but not ``updateOnWrite`` —
the read-intensive configuration.  :class:`LruCache` reproduces those
semantics; :func:`make_cache` sizes a policy as a fraction of the
embedding table (the paper's "cache ratio", default 10 %).

The engine only asks which keys are resident, so every policy is a key
set with one batch surface: ``filter_hits(keys) -> (hits, misses)`` and
``admit(keys)``, entered once per query and direction, plus ``stats``
and ``capacity`` (0 for the disabled :class:`NullCache`).
"""

from .lru import CacheStats, LruCache
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
    "CacheStats",
    "FifoCache",
    "LfuCache",
    "NullCache",
    "SegmentedLruCache",
    "CACHE_POLICIES",
    "make_cache",
]
