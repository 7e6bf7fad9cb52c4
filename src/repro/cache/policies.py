"""Alternative eviction policies, the disabled cache and the factory.

The paper configures CacheLib as plain LRU; these are the common
alternatives CacheLib ships, behind the same surface, for the policy
ablation:

* :class:`FifoCache` — insertion order, reads never promote.
* :class:`LfuCache` — evict the least frequently hit key.
* :class:`SegmentedLruCache` — new keys enter a probationary segment; a
  hit promotes to the protected segment, which evicts back into
  probation.  Scan-resistant.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Iterable, List, Tuple

from ..errors import CacheError
from .lru import CacheStats, LruCache, checked_capacity


class FifoCache(LruCache):
    """LRU without updateOnRead: reads never reorder, so eviction is pure
    insertion order."""

    def filter_hits(self, keys: Iterable[int]) -> Tuple[List[int], List[int]]:
        """Split ``keys`` into (hits, misses); nothing moves."""
        resident = self._keys
        hits: List[int] = []
        misses: List[int] = []
        for key in keys:
            (hits if key in resident else misses).append(key)
        self.stats.hits += len(hits)
        self.stats.misses += len(misses)
        return hits, misses


class LfuCache:
    """Bounded LFU key set.  Frequencies reset on eviction (no ghost
    history); ties evict the least recently used."""

    def __init__(self, capacity: int) -> None:
        self.capacity = checked_capacity(capacity)
        self.stats = CacheStats()
        # Key -> lookups hit since admission + 1, in recency order.
        self._freq: "OrderedDict[int, int]" = OrderedDict()

    def filter_hits(self, keys: Iterable[int]) -> Tuple[List[int], List[int]]:
        """Split ``keys`` into (hits, misses); a hit bumps its frequency
        and recency."""
        freq = self._freq
        move_to_end = freq.move_to_end
        hits: List[int] = []
        misses: List[int] = []
        for key in keys:
            if key in freq:
                freq[key] += 1
                move_to_end(key)
                hits.append(key)
            else:
                misses.append(key)
        self.stats.hits += len(hits)
        self.stats.misses += len(misses)
        return hits, misses

    def admit(self, keys: Iterable[int]) -> None:
        """Insert the keys not resident at frequency 1, evicting the
        coldest when full; a resident key keeps its frequency."""
        freq = self._freq
        capacity = self.capacity
        inserts = evictions = 0
        for key in keys:
            if key not in freq:
                if len(freq) >= capacity:
                    del freq[min(freq, key=freq.__getitem__)]
                    evictions += 1
                freq[key] = 1
                inserts += 1
        self.stats.inserts += inserts
        self.stats.evictions += evictions


#: Share of a segmented LRU's capacity the protected segment may hold.
PROTECTED_FRACTION = 0.8


class SegmentedLruCache:
    """Two-segment LRU: probation for new keys, protection for re-hits."""

    def __init__(self, capacity: int) -> None:
        self.capacity = checked_capacity(capacity)
        self.stats = CacheStats()
        self._protected_cap = max(1, int(capacity * PROTECTED_FRACTION))
        self._probation: "OrderedDict[int, None]" = OrderedDict()
        self._protected: "OrderedDict[int, None]" = OrderedDict()

    def filter_hits(self, keys: Iterable[int]) -> Tuple[List[int], List[int]]:
        """Split ``keys`` into (hits, misses).  A protected hit refreshes
        its recency; a probation hit moves to the protected segment,
        whose least recent key, if over its share, drops back to
        probation."""
        probation, protected = self._probation, self._protected
        protected_cap = self._protected_cap
        hits: List[int] = []
        misses: List[int] = []
        for key in keys:
            if key in protected:
                protected.move_to_end(key)
            elif key in probation:
                del probation[key]
                protected[key] = None
                if len(protected) > protected_cap:
                    probation[protected.popitem(last=False)[0]] = None
            else:
                misses.append(key)
                continue
            hits.append(key)
        self.stats.hits += len(hits)
        self.stats.misses += len(misses)
        return hits, misses

    def admit(self, keys: Iterable[int]) -> None:
        """Insert the keys not resident into probation, evicting its least
        recent key when the cache is over capacity."""
        probation, protected = self._probation, self._protected
        capacity = self.capacity
        inserts = evictions = 0
        for key in keys:
            if key not in probation and key not in protected:
                probation[key] = None
                inserts += 1
                if len(probation) + len(protected) > capacity:
                    probation.popitem(last=False)
                    evictions += 1
        self.stats.inserts += inserts
        self.stats.evictions += evictions


class NullCache:
    """The disabled (zero-capacity) cache of every policy: never stores,
    never counts — its lookups are *not* misses."""

    capacity = 0

    def __init__(self) -> None:
        self.stats = CacheStats()

    def filter_hits(self, keys: Iterable[int]) -> Tuple[List[int], List[int]]:
        """Every key is an uncounted miss."""
        return [], list(keys)

    def admit(self, keys: Iterable[int]) -> None:
        """Dropped."""


CACHE_POLICIES = {
    "lru": LruCache,
    "fifo": FifoCache,
    "lfu": LfuCache,
    "slru": SegmentedLruCache,
}


def make_cache(policy: str, num_keys: int, cache_ratio: float):
    """The ``policy`` cache (``lru``/``fifo``/``lfu``/``slru``) holding
    ``ceil(num_keys * cache_ratio)`` keys of a ``num_keys`` table — the
    paper's cache ratio, 1–40 %, default 10 %.

    A zero capacity gives a :class:`NullCache` (after the policy name is
    checked), so every policy shares the same disabled semantics.
    """
    if policy not in CACHE_POLICIES:
        raise CacheError(
            f"unknown cache policy {policy!r}; "
            f"available: {sorted(CACHE_POLICIES)}"
        )
    if num_keys <= 0:
        raise CacheError(f"num_keys must be positive, got {num_keys}")
    if not 0.0 <= cache_ratio <= 1.0:
        raise CacheError(f"cache_ratio must be in [0, 1], got {cache_ratio}")
    capacity = math.ceil(num_keys * cache_ratio)
    return CACHE_POLICIES[policy](capacity) if capacity else NullCache()
