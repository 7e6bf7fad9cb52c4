"""Alternative cache eviction policies.

The paper configures CacheLib as plain LRU (updateOnRead).  CacheLib
itself ships several policies; to let users ask "was LRU the right
choice for embedding serving?" this module provides the common
alternatives behind one interface:

* :class:`FifoCache` — insertion order, reads never promote (CacheLib's
  FIFO mode; cheapest metadata).
* :class:`LfuCache` — evict the least frequently used entry (frequency
  counted over the entry's residency).
* :class:`SegmentedLruCache` — two-segment LRU (CacheLib's "2q-ish" LRU
  variant): new keys enter a probationary segment; a hit promotes to the
  protected segment, which evicts back into probation.  Scan-resistant.

All policies extend :class:`~repro.cache.lru.CachePolicy` — per-key
``get``/``put`` plus ``stats``/``capacity`` and the batch surface
``get_many``/``put_many``, here the base class's loops over ``get`` and
``put`` — so :class:`~repro.cache.embedding_cache.EmbeddingCache` and
the serving engine can swap them freely.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, Optional, TypeVar

from ..errors import CacheError
from .lru import CachePolicy, CacheStats, LruCache

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class FifoCache(CachePolicy[K, V]):
    """Bounded FIFO mapping: eviction order is pure insertion order."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._items: "OrderedDict[K, V]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: K) -> bool:
        return key in self._items

    def get(self, key: K) -> Optional[V]:
        """Return the cached value or None; reads never reorder."""
        if key in self._items:
            self.stats.hits += 1
            return self._items[key]
        self.stats.misses += 1
        return None

    def peek(self, key: K) -> Optional[V]:
        """Value without stats."""
        return self._items.get(key)

    def put(self, key: K, value: V) -> None:
        """Insert (evicting the oldest) or overwrite in place."""
        if key in self._items:
            self._items[key] = value
            return
        if len(self._items) >= self._capacity:
            self._items.popitem(last=False)
            self.stats.evictions += 1
        self._items[key] = value
        self.stats.inserts += 1


class LfuCache(CachePolicy[K, V]):
    """Bounded LFU mapping: evict the least-frequently-used entry.

    Frequency counts reset on eviction (no ghost history).  Ties evict
    the least recently used among the minimum-frequency entries.
    """

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._items: "OrderedDict[K, V]" = OrderedDict()
        self._freq: Dict[K, int] = {}

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: K) -> bool:
        return key in self._items

    def get(self, key: K) -> Optional[V]:
        """Return the cached value or None; hits bump frequency."""
        if key in self._items:
            self._freq[key] += 1
            self._items.move_to_end(key)  # recency for tie-breaks
            self.stats.hits += 1
            return self._items[key]
        self.stats.misses += 1
        return None

    def peek(self, key: K) -> Optional[V]:
        """Value without stats or frequency bump."""
        return self._items.get(key)

    def _evict_one(self) -> None:
        victim = min(self._items, key=lambda k: self._freq[k])
        del self._items[victim]
        del self._freq[victim]
        self.stats.evictions += 1

    def put(self, key: K, value: V) -> None:
        """Insert (evicting the coldest) or overwrite in place."""
        if key in self._items:
            self._items[key] = value
            return
        if len(self._items) >= self._capacity:
            self._evict_one()
        self._items[key] = value
        self._freq[key] = 1
        self.stats.inserts += 1


class SegmentedLruCache(CachePolicy[K, V]):
    """Two-segment LRU: probation for new keys, protection for re-hits."""

    def __init__(self, capacity: int, protected_fraction: float = 0.8) -> None:
        super().__init__(capacity)
        if not 0.0 < protected_fraction < 1.0:
            raise CacheError(
                f"protected_fraction must be in (0, 1), got "
                f"{protected_fraction}"
            )
        self._protected_cap = max(1, int(capacity * protected_fraction))
        self._probation: "OrderedDict[K, V]" = OrderedDict()
        self._protected: "OrderedDict[K, V]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._probation) + len(self._protected)

    def __contains__(self, key: K) -> bool:
        return key in self._probation or key in self._protected

    def get(self, key: K) -> Optional[V]:
        """Return the cached value or None; a probation hit promotes."""
        if key in self._protected:
            self._protected.move_to_end(key)
            self.stats.hits += 1
            return self._protected[key]
        if key in self._probation:
            value = self._probation.pop(key)
            self._promote(key, value)
            self.stats.hits += 1
            return value
        self.stats.misses += 1
        return None

    def peek(self, key: K) -> Optional[V]:
        """Value without stats or promotion."""
        if key in self._protected:
            return self._protected[key]
        return self._probation.get(key)

    def _promote(self, key: K, value: V) -> None:
        self._protected[key] = value
        while len(self._protected) > self._protected_cap:
            demoted_key, demoted_value = self._protected.popitem(last=False)
            self._probation[demoted_key] = demoted_value
        self._shrink_to_capacity()

    def _shrink_to_capacity(self) -> None:
        while len(self) > self._capacity:
            if self._probation:
                self._probation.popitem(last=False)
            else:  # pragma: no cover - probation refilled by demotion
                self._protected.popitem(last=False)
            self.stats.evictions += 1

    def put(self, key: K, value: V) -> None:
        """Insert into probation (or overwrite wherever the key lives)."""
        if key in self._protected:
            self._protected[key] = value
            return
        if key in self._probation:
            self._probation[key] = value
            return
        self._probation[key] = value
        self.stats.inserts += 1
        self._shrink_to_capacity()


class NullCache(CachePolicy[K, V]):
    """The disabled (zero-capacity) cache: never stores, never counts.

    A ``cache_ratio=0`` configuration must report zeroed
    :class:`CacheStats` regardless of policy — the historical LRU-only
    disabled path returned fresh zero counters, so lookups against a
    disabled cache are *not* misses.  Centralizing that contract here
    makes it uniform across all four policies.
    """

    def __init__(self) -> None:
        self._capacity = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        return 0

    def __contains__(self, key: K) -> bool:
        return False

    def get(self, key: K) -> Optional[V]:
        """Always None; does NOT count a miss (the cache is disabled)."""
        return None

    def peek(self, key: K) -> Optional[V]:
        """Always None."""
        return None

    def put(self, key: K, value: V) -> None:
        """Dropped."""

    def get_many(self, keys):
        """Every key is an uncounted miss."""
        return [], list(keys)

    def put_many(self, keys, value=True) -> None:
        """Dropped."""


CACHE_POLICIES = {
    "lru": LruCache,
    "fifo": FifoCache,
    "lfu": LfuCache,
    "slru": SegmentedLruCache,
}


def make_cache(policy: str, capacity: int):
    """Instantiate a cache by policy name (``lru``/``fifo``/``lfu``/``slru``).

    ``capacity <= 0`` returns a :class:`NullCache` (after the policy name
    is validated), so every policy shares the same disabled semantics:
    zeroed stats, lookups uncounted.
    """
    try:
        factory = CACHE_POLICIES[policy]
    except KeyError:
        raise CacheError(
            f"unknown cache policy {policy!r}; "
            f"available: {sorted(CACHE_POLICIES)}"
        )
    if capacity <= 0:
        return NullCache()
    return factory(capacity)
