"""LRU cache with CacheLib-style read-intensive semantics.

* ``get`` on a hit refreshes recency (**updateOnRead = true**).
* ``put`` on an existing key overwrites the value but does **not** refresh
  recency (**updateOnWrite = false**) — the CacheLib configuration the
  paper uses (§8.1).
* Insertion of a new key evicts from the LRU tail when full.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Generic, Hashable, Iterable, List, Optional, Tuple, TypeVar

from ..errors import CacheError

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


@dataclass
class CacheStats:
    """Hit/miss/eviction counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    inserts: int = 0

    @property
    def lookups(self) -> int:
        """Total get() calls."""
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0


class CachePolicy(Generic[K, V]):
    """Base of the eviction policies: capacity, counters, batch surface.

    A policy supplies per-key ``get`` / ``put`` (``None`` is ``get``'s
    miss, so values are never ``None``).  The batch methods mean exactly
    those calls in key order — same hits, recency, evictions, counters,
    repeated keys included — and are overridden only to go faster.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise CacheError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self.stats = CacheStats()

    @property
    def capacity(self) -> int:
        """Maximum number of entries."""
        return self._capacity

    def get_many(self, keys: Iterable[K]) -> Tuple[List[K], List[K]]:
        """Look every key up; ``(hits, misses)``, each in key order."""
        hits: List[K] = []
        misses: List[K] = []
        get = self.get
        for key in keys:
            (misses if get(key) is None else hits).append(key)
        return hits, misses

    def put_many(self, keys: Iterable[K], value: V = True) -> None:
        """Insert every key with ``value``, in key order."""
        put = self.put
        for key in keys:
            put(key, value)


class LruCache(CachePolicy[K, V]):
    """Bounded LRU mapping with updateOnRead / no-updateOnWrite semantics."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._items: "OrderedDict[K, V]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: K) -> bool:
        return key in self._items

    def get(self, key: K) -> Optional[V]:
        """Return the cached value or None; hits refresh recency."""
        if key in self._items:
            self._items.move_to_end(key)
            self.stats.hits += 1
            return self._items[key]
        self.stats.misses += 1
        return None

    def peek(self, key: K) -> Optional[V]:
        """Return the cached value without touching recency or stats."""
        return self._items.get(key)

    def put(self, key: K, value: V) -> None:
        """Insert or overwrite; only *new* keys change recency order."""
        if key in self._items:
            self._items[key] = value  # updateOnWrite=false: keep position
            return
        if len(self._items) >= self._capacity:
            self._items.popitem(last=False)
            self.stats.evictions += 1
        self._items[key] = value
        self.stats.inserts += 1

    def get_many(self, keys: Iterable[K]) -> Tuple[List[K], List[K]]:
        """``get`` per key, fused: one pass on locals, counters added once."""
        items = self._items
        move_to_end = items.move_to_end
        hits: List[K] = []
        misses: List[K] = []
        for key in keys:
            if key in items:
                move_to_end(key)
                hits.append(key)
            else:
                misses.append(key)
        self.stats.hits += len(hits)
        self.stats.misses += len(misses)
        return hits, misses

    def put_many(self, keys: Iterable[K], value: V = True) -> None:
        """``put`` per key, fused: one pass on locals, counters added once."""
        items = self._items
        capacity = self._capacity
        popitem = items.popitem
        inserts = evictions = 0
        for key in keys:
            if key not in items:
                if len(items) >= capacity:
                    popitem(last=False)
                    evictions += 1
                inserts += 1
            items[key] = value  # an existing key keeps its position
        self.stats.inserts += inserts
        self.stats.evictions += evictions

    def evict_all(self) -> None:
        """Empty the cache (counters retained)."""
        self._items.clear()

    def keys_in_recency_order(self):
        """Keys from least- to most-recently used (for tests/debugging)."""
        return list(self._items.keys())
