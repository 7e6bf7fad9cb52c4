"""LRU key set with CacheLib's read-intensive semantics (§8.1): a hit
refreshes recency (**updateOnRead**), re-admitting a resident key does
not (**no updateOnWrite**), a new key evicts the least recent when full.

Each batch call means its per-key steps in key order, repeated keys
included; ``repro.reference.cache`` states them one key at a time.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, List, Tuple

from ..errors import CacheError


@dataclass
class CacheStats:
    """Hit/miss/eviction counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    inserts: int = 0

    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when unused)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


def checked_capacity(capacity: int) -> int:
    """``capacity`` if positive; a :class:`CacheError` otherwise."""
    if capacity <= 0:
        raise CacheError(f"capacity must be positive, got {capacity}")
    return capacity


class LruCache:
    """Bounded LRU key set with updateOnRead / no-updateOnWrite semantics."""

    def __init__(self, capacity: int) -> None:
        self.capacity = checked_capacity(capacity)
        self.stats = CacheStats()
        self._keys: "OrderedDict[int, None]" = OrderedDict()

    def filter_hits(self, keys: Iterable[int]) -> Tuple[List[int], List[int]]:
        """Split ``keys`` into (hits, misses), each in key order; a hit
        moves to the most recent end."""
        resident = self._keys
        move_to_end = resident.move_to_end
        hits: List[int] = []
        misses: List[int] = []
        for key in keys:
            if key in resident:
                move_to_end(key)
                hits.append(key)
            else:
                misses.append(key)
        self.stats.hits += len(hits)
        self.stats.misses += len(misses)
        return hits, misses

    def admit(self, keys: Iterable[int]) -> None:
        """Insert the keys not resident, evicting the least recent when
        full; a resident key keeps its position."""
        resident = self._keys
        capacity = self.capacity
        popitem = resident.popitem
        inserts = evictions = 0
        for key in keys:
            if key not in resident:
                if len(resident) >= capacity:
                    popitem(last=False)
                    evictions += 1
                resident[key] = None
                inserts += 1
        self.stats.inserts += inserts
        self.stats.evictions += evictions
