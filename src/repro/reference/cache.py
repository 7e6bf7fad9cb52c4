"""Per-key cache policies — the oracle for :mod:`repro.cache`.

Production takes a query's keys in one ``filter_hits`` / ``admit`` call
per direction, each a fused loop.  These classes state the same four
policies one key at a time: :meth:`get` is one key of ``filter_hits``
(``True`` on a hit), :meth:`put` one key of ``admit``.  A batch must
leave exactly what its keys' calls in key order leave — hits, misses,
the four counters, the resident set and the eviction order, repeated
keys included.  :meth:`resident` lists the resident keys, the next
eviction victim first.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List

from ..cache.lru import CacheStats

#: Share of the segmented LRU's capacity its protected segment may hold.
PROTECTED_FRACTION = 0.8


class LruCache:
    """updateOnRead, not updateOnWrite; evict the least recent key."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.stats = CacheStats()
        self._keys: "OrderedDict[int, None]" = OrderedDict()

    def get(self, key: int) -> bool:
        if key in self._keys:
            self._keys.move_to_end(key)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def put(self, key: int) -> None:
        if key in self._keys:
            return  # updateOnWrite = false: the key keeps its position
        if len(self._keys) >= self.capacity:
            self._keys.popitem(last=False)
            self.stats.evictions += 1
        self._keys[key] = None
        self.stats.inserts += 1

    def resident(self) -> List[int]:
        return list(self._keys)


class FifoCache(LruCache):
    """Reads never reorder: eviction is insertion order."""

    def get(self, key: int) -> bool:
        hit = key in self._keys
        if hit:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        return hit


class LfuCache:
    """Evict the least frequently hit key; ties evict the least recent."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.stats = CacheStats()
        self._order: "OrderedDict[int, None]" = OrderedDict()
        self._freq: Dict[int, int] = {}

    def get(self, key: int) -> bool:
        if key in self._freq:
            self._freq[key] += 1
            self._order.move_to_end(key)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def put(self, key: int) -> None:
        if key in self._freq:
            return
        if len(self._freq) >= self.capacity:
            victim = min(self._order, key=self._freq.__getitem__)
            del self._order[victim]
            del self._freq[victim]
            self.stats.evictions += 1
        self._order[key] = None
        self._freq[key] = 1
        self.stats.inserts += 1

    def resident(self) -> List[int]:
        # sorted is stable: among equal frequencies the least recent leads.
        return sorted(self._order, key=self._freq.__getitem__)


class SegmentedLruCache:
    """New keys enter probation; a hit there promotes to protected, whose
    overflow demotes back; probation evicts."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.stats = CacheStats()
        self._protected_cap = max(1, int(capacity * PROTECTED_FRACTION))
        self._probation: "OrderedDict[int, None]" = OrderedDict()
        self._protected: "OrderedDict[int, None]" = OrderedDict()

    def get(self, key: int) -> bool:
        if key in self._protected:
            self._protected.move_to_end(key)
        elif key in self._probation:
            del self._probation[key]
            self._protected[key] = None
            while len(self._protected) > self._protected_cap:
                demoted, _ = self._protected.popitem(last=False)
                self._probation[demoted] = None
            self._shrink_to_capacity()
        else:
            self.stats.misses += 1
            return False
        self.stats.hits += 1
        return True

    def put(self, key: int) -> None:
        if key in self._protected or key in self._probation:
            return
        self._probation[key] = None
        self.stats.inserts += 1
        self._shrink_to_capacity()

    def _shrink_to_capacity(self) -> None:
        while len(self._probation) + len(self._protected) > self.capacity:
            if self._probation:
                self._probation.popitem(last=False)
            else:
                self._protected.popitem(last=False)
            self.stats.evictions += 1

    def resident(self) -> List[int]:
        return [*self._probation, *self._protected]


ORACLES = {
    "lru": LruCache,
    "fifo": FifoCache,
    "lfu": LfuCache,
    "slru": SegmentedLruCache,
}
