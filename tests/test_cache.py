"""Tests for repro.cache: LRU semantics and the embedding-cache facade."""

import pytest

from repro import CacheError, EmbeddingCache, LruCache


class TestLruCache:
    def test_put_get(self):
        cache = LruCache(2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert "a" in cache
        assert len(cache) == 1

    def test_miss_returns_none(self):
        cache = LruCache(2)
        assert cache.get("missing") is None
        assert cache.stats.misses == 1

    def test_eviction_from_lru_tail(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.stats.evictions == 1

    def test_update_on_read_refreshes_recency(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh: "b" is now LRU
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("b") is None

    def test_no_update_on_write(self):
        # CacheLib's updateOnWrite=false: overwriting does NOT refresh, so
        # the overwritten key is still evicted first.
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # overwrite, recency unchanged
        cache.put("c", 3)  # evicts "a" (still LRU)
        assert cache.get("a") is None
        assert cache.get("b") == 2

    def test_peek_does_not_touch_recency_or_stats(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        before = cache.stats.lookups
        assert cache.peek("a") == 1
        assert cache.stats.lookups == before
        cache.put("c", 3)  # "a" was NOT refreshed: evicted
        assert cache.peek("a") is None

    def test_hit_rate(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        assert cache.stats.hit_rate() == pytest.approx(0.5)

    def test_hit_rate_empty(self):
        assert LruCache(1).stats.hit_rate() == 0.0

    def test_recency_order_exposed(self):
        cache = LruCache(3)
        for key in ("a", "b", "c"):
            cache.put(key, 1)
        cache.get("a")  # recency now b, c, a
        cache.put("d", 1)
        assert "b" not in cache and "c" in cache and "a" in cache
        cache.put("e", 1)
        assert "c" not in cache and "a" in cache
        cache.put("f", 1)
        assert "a" not in cache

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(CacheError):
            LruCache(0)


class TestEmbeddingCache:
    def test_capacity_from_ratio(self):
        cache = EmbeddingCache(num_keys=100, cache_ratio=0.1)
        assert cache.enabled
        assert cache.capacity == 10

    def test_zero_ratio_disables(self):
        cache = EmbeddingCache(num_keys=100, cache_ratio=0.0)
        assert not cache.enabled
        assert cache.capacity == 0
        hits, misses = cache.filter_hits([1, 2, 3])
        assert hits == []
        assert misses == [1, 2, 3]
        cache.admit([1])  # no-op, must not raise
        assert cache.filter_hits([1]) == ([], [1])

    def test_filter_hits_after_admission(self):
        cache = EmbeddingCache(num_keys=10, cache_ratio=0.5)
        cache.admit([1, 2])
        hits, misses = cache.filter_hits([1, 2, 3])
        assert hits == [1, 2]
        assert misses == [3]

    def test_lru_pressure_evicts_cold_keys(self):
        cache = EmbeddingCache(num_keys=10, cache_ratio=0.2)  # capacity 2
        cache.admit([1, 2, 3])  # 1 evicted
        hits, misses = cache.filter_hits([1, 2, 3])
        assert 1 in misses
        assert hits == [2, 3]

    def test_stats_exposed(self):
        cache = EmbeddingCache(num_keys=4, cache_ratio=0.5)
        cache.filter_hits([0])
        assert cache.stats.misses == 1
        disabled = EmbeddingCache(num_keys=4, cache_ratio=0.0)
        assert disabled.stats.lookups == 0

    def test_rejects_bad_args(self):
        with pytest.raises(CacheError):
            EmbeddingCache(num_keys=0, cache_ratio=0.1)
        with pytest.raises(CacheError):
            EmbeddingCache(num_keys=10, cache_ratio=1.5)
