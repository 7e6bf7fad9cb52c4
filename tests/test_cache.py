"""Tests for repro.cache: LRU semantics and the table-sized embedding cache."""

import pytest

from repro import CacheError, LruCache, make_cache


class TestLruCache:
    def test_put_get(self):
        cache = LruCache(2)
        cache.admit(["a"])
        assert cache.filter_hits(["a"]) == (["a"], [])
        assert cache.stats.inserts == 1

    def test_miss_returns_none(self):
        cache = LruCache(2)
        assert cache.filter_hits(["missing"]) == ([], ["missing"])
        assert cache.stats.misses == 1

    def test_eviction_from_lru_tail(self):
        cache = LruCache(2)
        cache.admit(["a", "b", "c"])  # evicts "a"
        assert cache.filter_hits(["a", "b"]) == (["b"], ["a"])
        assert cache.stats.evictions == 1

    def test_update_on_read_refreshes_recency(self):
        cache = LruCache(2)
        cache.admit(["a", "b"])
        cache.filter_hits(["a"])  # refresh: "b" is now LRU
        cache.admit(["c"])
        assert cache.filter_hits(["a", "b"]) == (["a"], ["b"])

    def test_no_update_on_write(self):
        # CacheLib's updateOnWrite=false: re-admitting does NOT refresh,
        # so the re-admitted key is still evicted first.
        cache = LruCache(2)
        cache.admit(["a", "b", "a"])  # "a" again: recency unchanged
        assert cache.stats.inserts == 2
        cache.admit(["c"])  # evicts "a" (still LRU)
        assert cache.filter_hits(["a", "b"]) == (["b"], ["a"])

    def test_hit_rate(self):
        cache = LruCache(2)
        cache.admit(["a"])
        cache.filter_hits(["a", "b"])
        assert cache.stats.hit_rate() == pytest.approx(0.5)

    def test_hit_rate_empty(self):
        assert LruCache(1).stats.hit_rate() == 0.0

    def test_recency_order_exposed(self):
        cache = LruCache(3)
        cache.admit(["a", "b", "c"])
        cache.filter_hits(["a"])  # recency now b, c, a
        cache.admit(["d"])  # evicts b
        cache.admit(["e"])  # evicts c
        assert cache.stats.evictions == 2
        assert cache.filter_hits(["b", "c", "a"]) == (["a"], ["b", "c"])
        cache.admit(["f", "g"])  # recency d, e, a: evicts d, e
        assert cache.filter_hits(["a", "d", "e"]) == (["a"], ["d", "e"])

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(CacheError):
            LruCache(0)


class TestEmbeddingCache:
    """The cache ``make_cache`` sizes as a share of the embedding table."""

    def test_capacity_from_ratio(self):
        cache = make_cache("lru", num_keys=100, cache_ratio=0.1)
        assert isinstance(cache, LruCache)
        assert cache.capacity == 10

    def test_zero_ratio_disables(self):
        cache = make_cache("lru", num_keys=100, cache_ratio=0.0)
        assert cache.capacity == 0
        hits, misses = cache.filter_hits([1, 2, 3])
        assert hits == []
        assert misses == [1, 2, 3]
        cache.admit([1])  # no-op, must not raise
        assert cache.filter_hits([1]) == ([], [1])

    def test_filter_hits_after_admission(self):
        cache = make_cache("lru", num_keys=10, cache_ratio=0.5)
        cache.admit([1, 2])
        hits, misses = cache.filter_hits([1, 2, 3])
        assert hits == [1, 2]
        assert misses == [3]

    def test_lru_pressure_evicts_cold_keys(self):
        cache = make_cache("lru", num_keys=10, cache_ratio=0.2)  # capacity 2
        cache.admit([1, 2, 3])  # 1 evicted
        hits, misses = cache.filter_hits([1, 2, 3])
        assert 1 in misses
        assert hits == [2, 3]

    def test_stats_exposed(self):
        cache = make_cache("lru", num_keys=4, cache_ratio=0.5)
        cache.filter_hits([0])
        assert cache.stats.misses == 1
        disabled = make_cache("lru", num_keys=4, cache_ratio=0.0)
        disabled.filter_hits([0])
        assert (disabled.stats.hits, disabled.stats.misses) == (0, 0)

    def test_rejects_bad_args(self):
        with pytest.raises(CacheError):
            make_cache("lru", num_keys=0, cache_ratio=0.1)
        with pytest.raises(CacheError):
            make_cache("lru", num_keys=10, cache_ratio=1.5)
