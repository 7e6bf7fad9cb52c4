"""Tests for repro.cache.policies: FIFO, LFU, segmented LRU."""

import hashlib
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import (
    CacheError,
    EmbeddingCache,
    EngineConfig,
    PageLayout,
    Query,
    ServingEngine,
)
from repro.cache import (
    CACHE_POLICIES,
    FifoCache,
    LfuCache,
    SegmentedLruCache,
    make_cache,
)


class TestFifo:
    def test_eviction_by_insertion_order(self):
        cache = FifoCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # a read must NOT save "a"
        cache.put("c", 3)
        assert cache.get("a") is None
        assert cache.get("b") == 2

    def test_overwrite_keeps_position(self):
        cache = FifoCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        cache.put("c", 3)  # evicts "a" (oldest insertion)
        assert cache.peek("a") is None
        assert cache.peek("b") == 2

    def test_stats(self):
        cache = FifoCache(1)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        cache.put("b", 2)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.evictions == 1
        assert len(cache) == 1
        assert "b" in cache

    def test_rejects_bad_capacity(self):
        with pytest.raises(CacheError):
            FifoCache(0)


class TestLfu:
    def test_evicts_least_frequent(self):
        cache = LfuCache(2)
        cache.put("hot", 1)
        cache.put("cold", 2)
        cache.get("hot")
        cache.get("hot")
        cache.put("new", 3)  # evicts "cold" (freq 0 hits)
        assert cache.peek("cold") is None
        assert cache.peek("hot") == 1
        assert cache.peek("new") == 3

    def test_tie_breaks_by_recency(self):
        cache = LfuCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.get("b")  # equal freq; "a" is least recent
        cache.put("c", 3)
        assert cache.peek("a") is None
        assert cache.peek("b") == 2

    def test_overwrite_keeps_frequency(self):
        cache = LfuCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.put("a", 9)
        cache.put("b", 2)
        cache.put("c", 3)  # b has freq 1 (insert), a has 2
        assert cache.peek("a") == 9

    def test_rejects_bad_capacity(self):
        with pytest.raises(CacheError):
            LfuCache(-1)


class TestSegmentedLru:
    def test_new_keys_probationary(self):
        cache = SegmentedLruCache(4, protected_fraction=0.5)
        for key in "abcd":
            cache.put(key, key)
        cache.put("e", "e")  # evicts "a" from probation
        assert cache.peek("a") is None
        assert len(cache) == 4

    def test_hit_promotes_and_survives_scan(self):
        cache = SegmentedLruCache(4, protected_fraction=0.5)
        cache.put("hot", 1)
        assert cache.get("hot") == 1  # promoted to protected
        for key in "wxyz":
            cache.put(key, key)  # scan floods probation
        assert cache.peek("hot") == 1  # protected survived the scan

    def test_protected_overflow_demotes(self):
        cache = SegmentedLruCache(4, protected_fraction=0.5)  # protected cap 2
        for key in "abc":
            cache.put(key, key)
            cache.get(key)  # promote each
        # Protected holds 2; "a" was demoted back to probation.
        assert cache.peek("a") == "a"
        assert len(cache) == 3

    def test_capacity_enforced(self):
        cache = SegmentedLruCache(3)
        for key in "abcdef":
            cache.put(key, key)
            cache.get(key)
        assert len(cache) <= 3

    def test_overwrite_in_place(self):
        cache = SegmentedLruCache(3)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.peek("a") == 2
        cache.get("a")
        cache.put("a", 3)  # now protected
        assert cache.peek("a") == 3

    def test_contains_and_stats(self):
        cache = SegmentedLruCache(2)
        cache.put("a", 1)
        assert "a" in cache
        cache.get("a")
        cache.get("zz")
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_rejects_bad_args(self):
        with pytest.raises(CacheError):
            SegmentedLruCache(0)
        with pytest.raises(CacheError):
            SegmentedLruCache(4, protected_fraction=1.0)


class TestPolicyRegistry:
    def test_all_policies_constructible(self):
        for name in CACHE_POLICIES:
            cache = make_cache(name, 4)
            cache.put(1, "x")
            assert cache.get(1) == "x"

    def test_unknown_policy(self):
        with pytest.raises(CacheError):
            make_cache("belady", 4)

    def test_embedding_cache_accepts_policy(self):
        cache = EmbeddingCache(num_keys=10, cache_ratio=0.5, policy="lfu")
        cache.admit([1, 2])
        hits, misses = cache.filter_hits([1, 3])
        assert hits == [1]
        assert misses == [3]

    def test_engine_accepts_policy(self, shp_layout_small, criteo_small):
        _, live = criteo_small
        engine = ServingEngine(
            shp_layout_small,
            EngineConfig(cache_ratio=0.1, cache_policy="slru"),
        )
        report = engine.serve_trace(list(live)[:50])
        assert report.num_queries == 50


# -- batch surface: get_many / put_many vs. per-key get / put -----------------

NUM_KEYS = 8  # capacities 0, 1, 2, 7 are exact binary ratios of it
batches = st.lists(st.integers(0, 9), max_size=6)  # repeats, may be empty
operations = st.lists(
    st.tuples(st.booleans(), st.booleans(), batches), max_size=24
)


def counters(stats):
    return (stats.hits, stats.misses, stats.evictions, stats.inserts)


def members(policy):
    return [key for key in range(10) if key in policy]


@pytest.mark.parametrize("capacity", [0, 1, 2, 7])
@pytest.mark.parametrize("policy", sorted(CACHE_POLICIES))
@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_batch_calls_equal_per_key_calls(policy, capacity, ops):
    """``filter_hits`` / ``admit`` leave what key-by-key ``get`` / ``put`` do.

    One ``EmbeddingCache`` takes each batch in one call (through the
    facade, or ``direct``ly on its policy); its twin takes the same keys
    one at a time.  Every reply, all four counters, the membership and —
    drained with fresh keys — the eviction order agree.
    """
    cache = EmbeddingCache(NUM_KEYS, capacity / NUM_KEYS, policy)
    assert cache.capacity == capacity
    batched, twin = cache._cache, make_cache(policy, capacity)
    for lookup, direct, keys in ops:
        if lookup:
            hits, misses = [], []
            for key in keys:
                (misses if twin.get(key) is None else hits).append(key)
            filter_hits = batched.get_many if direct else cache.filter_hits
            assert filter_hits(keys) == (hits, misses)
        else:
            (batched.put_many if direct else cache.admit)(keys)
            for key in keys:
                twin.put(key, True)
        assert counters(cache.stats) == counters(twin.stats)
    assert members(batched) == members(twin)
    for fresh in range(100, 100 + capacity):
        batched.put(fresh, True)
        twin.put(fresh, True)
        assert members(batched) == members(twin)
    assert counters(cache.stats) == counters(twin.stats)


@pytest.mark.parametrize("ratio", [0.0, 0.5])
@pytest.mark.parametrize("policy", sorted(CACHE_POLICIES))
def test_embedding_cache_enters_the_policy_once_per_call(policy, ratio):
    cache = EmbeddingCache(NUM_KEYS, ratio, policy)
    inner, entered = cache._cache, []
    get_many, put_many = inner.get_many, inner.put_many
    inner.get_many = lambda keys: (entered.append("get"), get_many(keys))[1]
    inner.put_many = lambda keys: (entered.append("put"), put_many(keys))[1]
    cache.admit([1, 2, 2, 3])
    expected = ([3, 3], [9]) if ratio else ([], [3, 9, 3])
    assert cache.filter_hits([3, 9, 3]) == expected
    assert entered == ["put", "get"]


def test_serve_trace_pinned_against_parent():
    """A seeded 300-query trace serves to the digit as before the batch calls.

    The three numbers were read at the parent commit (per-key cache
    calls, frozen records); layout and trace use only ``Random.random``,
    whose stream is the same on every supported interpreter.
    """
    rng = random.Random(22)
    num_keys, capacity = 96, 4
    pages = [
        tuple(range(p * capacity, (p + 1) * capacity))
        for p in range(num_keys // capacity)
    ]
    for _ in range(8):  # replica pages over the hot (low-numbered) keys
        hot = {int(32 * rng.random() ** 2) for _ in range(capacity)}
        pages.append(tuple(sorted(hot)))
    layout = PageLayout(num_keys=num_keys, capacity=capacity, pages=pages)
    queries = [
        Query(
            tuple(
                int(num_keys * rng.random() ** 2)
                for _ in range(3 + int(10 * rng.random()))
            )
        )
        for _ in range(300)
    ]
    engine = ServingEngine(layout, EngineConfig(cache_ratio=0.10, threads=4))
    finishes = []
    serve_query = engine.serve_query

    def recording(query, start_us=0.0, degrade=None):
        result = serve_query(query, start_us, degrade)
        finishes.append(result.finish_us.hex())
        return result

    engine.serve_query = recording
    report = engine.serve_trace(queries)
    digest = hashlib.sha256(" ".join(finishes).encode()).hexdigest()
    assert len(finishes) == 300
    assert report.cache_hit_rate().hex() == "0x1.3dc23dc23dc24p-3"  # 0.1552
    assert report.total_pages_read == 1495
    assert digest == (
        "ff3521f4aa1d81abbe27032894e029fe96b16c842de40cb2bf578ff959ff3237"
    )
