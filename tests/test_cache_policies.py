"""Tests for repro.cache.policies: FIFO, LFU, segmented LRU, and every
policy's batch calls against the per-key oracle in repro.reference."""

import hashlib
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import (
    CacheError,
    EngineConfig,
    PageLayout,
    Query,
    ServingEngine,
)
from repro.cache import (
    CACHE_POLICIES,
    FifoCache,
    LfuCache,
    NullCache,
    SegmentedLruCache,
    make_cache,
)
from repro.reference.cache import ORACLES


def resident(cache):
    """The keys ``cache`` holds, next victim first, as the oracle's
    ``resident()`` lists them (read off each policy's own structures)."""
    if isinstance(cache, NullCache):
        return []
    if isinstance(cache, LfuCache):
        return sorted(cache._freq, key=cache._freq.__getitem__)
    if isinstance(cache, SegmentedLruCache):
        return [*cache._probation, *cache._protected]
    return list(cache._keys)


def held(cache):
    """How many keys ``cache`` holds, from its counters alone."""
    return cache.stats.inserts - cache.stats.evictions


class TestFifo:
    def test_eviction_by_insertion_order(self):
        cache = FifoCache(2)
        cache.admit(["a", "b"])
        cache.filter_hits(["a"])  # a read must NOT save "a"
        cache.admit(["c"])
        assert cache.filter_hits(["a", "b"]) == (["b"], ["a"])

    def test_overwrite_keeps_position(self):
        cache = FifoCache(2)
        cache.admit(["a", "b", "a"])  # "a" again keeps its place
        cache.admit(["c"])  # evicts "a" (oldest insertion)
        assert cache.filter_hits(["a", "b"]) == (["b"], ["a"])

    def test_stats(self):
        cache = FifoCache(1)
        cache.admit(["a"])
        cache.filter_hits(["a", "b"])
        cache.admit(["b"])
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.evictions == 1
        assert held(cache) == 1
        assert resident(cache) == ["b"]

    def test_rejects_bad_capacity(self):
        with pytest.raises(CacheError):
            FifoCache(0)


class TestLfu:
    def test_evicts_least_frequent(self):
        cache = LfuCache(2)
        cache.admit(["hot", "cold"])
        cache.filter_hits(["hot", "hot"])
        cache.admit(["new"])  # evicts "cold" (freq 0 hits)
        hits, misses = cache.filter_hits(["cold", "hot", "new"])
        assert (hits, misses) == (["hot", "new"], ["cold"])

    def test_tie_breaks_by_recency(self):
        cache = LfuCache(2)
        cache.admit(["a", "b"])
        cache.filter_hits(["a", "b"])  # equal freq; "a" is least recent
        cache.admit(["c"])
        assert cache.filter_hits(["a", "b"]) == (["b"], ["a"])

    def test_overwrite_keeps_frequency(self):
        cache = LfuCache(2)
        cache.admit(["a"])
        cache.filter_hits(["a"])
        cache.admit(["a", "b"])  # "a" keeps frequency 2
        cache.admit(["c"])  # evicts "b" (frequency 1)
        assert cache.filter_hits(["a", "b"]) == (["a"], ["b"])

    def test_rejects_bad_capacity(self):
        with pytest.raises(CacheError):
            LfuCache(-1)


class TestSegmentedLru:
    # Capacity 4 protects int(0.8 * 4) = 3 keys, capacity 3 protects 2.

    def test_new_keys_probationary(self):
        cache = SegmentedLruCache(4)
        cache.admit("abcd")
        cache.admit(["e"])  # evicts "a" from probation
        assert resident(cache) == ["b", "c", "d", "e"]
        assert held(cache) == 4

    def test_hit_promotes_and_survives_scan(self):
        cache = SegmentedLruCache(4)
        cache.admit(["hot"])
        assert cache.filter_hits(["hot"]) == (["hot"], [])  # promoted
        cache.admit("wxyz")  # the scan floods probation
        assert cache.filter_hits(["hot"]) == (["hot"], [])
        assert cache.stats.evictions == 1  # "w", not "hot"

    def test_protected_overflow_demotes(self):
        cache = SegmentedLruCache(4)
        for key in "abcd":
            cache.admit([key])
            cache.filter_hits([key])  # promote each
        # Protected holds 3; "a" was demoted back to probation.
        assert resident(cache) == ["a", "b", "c", "d"]
        cache.admit(["e"])  # "a" is probation's oldest: the victim
        assert cache.filter_hits("abcde") == (list("bcde"), ["a"])

    def test_capacity_enforced(self):
        cache = SegmentedLruCache(3)
        for key in "abcdef":
            cache.admit([key])
            cache.filter_hits([key])
            assert held(cache) <= 3

    def test_overwrite_in_place(self):
        cache = SegmentedLruCache(3)
        cache.admit(["a", "a"])
        assert cache.stats.inserts == 1
        cache.filter_hits(["a"])  # now protected
        cache.admit(["a", "b", "c", "d"])  # "a" stays protected
        assert cache.filter_hits(["a", "b"]) == (["a"], ["b"])

    def test_contains_and_stats(self):
        cache = SegmentedLruCache(2)
        cache.admit(["a"])
        assert cache.filter_hits(["a", "zz"]) == (["a"], ["zz"])
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_rejects_bad_args(self):
        with pytest.raises(CacheError):
            SegmentedLruCache(0)


class TestPolicyRegistry:
    def test_all_policies_constructible(self):
        for name in CACHE_POLICIES:
            cache = make_cache(name, 4, 1.0)
            assert isinstance(cache, CACHE_POLICIES[name])
            cache.admit([1])
            assert cache.filter_hits([1]) == ([1], [])

    def test_unknown_policy(self):
        with pytest.raises(CacheError):
            make_cache("belady", 4, 0.5)

    def test_embedding_cache_accepts_policy(self):
        cache = make_cache("lfu", num_keys=10, cache_ratio=0.5)
        assert isinstance(cache, LfuCache)
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
        assert isinstance(engine.cache, SegmentedLruCache)
        report = engine.serve_trace(list(live)[:50])
        assert report.num_queries == 50


# -- batch calls vs. the per-key oracle ----------------------------------------

NUM_KEYS = 8  # capacities 0, 1, 2, 7 are exact binary ratios of it
batches = st.lists(st.integers(0, 9), max_size=6)  # repeats, may be empty
operations = st.lists(st.tuples(st.booleans(), batches), max_size=24)


def counters(stats):
    return (stats.hits, stats.misses, stats.evictions, stats.inserts)


@pytest.mark.parametrize("capacity", [0, 1, 2, 7])
@pytest.mark.parametrize("policy", sorted(CACHE_POLICIES))
@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_batch_calls_equal_per_key_calls(policy, capacity, ops):
    """``filter_hits`` / ``admit`` leave what the oracle's key-by-key
    ``get`` / ``put`` leave.

    Every reply, all four counters and the resident keys in eviction
    order agree after each batch, and again while fresh keys drain the
    cache.  At capacity 0 ``make_cache`` gives the disabled cache: every
    key an uncounted miss.
    """
    cache = make_cache(policy, NUM_KEYS, capacity / NUM_KEYS)
    assert cache.capacity == capacity
    oracle = ORACLES[policy](capacity) if capacity else None

    def expect(lookup, keys):
        if oracle is None:
            return ([], list(keys)) if lookup else None
        if not lookup:
            for key in keys:
                oracle.put(key)
            return None
        hits, misses = [], []
        for key in keys:
            (hits if oracle.get(key) else misses).append(key)
        return hits, misses

    def agree():
        if oracle is None:
            assert counters(cache.stats) == (0, 0, 0, 0)
            assert resident(cache) == []
        else:
            assert counters(cache.stats) == counters(oracle.stats)
            assert resident(cache) == oracle.resident()

    for lookup, keys in ops:
        keys = tuple(keys)
        expected = expect(lookup, keys)
        if lookup:
            assert cache.filter_hits(keys) == expected
        else:
            assert cache.admit(keys) is None
        agree()
    for fresh in range(100, 100 + capacity):
        cache.admit((fresh,))
        expect(False, (fresh,))
        agree()


@pytest.mark.parametrize("ratio", [0.0, 0.5])
@pytest.mark.parametrize("policy", sorted(CACHE_POLICIES))
def test_embedding_cache_enters_the_policy_once_per_call(policy, ratio):
    """The engine holds the policy itself: one ``filter_hits`` per query
    and one ``admit`` per query with misses, each wrappable on the
    instance (as the end-to-end harness wraps them)."""
    layout = PageLayout(
        num_keys=NUM_KEYS, capacity=4, pages=[(0, 1, 2, 3), (4, 5, 6, 7)]
    )
    engine = ServingEngine(
        layout, EngineConfig(cache_ratio=ratio, cache_policy=policy)
    )
    cache, entered = engine.cache, []
    filter_hits, admit = cache.filter_hits, cache.admit
    cache.filter_hits = lambda keys: (
        entered.append(("get", tuple(keys))), filter_hits(keys)
    )[1]
    cache.admit = lambda keys: (
        entered.append(("put", tuple(keys))), admit(keys)
    )[1]
    engine.serve_query(Query((3, 6, 3)))
    engine.serve_query(Query((6, 3)))
    second = [("get", (6, 3))] + ([] if ratio else [("put", (6, 3))])
    assert entered == [("get", (3, 6)), ("put", (3, 6)), *second]


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
