"""DRAM tier planner and the tier-aware selection fast path.

Three layers of guarantees:

* offline: :class:`TierPlan` construction, validation, ranking, and the
  checksummed persistence envelope;
* selection: differential tests (hand-built layouts plus hypothesis
  random layouts) that tier-aware fast selectors stay bit-identical to
  the reference oracle, that an *empty* tier changes nothing, and that
  a populated tier partitions every query exactly — each distinct key
  served once, from exactly one of {tier, pages};
* serving: engine- and cluster-level accounting (tier hits counted,
  ``tier_ratio=0`` parity with the legacy path, N>1 plan rejection),
  and the uniform ``NullCache`` disabled-cache contract.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    ConfigError,
    EngineConfig,
    MaxEmbedConfig,
    PageLayout,
    Query,
    QueryTrace,
    ServingEngine,
    ServingError,
    build_sharded_layout,
)
from repro.cache.policies import CACHE_POLICIES, NullCache, make_cache
from repro.cluster import ClusterEngine
from repro.errors import CorruptArtifactError
from repro.tiering import (
    PinnedTier,
    TierPlan,
    hotness_from_trace,
    load_tier_plan,
    plan_tier,
    plan_tier_from_trace,
    replica_counts_from_layout,
    save_tier_plan,
)
from tests.test_fast_selection import (
    assert_same_outcome,
    assert_same_selection,
    layouts_queries_limits,
    selector_pairs,
)


@pytest.fixture
def layout():
    """Keys 0/4/5 carry replicas; 8 keys over 4 pages + 2 replica pages."""
    return PageLayout(
        num_keys=8,
        capacity=4,
        pages=[
            (0, 1, 2, 3),
            (4, 5, 6, 7),
            (0, 4, 5),
            (1, 6),
        ],
        num_base_pages=2,
    )


@pytest.fixture
def hot_trace():
    """Keys 6 and 2 dominate the history; 0 appears once."""
    queries = (
        [Query((6, 2))] * 10
        + [Query((6,))] * 5
        + [Query((0, 1, 2, 3))]
        + [Query((4, 5, 6, 7))]
    )
    return QueryTrace(8, queries)


class TestTierPlanValidation:
    def test_valid_plan(self):
        plan = TierPlan(num_keys=8, tier_ratio=0.25, pinned=(1, 5))
        assert plan.capacity == 2
        assert plan.dram_rows() == 2
        assert plan.source == "replicas"

    def test_rejects_out_of_range_key(self):
        with pytest.raises(ConfigError):
            TierPlan(num_keys=4, tier_ratio=0.5, pinned=(1, 4))
        with pytest.raises(ConfigError):
            TierPlan(num_keys=4, tier_ratio=0.5, pinned=(-1,))

    def test_rejects_duplicates_and_unsorted(self):
        with pytest.raises(ConfigError):
            TierPlan(num_keys=4, tier_ratio=0.5, pinned=(1, 1))
        with pytest.raises(ConfigError):
            TierPlan(num_keys=4, tier_ratio=0.5, pinned=(2, 1))

    def test_rejects_bad_ratio_and_source(self):
        with pytest.raises(ConfigError):
            TierPlan(num_keys=4, tier_ratio=1.5, pinned=())
        with pytest.raises(ConfigError):
            TierPlan(num_keys=4, tier_ratio=0.5, pinned=(), source="magic")

    def test_rejects_nonpositive_table(self):
        with pytest.raises(ConfigError):
            TierPlan(num_keys=0, tier_ratio=0.0, pinned=())


class TestPinnedTier:
    def test_split_preserves_order_both_sides(self):
        tier = PinnedTier(8, (1, 5, 6))
        hits, residue = tier.split([7, 6, 0, 5, 3, 1])
        assert hits == [6, 5, 1]
        assert residue == [7, 0, 3]

    def test_out_of_range_keys_fall_through_to_residue(self):
        tier = PinnedTier(8, (1,))
        hits, residue = tier.split([1, 99, -3])
        assert hits == [1]
        assert residue == [99, -3]

    def test_membership_and_len(self):
        tier = PinnedTier(8, (2, 3))
        assert 2 in tier and 3 in tier
        assert 0 not in tier and 99 not in tier and -1 not in tier
        assert len(tier) == 2

    def test_constructor_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            PinnedTier(4, (4,))


class TestPlanTier:
    def test_trace_hotness_ranks_first(self, layout, hot_trace):
        plan = plan_tier_from_trace(layout, hot_trace, 0.25)
        assert plan.source == "trace"
        assert plan.capacity == 2
        assert set(plan.pinned) == {2, 6}  # the two hottest keys

    def test_replica_fallback_without_trace(self, layout):
        plan = plan_tier(layout, 0.25)
        assert plan.source == "replicas"
        # 0, 1, 4, 5, 6 have two pages; ties break by ascending key.
        assert plan.pinned == (0, 1)

    def test_capacity_is_ceiling(self, layout):
        assert plan_tier(layout, 0.01).capacity == 1  # ceil(0.08)
        assert plan_tier(layout, 0.5).capacity == 4
        assert plan_tier(layout, 1.0).capacity == 8

    def test_zero_ratio_is_empty(self, layout):
        plan = plan_tier(layout, 0.0)
        assert plan.pinned == ()
        assert plan.runtime().split([0, 1]) == ([], [0, 1])

    def test_hotness_shape_checked(self, layout):
        import numpy as np

        with pytest.raises(ConfigError):
            plan_tier(layout, 0.5, hotness=np.zeros(3, dtype=np.int64))

    def test_hotness_counts(self, layout, hot_trace):
        counts = hotness_from_trace(hot_trace, 8)
        assert counts[6] == 16 and counts[2] == 11 and counts[0] == 1
        replicas = replica_counts_from_layout(layout)
        assert list(replicas) == [2, 2, 1, 1, 2, 2, 2, 1]

    def test_trace_key_out_of_range_raises(self, layout):
        with pytest.raises(ConfigError):
            hotness_from_trace([Query((9,))], 8)


class TestSerialization:
    def test_round_trip(self, tmp_path, layout, hot_trace):
        plan = plan_tier_from_trace(layout, hot_trace, 0.5)
        path = tmp_path / "tier.json"
        save_tier_plan(plan, path)
        assert load_tier_plan(path) == plan

    def test_tampered_payload_rejected(self, tmp_path, layout):
        plan = plan_tier(layout, 0.25)
        path = tmp_path / "tier.json"
        save_tier_plan(plan, path)
        document = json.loads(path.read_text())
        document["payload"]["pinned"] = [0, 2]  # flip a key, keep crc
        path.write_text(json.dumps(document))
        with pytest.raises(CorruptArtifactError):
            load_tier_plan(path)

    def test_missing_field_rejected(self, tmp_path, layout):
        from repro.integrity import MAGIC_TIER_PLAN, wrap_document

        path = tmp_path / "tier.json"
        path.write_text(
            json.dumps(wrap_document(MAGIC_TIER_PLAN, {"num_keys": 8}))
        )
        with pytest.raises(ConfigError):
            load_tier_plan(path)


class TestConfigValidation:
    def test_maxembed_config_tier_fields(self):
        config = MaxEmbedConfig(tier_mode="hybrid", tier_ratio=0.1)
        assert config.tier_mode == "hybrid"
        with pytest.raises(ConfigError):
            MaxEmbedConfig(tier_mode="mru")
        with pytest.raises(ConfigError):
            MaxEmbedConfig(tier_ratio=1.5)

    def test_engine_config_plan_requires_tier_mode(self, layout):
        plan = plan_tier(layout, 0.25)
        with pytest.raises(ServingError):
            EngineConfig(tier_mode="lru", tier_plan=plan)
        with pytest.raises(ServingError):
            EngineConfig(tier_mode="flat")


QUERIES = [
    [0],
    [5],
    [0, 1, 4, 6],
    [0, 4, 5],
    [5, 5, 4],
    [0, 1, 2, 3, 4, 5, 6, 7],
    [7, 6, 5, 4, 3, 2, 1, 0],
]


def assert_tier_partition(outcome, tier, keys):
    """Every distinct key served exactly once, from exactly one tier."""
    distinct = list(dict.fromkeys(keys))
    expected_hits = [k for k in distinct if k in tier]
    covered = outcome.covered_keys()
    assert outcome.tier_hits == len(expected_hits)
    assert covered == set(distinct) - set(expected_hits)
    assert not covered & set(expected_hits)


class TestTieredSelection:
    def test_fast_matches_reference_with_tier(self, layout):
        tier = PinnedTier(8, (0, 5))
        for fast, ref in selector_pairs(layout):
            fast.attach_tier(tier)
            ref.attach_tier(tier)
            for keys in QUERIES:
                got, want = fast.select(keys), ref.select(keys)
                assert_same_outcome(got, want)
                assert_tier_partition(got, tier, keys)

    def test_empty_tier_is_identity(self, layout):
        empty = PinnedTier(8, ())
        for tiered, plain in selector_pairs(layout):
            tiered.attach_tier(empty)
            for keys in QUERIES:
                got, want = tiered.select(keys), plain.select(keys)
                assert_same_outcome(got, want)
                assert got.tier_hits == 0

    def test_detach_restores_untiered_path(self, layout):
        for fast, ref in selector_pairs(layout):
            fast.attach_tier(PinnedTier(8, (0, 5)))
            fast.attach_tier(None)
            for keys in QUERIES:
                assert_same_outcome(fast.select(keys), ref.select(keys))

    def test_fully_pinned_query_reads_no_pages(self, layout):
        tier = PinnedTier(8, (0, 4, 5))
        for fast, _ in selector_pairs(layout):
            fast.attach_tier(tier)
            outcome = fast.select([0, 4, 5, 0])
            assert outcome.tier_hits == 3
            assert outcome.pages == []
            assert outcome.covered_keys() == set()

    def test_tiered_select_still_rejects_unknown_keys(self, layout):
        for fast, _ in selector_pairs(layout):
            fast.attach_tier(PinnedTier(8, (0,)))
            with pytest.raises(ServingError):
                fast.select([0, 99])


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=layouts_queries_limits(), ratio=st.sampled_from([0.0, 0.2, 0.5]))
def test_tiered_selectors_match_reference(data, ratio):
    layout, queries, limit = data
    tier = plan_tier(layout, ratio).runtime()
    for fast, ref in selector_pairs(layout, limit):
        fast.attach_tier(tier)
        ref.attach_tier(tier)
        for keys in queries:
            got = assert_same_selection(fast, ref, keys)
            if got is not None:  # None: both rejected an unknown key
                assert_tier_partition(got, tier, keys)


@pytest.fixture
def stream():
    return [Query((k % 8, (k + 1) % 8, (k + 5) % 8)) for k in range(120)]


class TestEngineTiering:
    def test_zero_ratio_parity_with_legacy(self, layout, stream):
        base = ServingEngine(
            layout, EngineConfig(cache_ratio=0.0)
        ).serve_trace(stream)
        tiered = ServingEngine(
            layout,
            EngineConfig(cache_ratio=0.0, tier_mode="pinned", tier_ratio=0.0),
        ).serve_trace(stream)
        assert base.total_pages_read == tiered.total_pages_read
        assert base.total_tier_hits == tiered.total_tier_hits == 0
        assert base.latencies_us == tiered.latencies_us
        assert base.total_valid_embeddings == tiered.total_valid_embeddings

    def test_pinned_engine_counts_tier_hits(self, layout, stream):
        engine = ServingEngine(
            layout,
            EngineConfig(cache_ratio=0.0, tier_mode="pinned", tier_ratio=0.25),
        )
        info = engine.tier_info()
        assert info is not None and info["pinned_keys"] == 2
        report = engine.serve_trace(stream)
        assert report.total_tier_hits > 0
        assert report.tier_hit_rate() > 0
        assert report.dram_hit_rate() >= report.tier_hit_rate()
        # Tier hits reduce SSD work versus the untiered engine.
        base = ServingEngine(
            layout, EngineConfig(cache_ratio=0.0)
        ).serve_trace(stream)
        assert report.total_pages_read < base.total_pages_read

    def test_pinned_mode_forces_cache_off(self, layout):
        engine = ServingEngine(
            layout,
            EngineConfig(cache_ratio=0.5, tier_mode="pinned", tier_ratio=0.25),
        )
        assert not engine.cache.enabled

    def test_cache_only_rung_serves_tier_hits(self, layout):
        from repro.overload import DegradeLevel

        engine = ServingEngine(
            layout,
            EngineConfig(cache_ratio=0.0, tier_mode="pinned", tier_ratio=0.25),
        )
        rung = DegradeLevel(
            level=3, name="cache-only", cache_only=True, fanout_cap=1
        )
        pinned = engine.tier_plan.pinned
        unpinned = [k for k in range(8) if k not in pinned][:2]
        query = Query(tuple(pinned) + tuple(unpinned))
        result = engine.serve_query(query, degrade=rung)
        # The pinned tier keeps serving at the deepest brownout rung —
        # strictly better coverage than cache-only LRU with no tier.
        assert result.tier_hits == len(pinned)
        assert result.pages_read == 0
        assert result.degrade_shed_keys == len(unpinned)
        assert result.missing_keys == len(unpinned)

    def test_report_dict_carries_tier_fields(self, layout, stream):
        engine = ServingEngine(
            layout,
            EngineConfig(cache_ratio=0.0, tier_mode="pinned", tier_ratio=0.25),
        )
        data = engine.serve_trace(stream).as_dict()
        assert data["tier_hits"] > 0
        assert 0 < data["tier_hit_rate"] <= 1


class TestClusterTiering:
    def _trace(self):
        queries = (
            [Query((0, 1, 2, 3))] * 6
            + [Query((4, 5, 6, 7))] * 4
            + [Query((0, 1))] * 3
            + [Query((6, 7))] * 2
        )
        return QueryTrace(8, queries)

    def test_single_shard_parity_with_engine(self):
        trace = self._trace()
        config = MaxEmbedConfig(num_shards=1, replication_ratio=0.2)
        sharded = build_sharded_layout(trace, config)
        engine_config = EngineConfig(
            cache_ratio=0.0, tier_mode="pinned", tier_ratio=0.25
        )
        cluster = ClusterEngine(sharded, engine_config)
        cluster_report = cluster.serve_trace(trace)
        solo = ServingEngine(sharded.layouts[0], engine_config).serve_trace(
            [Query(tuple(sharded.plan.local_id(k) for k in q.keys))
             for q in trace]
        )
        assert (
            cluster_report.report.total_tier_hits == solo.total_tier_hits
        )
        assert (
            cluster_report.report.total_pages_read == solo.total_pages_read
        )
        assert cluster_report.shard_tier_hits == [solo.total_tier_hits]

    def test_multi_shard_tier_accounting(self):
        trace = self._trace()
        config = MaxEmbedConfig(num_shards=2, replication_ratio=0.2)
        sharded = build_sharded_layout(trace, config)
        cluster = ClusterEngine(
            sharded,
            EngineConfig(cache_ratio=0.0, tier_mode="pinned", tier_ratio=0.25),
        )
        report = cluster.serve_trace(trace)
        assert len(report.shard_tier_hits) == 2
        assert sum(report.shard_tier_hits) == report.report.total_tier_hits
        assert report.report.total_tier_hits > 0
        info = cluster.tier_info()
        assert info is not None and len(info["shards"]) == 2
        assert report.as_dict()["tier_hits"] > 0

    def test_explicit_plan_rejected_at_multi_shard(self):
        trace = self._trace()
        config = MaxEmbedConfig(num_shards=2, replication_ratio=0.2)
        sharded = build_sharded_layout(trace, config)
        plan = TierPlan(num_keys=8, tier_ratio=0.25, pinned=(0, 6))
        with pytest.raises(ServingError):
            ClusterEngine(
                sharded,
                EngineConfig(
                    cache_ratio=0.0, tier_mode="pinned", tier_plan=plan
                ),
            )


class TestNullCacheContract:
    @pytest.mark.parametrize("policy", sorted(CACHE_POLICIES))
    def test_disabled_cache_is_null_for_every_policy(self, policy):
        cache = make_cache(policy, 0)
        assert isinstance(cache, NullCache)
        cache.put(1, "a")
        assert cache.get(1) is None
        assert cache.peek(1) is None
        assert 1 not in cache
        assert len(cache) == 0 and cache.capacity == 0
        # Disabled lookups are NOT misses: the stats stay zeroed.
        assert cache.stats.hits == 0
        assert cache.stats.misses == 0

    def test_unknown_policy_still_validated(self):
        from repro.errors import CacheError

        with pytest.raises(CacheError):
            make_cache("mru", 0)
