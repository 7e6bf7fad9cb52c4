"""Cluster subsystem: planners, per-shard pipeline, router, persistence."""

import pytest

from repro import (
    ConfigError,
    EngineConfig,
    MaxEmbedConfig,
    Query,
    QueryTrace,
    ServingError,
    ShpConfig,
    build_sharded_layout,
    load_sharded_layout,
    make_planner,
    save_sharded_layout,
)
from repro.cluster import (
    SHARD_STRATEGIES,
    ClusterEngine,
    CoOccurrencePlanner,
    FrequencyAwarePlanner,
    ModuloHashPlanner,
    ShardPlan,
    project_trace,
)


@pytest.fixture
def two_community_trace() -> QueryTrace:
    """8 keys in two co-occurrence communities, one hotter than the other."""
    queries = (
        [Query((0, 1, 2, 3))] * 6
        + [Query((4, 5, 6, 7))] * 4
        + [Query((0, 1))] * 3
        + [Query((6, 7))] * 2
    )
    return QueryTrace(8, queries)


class TestShardPlan:
    def test_local_global_round_trip(self, two_community_trace):
        plan = ModuloHashPlanner().plan(two_community_trace, 3)
        for key in range(plan.num_keys):
            shard = plan.shard_of(key)
            assert plan.global_id(shard, plan.local_id(key)) == key

    def test_rejects_empty_shard(self):
        with pytest.raises(ConfigError):
            ShardPlan(2, (0, 0, 0))  # shard 1 owns nothing

    def test_rejects_invalid_assignment(self):
        with pytest.raises(ConfigError):
            ShardPlan(2, (0, 5))

    def test_shard_sizes_and_imbalance(self, two_community_trace):
        plan = ModuloHashPlanner().plan(two_community_trace, 2)
        assert plan.shard_sizes() == [4, 4]
        assert plan.size_imbalance() == pytest.approx(1.0)
        assert plan.load_imbalance(two_community_trace) >= 1.0

    def test_mean_fanout_bounds(self, two_community_trace):
        plan = ModuloHashPlanner().plan(two_community_trace, 4)
        fanout = plan.mean_fanout(two_community_trace)
        assert 1.0 <= fanout <= 4.0


class TestPlanners:
    def test_modulo_assignment(self, two_community_trace):
        plan = ModuloHashPlanner().plan(two_community_trace, 3)
        assert all(
            plan.shard_of(k) == k % 3 for k in range(plan.num_keys)
        )

    def test_frequency_spreads_hot_keys(self):
        # Keys 0 and 1 are overwhelmingly hot; LPT packing must place
        # them on different shards.
        queries = [Query((0,))] * 50 + [Query((1,))] * 40 + [
            Query((2, 3, 4, 5))
        ]
        trace = QueryTrace(6, queries)
        plan = FrequencyAwarePlanner().plan(trace, 2)
        assert plan.shard_of(0) != plan.shard_of(1)
        # Key-count balance is capped at ceil(6/2) = 3 keys per shard.
        assert max(plan.shard_sizes()) <= 3

    def test_cooccurrence_keeps_communities_together(
        self, two_community_trace
    ):
        plan = CoOccurrencePlanner(seed=0).plan(two_community_trace, 2)
        assert len({plan.shard_of(k) for k in (0, 1, 2, 3)}) == 1
        assert len({plan.shard_of(k) for k in (4, 5, 6, 7)}) == 1
        assert plan.mean_fanout(two_community_trace) == pytest.approx(1.0)

    def test_cooccurrence_beats_modulo_on_fanout(self, two_community_trace):
        coo = CoOccurrencePlanner(seed=0).plan(two_community_trace, 2)
        mod = ModuloHashPlanner().plan(two_community_trace, 2)
        assert coo.mean_fanout(two_community_trace) < mod.mean_fanout(
            two_community_trace
        )

    def test_every_strategy_covers_every_key(self, two_community_trace):
        for strategy in SHARD_STRATEGIES:
            plan = make_planner(strategy).plan(two_community_trace, 2)
            assert plan.num_keys == two_community_trace.num_keys
            assert sum(plan.shard_sizes()) == plan.num_keys

    def test_rejects_more_shards_than_keys(self, two_community_trace):
        for strategy in SHARD_STRATEGIES:
            with pytest.raises(ConfigError):
                make_planner(strategy).plan(two_community_trace, 9)

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            make_planner("range")

    def test_registry_matches_config_validation(self):
        assert SHARD_STRATEGIES == MaxEmbedConfig._SHARD_STRATEGIES


class TestProjection:
    def test_projection_remaps_and_drops(self, two_community_trace):
        plan = ModuloHashPlanner().plan(two_community_trace, 2)
        shard0 = project_trace(two_community_trace, plan, 0)
        # Shard 0 owns the even keys; every query touches some of them.
        assert shard0.num_keys == 4
        assert len(shard0) == len(two_community_trace)
        for local_query, global_query in zip(shard0, two_community_trace):
            expected = [
                plan.local_id(k)
                for k in global_query.keys
                if plan.shard_of(k) == 0
            ]
            assert list(local_query.keys) == expected

    def test_projection_drops_untouched_queries(self):
        trace = QueryTrace(4, [Query((0, 2))] * 3 + [Query((1, 3))])
        plan = ModuloHashPlanner().plan(trace, 2)
        shard1 = project_trace(trace, plan, 1)  # odd keys
        assert len(shard1) == 1

    def test_projection_rejects_bad_shard(self, two_community_trace):
        plan = ModuloHashPlanner().plan(two_community_trace, 2)
        with pytest.raises(ConfigError):
            project_trace(two_community_trace, plan, 2)


class TestShardedBuild:
    def test_layout_per_shard_covers_its_keys(self, two_community_trace):
        config = MaxEmbedConfig(
            num_shards=2,
            shard_strategy="cooccurrence",
            shp=ShpConfig(max_iterations=4),
        )
        sharded = build_sharded_layout(two_community_trace, config)
        assert sharded.num_shards == 2
        for shard in range(2):
            assert (
                sharded.layouts[shard].num_keys
                == len(sharded.plan.shard_keys(shard))
            )
        assert sharded.total_pages() >= 2

    def test_untouched_shard_gets_sequential_fallback(self):
        # Only even keys are ever queried: shard 1 (odd keys) sees an
        # empty projected trace and must still store all its keys.
        trace = QueryTrace(8, [Query((0, 2, 4, 6))] * 4)
        config = MaxEmbedConfig(num_shards=2, shard_strategy="modulo")
        sharded = build_sharded_layout(trace, config)
        fallback = sharded.layouts[1]
        assert fallback.num_keys == 4
        assert fallback.num_replica_pages == 0

    def test_plan_override(self, two_community_trace):
        plan = ModuloHashPlanner().plan(two_community_trace, 2)
        sharded = build_sharded_layout(
            two_community_trace, MaxEmbedConfig(num_shards=2), plan=plan
        )
        assert sharded.plan is plan

    def test_plan_override_must_match_trace(self, two_community_trace):
        plan = ModuloHashPlanner().plan(QueryTrace(4, [Query((0, 1))]), 2)
        with pytest.raises(ConfigError):
            build_sharded_layout(two_community_trace, plan=plan)

    def test_config_validates_shard_fields(self):
        with pytest.raises(ConfigError):
            MaxEmbedConfig(num_shards=0)
        with pytest.raises(ConfigError):
            MaxEmbedConfig(shard_strategy="range")


class TestPersistence:
    def test_round_trip(self, two_community_trace, tmp_path):
        config = MaxEmbedConfig(num_shards=2, shard_strategy="frequency")
        sharded = build_sharded_layout(two_community_trace, config)
        path = tmp_path / "cluster.json"
        save_sharded_layout(sharded, path)
        loaded = load_sharded_layout(path)
        assert loaded.plan.assignment == sharded.plan.assignment
        assert loaded.plan.strategy == "frequency"
        assert [l.pages() for l in loaded.layouts] == [
            l.pages() for l in sharded.layouts
        ]

    def test_rejects_plain_layout_file(self, tmp_path):
        from repro.cluster import is_sharded_layout_file
        from repro.errors import PlacementError
        from repro.placement import PageLayout, save_layout

        path = tmp_path / "plain.json"
        save_layout(
            PageLayout(num_keys=2, capacity=2, pages=[(0, 1)]), path
        )
        assert not is_sharded_layout_file(path)
        with pytest.raises(PlacementError):
            load_sharded_layout(path)


class TestClusterEngine:
    @pytest.fixture
    def cluster(self, two_community_trace):
        config = MaxEmbedConfig(
            num_shards=2,
            shard_strategy="cooccurrence",
            shp=ShpConfig(max_iterations=4),
        )
        sharded = build_sharded_layout(two_community_trace, config)
        return ClusterEngine(sharded, EngineConfig(cache_ratio=0.0))

    def test_scatter_covers_query(self, cluster):
        query = Query((0, 1, 4, 5))
        fragments = cluster.scatter(query)
        total = sum(len(f.keys) for f in fragments.values())
        assert total == 4
        for shard, fragment in fragments.items():
            for local in fragment.keys:
                assert (
                    cluster.plan.shard_of(
                        cluster.plan.global_id(shard, local)
                    )
                    == shard
                )

    def test_out_of_range_key_raises_like_the_single_engine(self, cluster):
        num_keys = cluster.plan.num_keys
        reads_before = [e.device.stats.reads for e in cluster.engines]
        with pytest.raises(ServingError) as info:
            cluster.serve_query(Query((1, num_keys + 5, num_keys)))
        # The first offending key in query order, the selectors' wording.
        assert str(info.value) == (
            f"key {num_keys + 5} is not in the embedding table"
        )
        with pytest.raises(ServingError):
            cluster.scatter(Query((num_keys,)))
        assert [e.device.stats.reads for e in cluster.engines] == reads_before

    def test_gathered_result_sums_shards(self, cluster):
        result = cluster.serve_query(Query((0, 1, 4, 5)))
        assert result.requested_keys == 4
        assert result.ssd_keys == 4
        assert result.pages_read >= 2  # at least one page per community

    def test_single_shard_query_stays_local(self, cluster):
        before = [e.device.stats.reads for e in cluster.engines]
        cluster.serve_query(Query((0, 1, 2)))
        after = [e.device.stats.reads for e in cluster.engines]
        touched = [a != b for a, b in zip(after, before)]
        assert sum(touched) == 1

    def test_serve_trace_reports_shard_metrics(
        self, cluster, two_community_trace
    ):
        report = cluster.serve_trace(two_community_trace)
        assert report.num_shards == 2
        assert report.strategy == "cooccurrence"
        assert sum(report.shard_queries) >= len(two_community_trace)
        assert sum(report.shard_pages_read) == report.report.total_pages_read
        assert len(report.fanouts) == len(two_community_trace)
        assert report.load_imbalance() >= 1.0
        assert report.mean_fanout() == pytest.approx(1.0)  # communities
        assert report.mean_straggler_us() == pytest.approx(0.0)
        assert report.throughput_qps() > 0

    def test_straggler_positive_under_fanout(self, two_community_trace):
        # Modulo splits every community query across both shards, so
        # some straggler gap must appear.
        config = MaxEmbedConfig(num_shards=2, shard_strategy="modulo")
        sharded = build_sharded_layout(two_community_trace, config)
        engine = ClusterEngine(sharded, EngineConfig(cache_ratio=0.0))
        report = engine.serve_trace(two_community_trace)
        assert report.mean_fanout() > 1.0
        assert report.mean_straggler_us() >= 0.0
        assert max(report.max_shard_latency_us) > 0.0

    def test_rejects_empty_trace(self, cluster):
        with pytest.raises(ServingError):
            cluster.serve_trace([])

    def test_warmup_must_leave_queries(self, cluster, two_community_trace):
        with pytest.raises(ServingError):
            cluster.serve_trace(
                two_community_trace,
                warmup_queries=len(two_community_trace),
            )

    def test_memory_overhead_sums_engines(self, cluster):
        assert cluster.memory_overhead_entries() == sum(
            e.memory_overhead_entries() for e in cluster.engines
        )

    def test_as_dict_json_round_trip(self, cluster, two_community_trace):
        import json

        report = cluster.serve_trace(two_community_trace)
        data = report.as_dict()
        assert json.loads(json.dumps(data)) == data
        for key in (
            "replicas",
            "failovers",
            "failover_rate",
            "hedges",
            "hedge_wins",
            "hedges_denied",
            "hedge_rate",
            "replica_probes",
            "replica_resyncs",
            "replica_transitions",
            "dead_replicas",
        ):
            assert key in data
        assert data["replicas"] == 1
        assert data["failovers"] == 0

    def test_replica_info_counters_match_report_fields(
        self, two_community_trace
    ):
        """Every live ``/metrics`` replica counter persists in as_dict.

        The field-compatibility contract: a dashboard built on the
        gateway's ``replica_info()`` counters can read historical
        ``ClusterReport.as_dict()`` records under the same names.
        """
        config = MaxEmbedConfig(
            num_shards=2,
            shard_strategy="cooccurrence",
            shp=ShpConfig(max_iterations=4),
        )
        sharded = build_sharded_layout(two_community_trace, config)
        engine = ClusterEngine(
            sharded, EngineConfig(cache_ratio=0.0, replicas=2)
        )
        report = engine.serve_trace(two_community_trace)
        data = report.as_dict()
        info = engine.replica_info()
        assert info is not None
        for counter, value in info["counters"].items():
            assert counter in data
            assert data[counter] == value
        assert data["replicas"] == info["num_replicas"] == 2
        assert sum(info["states"].values()) == 4  # 2 shards x 2 replicas
