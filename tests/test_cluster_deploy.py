"""Cluster x deployment interactions: per-shard swaps, staleness, parity.

Covers the operational loop at cluster scale: swapping one shard's
layout while the other shards keep serving, driving the swap decision
from :class:`LayoutManager.staleness_probe`, and the core property that
a 1-shard cluster is *exactly* the single-device engine.
"""

import pytest

from repro import (
    EngineConfig,
    MaxEmbedConfig,
    ServingEngine,
    ServingError,
    ShpConfig,
    build_offline_layout,
    build_sharded_layout,
)
from repro.cluster import SHARD_STRATEGIES, ClusterEngine, project_trace
from repro.core import LayoutManager


@pytest.fixture(scope="module")
def criteo_halves():
    from repro import make_trace

    trace, _ = make_trace("criteo", scale="small", seed=7)
    return trace.split(0.5)


def _config(num_shards: int, shard_strategy: str = "modulo") -> MaxEmbedConfig:
    return MaxEmbedConfig(
        strategy="maxembed",
        replication_ratio=0.2,
        shp=ShpConfig(max_iterations=8, seed=7),
        num_shards=num_shards,
        shard_strategy=shard_strategy,
        seed=7,
    )


class TestOneShardParity:
    @pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
    def test_single_shard_cluster_matches_plain_engine(
        self, criteo_halves, strategy
    ):
        """A 1-shard cluster's report equals the plain engine's exactly."""
        history, live = criteo_halves
        config = _config(1, strategy)
        sharded = build_sharded_layout(history, config)
        plain = build_offline_layout(history, config)
        # Same offline result: the identity plan projects the trace onto
        # itself, so the per-shard pipeline is the plain pipeline.
        assert sharded.layouts[0].pages() == plain.pages()
        queries = list(live)[:200]
        engine_config = EngineConfig(cache_ratio=0.1)
        cluster = ClusterEngine(sharded, engine_config).serve_trace(
            queries, warmup_queries=20
        )
        single = ServingEngine(plain, engine_config).serve_trace(
            queries, warmup_queries=20
        )
        # Byte-for-byte: the dataclass compares every field, including
        # the full latency list and the valid-per-read histogram.
        assert cluster.report == single
        assert cluster.num_shards == 1
        assert cluster.mean_fanout() == pytest.approx(1.0)


class TestShardSwap:
    @pytest.fixture
    def cluster(self, criteo_halves):
        history, _ = criteo_halves
        sharded = build_sharded_layout(history, _config(2))
        return ClusterEngine(sharded, EngineConfig(cache_ratio=0.1))

    def test_swap_one_shard_while_others_keep_serving(
        self, cluster, criteo_halves
    ):
        history, live = criteo_halves
        queries = list(live)[:120]
        before = cluster.serve_trace(queries)
        untouched_engine = cluster.engines[1]
        untouched_reads = untouched_engine.device.stats.reads
        # Rebuild shard 0's placement from the *live* window (the
        # operational re-deploy) and swap it in; shard 1 is untouched.
        shard0_live = project_trace(live, cluster.plan, 0)
        new_layout = build_offline_layout(shard0_live, _config(1))
        old_cache = cluster.engines[0].cache
        swapped = cluster.swap_shards({0: new_layout}, keep_cache=True)[0]
        assert cluster.engines[0] is swapped
        assert cluster.engines[0].cache is old_cache  # warm cache kept
        assert cluster.engines[1] is untouched_engine  # still serving
        after = cluster.serve_trace(queries)
        assert after.report.num_queries == before.report.num_queries
        # Shard 1 continued accumulating reads across the swap.
        assert untouched_engine.device.stats.reads >= untouched_reads

    def test_swap_drops_cache_on_request(self, cluster):
        old_cache = cluster.engines[0].cache
        new_layout = cluster.sharded.layouts[0]
        cluster.swap_shards({0: new_layout}, keep_cache=False)
        assert cluster.engines[0].cache is not old_cache

    def test_swap_rejects_wrong_key_space(self, cluster, criteo_halves):
        history, _ = criteo_halves
        whole = build_offline_layout(history, _config(1))
        with pytest.raises(ServingError):
            cluster.swap_shards({0: whole})  # all keys, not shard 0's
        with pytest.raises(ServingError):
            cluster.swap_shards({5: cluster.sharded.layouts[0]})


class TestStalenessDrivenSwap:
    def test_probe_then_swap_shard(self, criteo_halves):
        """LayoutManager picks the shard's best layout; the cluster swaps it."""
        history, live = criteo_halves
        sharded = build_sharded_layout(history, _config(2))
        cluster = ClusterEngine(sharded, EngineConfig(cache_ratio=0.1))
        plan = cluster.plan
        window = project_trace(live, plan, 0)
        manager = LayoutManager(sharded.layouts[0], EngineConfig())
        rebuilt = build_offline_layout(window, _config(1))
        manager.register(rebuilt, label="rebuilt")
        scores = manager.staleness_probe(window, max_queries=100)
        assert set(scores) >= {"initial", "rebuilt", "active_share_of_best"}
        assert 0.0 < scores["active_share_of_best"] <= 1.0
        # A placement rebuilt on the probe window itself can only score
        # at least as well as the historical one.
        assert scores["rebuilt"] >= scores["initial"] - 1e-9
        manager.swap(manager.versions()[1].version)
        assert manager.active_version == 1
        # Deploy the manager's chosen layout into the live cluster and
        # verify the cluster still serves the full key space.
        cluster.swap_shards({0: manager.versions()[1].layout})
        report = cluster.serve_trace(list(live)[:80])
        assert report.report.num_queries == 80
