"""Tests for repro.core: config, offline build, and the MaxEmbedStore facade."""

import numpy as np
import pytest

from repro import (
    ConfigError,
    EmbeddingSpec,
    MaxEmbedConfig,
    Query,
    ServingError,
    ShpConfig,
)
from repro.core import MaxEmbedStore, build_offline_layout


class TestMaxEmbedConfig:
    def test_defaults_match_paper(self):
        config = MaxEmbedConfig()
        assert config.replication_ratio == 0.10
        assert config.cache_ratio == 0.10
        assert config.strategy == "maxembed"
        assert config.executor == "pipelined"
        assert config.page_capacity == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"strategy": "clone-everything"},
            {"partitioner": "metis"},
            {"replication_ratio": -0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            MaxEmbedConfig(**kwargs)

    def test_page_capacity_follows_spec(self):
        config = MaxEmbedConfig(spec=EmbeddingSpec(dim=128))
        assert config.page_capacity == 8


class TestBuildOfflineLayout:
    def quick(self, **overrides):
        base = dict(shp=ShpConfig(max_iterations=4, seed=0), seed=0)
        base.update(overrides)
        return MaxEmbedConfig(**base)

    def test_none_strategy_has_no_replicas(self, criteo_small):
        history, _ = criteo_small
        layout = build_offline_layout(history, self.quick(strategy="none"))
        assert layout.num_replica_pages == 0

    def test_zero_ratio_short_circuits(self, criteo_small):
        history, _ = criteo_small
        layout = build_offline_layout(
            history, self.quick(replication_ratio=0.0)
        )
        assert layout.num_replica_pages == 0

    def test_maxembed_strategy_appends_replicas(self, criteo_small):
        history, _ = criteo_small
        layout = build_offline_layout(
            history, self.quick(replication_ratio=0.4)
        )
        assert layout.num_replica_pages > 0
        assert layout.space_overhead() <= 0.45

    @pytest.mark.parametrize("strategy", ["rpp", "fpr"])
    def test_strawman_strategies(self, criteo_small, strategy):
        history, _ = criteo_small
        layout = build_offline_layout(
            history, self.quick(strategy=strategy, replication_ratio=0.2)
        )
        assert layout.num_keys == history.num_keys

    @pytest.mark.parametrize("partitioner", ["shp", "random", "vanilla"])
    def test_partitioner_choices(self, criteo_small, partitioner):
        history, _ = criteo_small
        layout = build_offline_layout(
            history,
            self.quick(strategy="none", partitioner=partitioner),
        )
        assert layout.num_keys == history.num_keys


class TestMaxEmbedStore:
    def test_build_and_serve(self, criteo_small):
        history, live = criteo_small
        store = MaxEmbedStore.build(
            history,
            MaxEmbedConfig(shp=ShpConfig(max_iterations=4, seed=0)),
        )
        report = store.serve_trace(live)
        assert report.num_queries == len(live)
        assert report.throughput_qps() > 0

    def test_serve_single_query(self, criteo_small):
        history, live = criteo_small
        store = MaxEmbedStore.build(
            history,
            MaxEmbedConfig(shp=ShpConfig(max_iterations=4, seed=0)),
        )
        result = store.serve(list(live)[0])
        assert result.requested_keys > 0

    def test_storage_overhead_reflects_ratio(self, criteo_small):
        history, _ = criteo_small
        store = MaxEmbedStore.build(
            history,
            MaxEmbedConfig(
                replication_ratio=0.4,
                shp=ShpConfig(max_iterations=4, seed=0),
            ),
        )
        assert 0.0 < store.storage_overhead() <= 0.45

    def test_memory_overhead_positive(self, criteo_small):
        history, _ = criteo_small
        store = MaxEmbedStore.build(
            history,
            MaxEmbedConfig(shp=ShpConfig(max_iterations=4, seed=0)),
        )
        assert store.memory_overhead_entries() > history.num_keys

    def test_lookup_requires_table(self, criteo_small):
        history, live = criteo_small
        store = MaxEmbedStore.build(
            history,
            MaxEmbedConfig(shp=ShpConfig(max_iterations=4, seed=0)),
        )
        with pytest.raises(ServingError):
            store.lookup(list(live)[0])

    def test_lookup_returns_exact_vectors(self, criteo_small):
        history, live = criteo_small
        config = MaxEmbedConfig(
            replication_ratio=0.2, shp=ShpConfig(max_iterations=4, seed=0)
        )
        rng = np.random.default_rng(0)
        table = rng.normal(size=(history.num_keys, 64)).astype(np.float32)
        store = MaxEmbedStore.build(history, config, table=table)
        for query in list(live)[:20]:
            vectors = store.lookup(query)
            assert set(vectors) == set(query.unique_keys())
            for key, vec in vectors.items():
                assert np.allclose(vec, table[key])

    def test_lookup_serves_cache_hits(self, criteo_small):
        history, live = criteo_small
        config = MaxEmbedConfig(
            cache_ratio=1.0, shp=ShpConfig(max_iterations=4, seed=0)
        )
        table = np.ones((history.num_keys, 64), dtype=np.float32)
        store = MaxEmbedStore.build(history, config, table=table)
        query = list(live)[0]
        store.lookup(query)
        before = store.engine.cache.stats.hits
        store.lookup(query)
        assert store.engine.cache.stats.hits > before

    def test_attach_table_validates_shape(self, criteo_small):
        history, _ = criteo_small
        store = MaxEmbedStore.build(
            history,
            MaxEmbedConfig(shp=ShpConfig(max_iterations=4, seed=0)),
        )
        with pytest.raises(ConfigError):
            store.attach_table(np.zeros((3, 64), dtype=np.float32))

    def test_wrap_existing_layout(self, shp_layout_small):
        store = MaxEmbedStore(shp_layout_small)
        assert store.layout is shp_layout_small
        result = store.serve(Query((0, 1, 2)))
        assert result.requested_keys == 3
