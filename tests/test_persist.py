"""Tests for repro.core.persist: deployment bundles."""

import json

import numpy as np
import pytest

from repro import (
    ConfigError,
    EmbeddingSpec,
    MaxEmbedConfig,
    P4510,
    PageLayout,
    Query,
    ShpConfig,
)
from repro.core import MaxEmbedStore, load_store, save_store
from repro.core.persist import config_from_dict, config_to_dict
from repro.serving import EXECUTORS, SELECTORS, CpuCostModel


@pytest.fixture
def rich_config():
    return MaxEmbedConfig(
        spec=EmbeddingSpec(dim=32, page_size=2048),
        replication_ratio=0.25,
        strategy="maxembed",
        partitioner="shp",
        shp=ShpConfig(max_iterations=5, kl_passes=3, seed=11),
        index_limit=7,
        cache_ratio=0.15,
        profile=P4510,
        raid_members=2,
        selector="greedy",
        executor="serial",
        threads=3,
        cost_model=CpuCostModel(sort_per_key_us=0.07),
        seed=9,
    )


class TestConfigRoundTrip:
    def test_round_trip_preserves_everything(self, rich_config):
        rebuilt = config_from_dict(config_to_dict(rich_config))
        assert rebuilt == rich_config

    def test_default_config_round_trips(self):
        config = MaxEmbedConfig()
        assert config_from_dict(config_to_dict(config)) == config

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "field",
        [
            "sort_per_key_us",
            "candidate_examine_us",
            "step_base_us",
            "query_base_us",
        ],
    )
    def test_non_finite_cost_rejected(self, field, value):
        # Python's json reads these tokens, so a bundle can carry them.
        text = json.dumps(config_to_dict(MaxEmbedConfig()))
        data = json.loads(text)
        data["cost_model"][field] = json.loads(value)
        with pytest.raises(ConfigError, match=field):
            config_from_dict(json.loads(json.dumps(data)))

    def test_version_check(self, rich_config):
        data = config_to_dict(rich_config)
        data["version"] = 99
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_unregistered_profile_rejected(self):
        from repro.ssd import SsdProfile

        config = MaxEmbedConfig(
            profile=SsdProfile("custom", 1.0, 1.0)
        )
        with pytest.raises(ConfigError, match="registry"):
            config_to_dict(config)


class TestStoreBundle:
    def build_store(self, criteo_small, with_table):
        history, _ = criteo_small
        config = MaxEmbedConfig(
            replication_ratio=0.2,
            shp=ShpConfig(max_iterations=4, seed=0),
        )
        table = None
        if with_table:
            table = (
                np.random.default_rng(0)
                .normal(size=(history.num_keys, 64))
                .astype(np.float32)
            )
        return MaxEmbedStore.build(history, config, table=table), table

    def test_round_trip_without_table(self, criteo_small, tmp_path):
        store, _ = self.build_store(criteo_small, with_table=False)
        save_store(store, tmp_path / "bundle")
        loaded = load_store(tmp_path / "bundle")
        assert loaded.layout.pages() == store.layout.pages()
        assert loaded.config == store.config
        result = loaded.serve(Query((0, 1, 2)))
        assert result.requested_keys == 3

    def test_round_trip_with_table(self, criteo_small, tmp_path):
        store, table = self.build_store(criteo_small, with_table=True)
        save_store(store, tmp_path / "bundle")
        loaded = load_store(tmp_path / "bundle")
        vectors = loaded.lookup(Query((3, 5)))
        assert np.allclose(vectors[3], table[3])
        assert np.allclose(vectors[5], table[5])

    def test_serving_equivalence(self, criteo_small, tmp_path):
        store, _ = self.build_store(criteo_small, with_table=False)
        save_store(store, tmp_path / "bundle")
        loaded = load_store(tmp_path / "bundle")
        _, live = criteo_small
        original = store.serve_trace(live)
        restored = loaded.serve_trace(live)
        assert original.total_pages_read == restored.total_pages_read
        assert original.makespan_us == restored.makespan_us

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_executor_survives_the_bundle(self, executor, tmp_path):
        config = MaxEmbedConfig(executor=executor)
        assert config_from_dict(config_to_dict(config)).executor == executor
        layout = PageLayout(
            8, 4, [(0, 1, 2, 3), (4, 5, 6, 7)], num_base_pages=2
        )
        save_store(MaxEmbedStore(layout, config), tmp_path / "bundle")
        loaded = load_store(tmp_path / "bundle")
        assert loaded.config.executor == executor
        assert type(loaded.engine.executor) is EXECUTORS[executor]

    def test_unknown_selector_rejected_at_config_time(self):
        # One table (repro.serving.SELECTORS) validates every entry
        # point: the config refuses before any offline phase runs, not
        # the engine after it.
        with pytest.raises(ConfigError, match="unknown selector 'warp'"):
            MaxEmbedConfig(selector="warp")
        assert sorted(SELECTORS) == ["greedy", "onepass"]

    def test_load_missing_bundle(self, tmp_path):
        with pytest.raises(ConfigError, match="not a store bundle"):
            load_store(tmp_path / "nowhere")

    def test_load_malformed_config(self, criteo_small, tmp_path):
        store, _ = self.build_store(criteo_small, with_table=False)
        bundle = save_store(store, tmp_path / "bundle")
        (bundle / "config.json").write_text("{broken")
        with pytest.raises(ConfigError, match="malformed"):
            load_store(bundle)
