"""Tests for repro.core.persist: deployment bundles."""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ConfigError,
    EmbeddingSpec,
    MaxEmbedConfig,
    P4510,
    PageLayout,
    Query,
    ShpConfig,
)
from repro.cache import CACHE_POLICIES
from repro.core import MaxEmbedStore, load_store, save_store
from repro.core.config import PARTITIONERS, SHARD_STRATEGIES, STRATEGIES
from repro.core.persist import (
    MAGIC_BUNDLE_CONFIG,
    config_from_dict,
    config_to_dict,
)
from repro.integrity import wrap_document
from repro.serving import EXECUTORS, CpuCostModel, EngineConfig
from repro.ssd import PROFILES
from repro.tiering import TIER_MODES


@pytest.fixture
def rich_config():
    # Every field off its default (test_rich_config_sets_every_field).
    return MaxEmbedConfig(
        spec=EmbeddingSpec(dim=32, page_size=2048),
        replication_ratio=0.25,
        strategy="rpp",
        partitioner="multilevel",
        shp=ShpConfig(max_iterations=5, kl_passes=3, seed=11),
        index_limit=7,
        cache_ratio=0.15,
        cache_policy="slru",
        tier_mode="hybrid",
        tier_ratio=0.05,
        profile=P4510,
        raid_members=2,
        executor="serial",
        threads=3,
        cost_model=CpuCostModel(sort_per_key_us=0.07),
        num_shards=4,
        shard_strategy="modulo",
        replicas=2,
        build_workers=3,
        offline_workers=2,
        seed=9,
    )


# A bundle config as the format wrote it before every field was saved:
# no num_shards, shard_strategy, replicas, build_workers, offline_workers.
PARENT_FORMAT = {
    "version": 1,
    "spec": {"dim": 64, "page_size": 4096},
    "replication_ratio": 0.2,
    "strategy": "maxembed",
    "partitioner": "shp",
    "shp": {
        "max_iterations": 4,
        "min_swap_gain": 0,
        "kl_threshold": 48,
        "kl_passes": 8,
        "kl_restarts": 2,
        "seed": 0,
    },
    "index_limit": None,
    "cache_ratio": 0.1,
    "cache_policy": "lru",
    "tier_mode": "lru",
    "tier_ratio": 0.0,
    "profile": "p5800x",
    "raid_members": 1,
    "executor": "pipelined",
    "threads": 8,
    "cost_model": {
        "sort_per_key_us": 0.05,
        "candidate_examine_us": 0.15,
        "step_base_us": 0.15,
        "query_base_us": 0.5,
    },
    "seed": 0,
}
# Keys a bundle may omit: the ones above always read with a default, and
# the five that format never wrote.
OPTIONAL_KEYS = (
    "cache_policy",
    "tier_mode",
    "tier_ratio",
    "num_shards",
    "shard_strategy",
    "replicas",
    "build_workers",
    "offline_workers",
)
REQUIRED_KEYS = sorted(
    set(PARENT_FORMAT) - set(OPTIONAL_KEYS) - {"version"}
)

_FLOATS = dict(allow_nan=False, allow_infinity=False)
_OPTIONAL_INT = st.none() | st.integers(0, 64)
# One strategy per MaxEmbedConfig field; test_strategy_covers_every_field
# fails when a field is added without one.
FIELD_STRATEGIES = {
    "spec": st.builds(
        EmbeddingSpec,
        dim=st.integers(1, 128),
        page_size=st.sampled_from([512, 1024, 2048, 4096]),
    ),
    "profile": st.sampled_from(list(PROFILES.values())),
    "cache_ratio": st.floats(0.0, 1.0, **_FLOATS),
    "cache_policy": st.sampled_from(sorted(CACHE_POLICIES)),
    "index_limit": st.none() | st.integers(1, 64),
    "executor": st.sampled_from(sorted(EXECUTORS)),
    "threads": st.integers(1, 64),
    "raid_members": st.integers(1, 8),
    "cost_model": st.builds(
        CpuCostModel,
        **{
            name: st.floats(0.0, 1e6, **_FLOATS)
            for name in (
                "sort_per_key_us",
                "candidate_examine_us",
                "step_base_us",
                "query_base_us",
            )
        },
    ),
    "replicas": st.integers(1, 8),
    "tier_mode": st.sampled_from(TIER_MODES),
    "tier_ratio": st.floats(0.0, 1.0, **_FLOATS),
    "replication_ratio": st.floats(0.0, 8.0, **_FLOATS),
    "strategy": st.sampled_from(STRATEGIES),
    "partitioner": st.sampled_from(PARTITIONERS),
    "shp": st.builds(
        ShpConfig,
        max_iterations=st.integers(0, 50),
        min_swap_gain=st.integers(0, 8),
        kl_threshold=st.integers(0, 128),
        kl_passes=st.integers(0, 16),
        kl_restarts=st.integers(1, 4),
        seed=st.integers(0, 2**32),
    ),
    "num_shards": st.integers(1, 16),
    "shard_strategy": st.sampled_from(SHARD_STRATEGIES),
    "build_workers": _OPTIONAL_INT,
    "offline_workers": _OPTIONAL_INT,
    "seed": st.integers(0, 2**32),
}
configs = st.builds(MaxEmbedConfig, **FIELD_STRATEGIES)


class TestConfigRoundTrip:
    def test_round_trip_preserves_everything(self, rich_config):
        rebuilt = config_from_dict(config_to_dict(rich_config))
        assert rebuilt == rich_config

    def test_rich_config_sets_every_field(self, rich_config):
        default = MaxEmbedConfig()
        for f in fields(MaxEmbedConfig):
            assert getattr(rich_config, f.name) != getattr(
                default, f.name
            ), f.name

    def test_strategy_covers_every_field(self):
        assert set(FIELD_STRATEGIES) == {
            f.name for f in fields(MaxEmbedConfig)
        }

    @settings(max_examples=100, deadline=None)
    @given(configs)
    def test_every_config_round_trips_through_json(self, config):
        data = json.loads(json.dumps(config_to_dict(config)))
        assert config_from_dict(data) == config

    @settings(max_examples=100, deadline=None)
    @given(configs)
    def test_engine_config_carries_the_online_fields(self, config):
        assert config.engine_config() == EngineConfig(
            spec=config.spec,
            profile=config.profile,
            cache_ratio=config.cache_ratio,
            cache_policy=config.cache_policy,
            index_limit=config.index_limit,
            executor=config.executor,
            threads=config.threads,
            raid_members=config.raid_members,
            cost_model=config.cost_model,
            replicas=config.replicas,
            tier_mode=config.tier_mode,
            tier_ratio=config.tier_ratio,
        )

    def test_generator_shp_seed_loads_as_zero(self):
        config = MaxEmbedConfig(
            shp=ShpConfig(seed=np.random.default_rng(3))
        )
        data = config_to_dict(config)
        assert data["shp"]["seed"] is None
        assert config_from_dict(data).shp.seed == 0

    @pytest.mark.parametrize("key", OPTIONAL_KEYS)
    def test_optional_key_loads_at_its_default(self, rich_config, key):
        data = config_to_dict(rich_config)
        del data[key]
        rebuilt = config_from_dict(data)
        assert getattr(rebuilt, key) == getattr(MaxEmbedConfig(), key)

    @pytest.mark.parametrize("key", REQUIRED_KEYS)
    def test_required_key_missing_is_malformed(self, key):
        data = dict(PARENT_FORMAT)
        del data[key]
        with pytest.raises(ConfigError, match=f"malformed.*{key}"):
            config_from_dict(data)

    @pytest.mark.parametrize("nested", ["spec", "shp", "cost_model"])
    def test_nested_key_missing_is_malformed(self, nested):
        data = json.loads(json.dumps(PARENT_FORMAT))
        data[nested].popitem()
        with pytest.raises(ConfigError, match="malformed"):
            config_from_dict(data)

    def test_unknown_key_is_named(self):
        data = dict(PARENT_FORMAT, hedge_budget=0.5)
        with pytest.raises(ConfigError, match="hedge_budget"):
            config_from_dict(data)
        data = json.loads(json.dumps(PARENT_FORMAT))
        data["shp"]["warp"] = 1
        with pytest.raises(ConfigError, match="warp"):
            config_from_dict(data)

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

    def test_index_limit_below_one_is_refused(self):
        # Refused when the bundle's config is rebuilt, not when the
        # loaded store first builds its indexes.
        data = config_to_dict(MaxEmbedConfig())
        data["index_limit"] = 0
        with pytest.raises(ConfigError, match="index_limit"):
            config_from_dict(data)

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

    def test_legacy_onepass_bundle_serves_like_a_new_one(
        self, criteo_small, tmp_path
    ):
        # Bundles saved while the selector was a setting name "onepass";
        # they load, and serve float for float what a new bundle does.
        store, _ = self.build_store(criteo_small, with_table=False)
        new = save_store(store, tmp_path / "new")
        old = save_store(store, tmp_path / "old")
        data = config_to_dict(store.config)
        assert "selector" not in data
        data["selector"] = "onepass"
        (old / "config.json").write_text(
            json.dumps(wrap_document(MAGIC_BUNDLE_CONFIG, data))
        )
        _, live = criteo_small
        reports = [
            load_store(bundle).serve_trace(live) for bundle in (new, old)
        ]
        fingerprints = [
            (
                report.total_pages_read,
                report.makespan_us.hex(),
                report.throughput_qps().hex(),
                report.percentile_latency_us(99).hex(),
                report.effective_bandwidth_fraction().hex(),
            )
            for report in reports
        ]
        assert fingerprints[0] == fingerprints[1]

    def test_parent_format_bundle_serves_like_a_new_one(
        self, criteo_small, tmp_path
    ):
        # A bundle written before every field was saved loads, and serves
        # float for float what a new bundle of the same config does.
        store, _ = self.build_store(criteo_small, with_table=False)
        assert config_from_dict(PARENT_FORMAT) == store.config
        new = save_store(store, tmp_path / "new")
        old = save_store(store, tmp_path / "old")
        (old / "config.json").write_text(
            json.dumps(wrap_document(MAGIC_BUNDLE_CONFIG, PARENT_FORMAT))
        )
        _, live = criteo_small
        reports = [
            load_store(bundle).serve_trace(live) for bundle in (new, old)
        ]
        fingerprints = [
            (
                report.total_pages_read,
                report.makespan_us.hex(),
                report.throughput_qps().hex(),
                report.percentile_latency_us(99).hex(),
                report.effective_bandwidth_fraction().hex(),
            )
            for report in reports
        ]
        assert fingerprints[0] == fingerprints[1]

    def test_bundle_missing_a_required_key_is_refused(self, tmp_path):
        layout = PageLayout(
            8, 4, [(0, 1, 2, 3), (4, 5, 6, 7)], num_base_pages=2
        )
        bundle = save_store(MaxEmbedStore(layout), tmp_path / "bundle")
        data = dict(PARENT_FORMAT)
        del data["threads"]
        (bundle / "config.json").write_text(
            json.dumps(wrap_document(MAGIC_BUNDLE_CONFIG, data))
        )
        with pytest.raises(ConfigError, match="malformed"):
            load_store(bundle)

    def test_unknown_selector_rejected_at_config_time(self, tmp_path):
        # One-pass is the one page selector: a bundle saved under any
        # other is refused when its config is rebuilt, not served by
        # one-pass without a word.
        layout = PageLayout(
            8, 4, [(0, 1, 2, 3), (4, 5, 6, 7)], num_base_pages=2
        )
        bundle = save_store(MaxEmbedStore(layout), tmp_path / "bundle")
        for selector in ("greedy", "warp"):
            data = config_to_dict(MaxEmbedConfig())
            data["selector"] = selector
            with pytest.raises(ConfigError, match="bench_selector.py"):
                config_from_dict(data)
            (bundle / "config.json").write_text(
                json.dumps(wrap_document(MAGIC_BUNDLE_CONFIG, data))
            )
            with pytest.raises(ConfigError, match=repr(selector)):
                load_store(bundle)

    def test_load_missing_bundle(self, tmp_path):
        with pytest.raises(ConfigError, match="not a store bundle"):
            load_store(tmp_path / "nowhere")

    def test_load_malformed_config(self, criteo_small, tmp_path):
        store, _ = self.build_store(criteo_small, with_table=False)
        bundle = save_store(store, tmp_path / "bundle")
        (bundle / "config.json").write_text("{broken")
        with pytest.raises(ConfigError, match="malformed"):
            load_store(bundle)
