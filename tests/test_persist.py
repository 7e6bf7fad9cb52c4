"""Tests for repro.bundle: the config half of the deployment bundle and
bundles served after a round trip."""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Bundle,
    ConfigError,
    CorruptArtifactError,
    EmbeddingSpec,
    MaxEmbedConfig,
    P4510,
    PageLayout,
    Query,
    ServingEngine,
    ShpConfig,
    build_offline_layout,
    load_bundle,
    save_bundle,
)
from repro.bundle import config_from_dict, config_to_dict, wrap_document
from repro.cache import CACHE_POLICIES
from repro.core.config import PARTITIONERS, SHARD_STRATEGIES, STRATEGIES
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


# Every key is required: a bundle saved before a field existed is
# refused and rebuilt, never loaded at a default.
REQUIRED_KEYS = sorted(f.name for f in fields(MaxEmbedConfig))

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

    @pytest.mark.parametrize("key", REQUIRED_KEYS)
    def test_required_key_missing_is_malformed(self, key):
        data = config_to_dict(MaxEmbedConfig())
        del data[key]
        with pytest.raises(ConfigError, match=f"malformed.*{key}.*rebuild"):
            config_from_dict(data)

    @pytest.mark.parametrize("nested", ["spec", "shp", "cost_model"])
    def test_nested_key_missing_is_malformed(self, nested):
        data = config_to_dict(MaxEmbedConfig())
        data[nested].popitem()
        with pytest.raises(ConfigError, match="malformed"):
            config_from_dict(data)

    def test_unknown_key_is_named(self):
        data = dict(config_to_dict(MaxEmbedConfig()), hedge_budget=0.5)
        with pytest.raises(ConfigError, match="hedge_budget"):
            config_from_dict(data)
        data = config_to_dict(MaxEmbedConfig())
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

    def test_version_check(self, tmp_path):
        # One version, the bundle envelope's; the config carries none.
        assert "version" not in config_to_dict(MaxEmbedConfig())
        path = tmp_path / "bundle.json"
        save_bundle(Bundle(MaxEmbedConfig(), tiny_layout()), path)
        document = json.loads(path.read_text())
        document["version"] = 99
        path.write_text(json.dumps(document))
        with pytest.raises(ConfigError, match="version 99.*maxembed build"):
            load_bundle(path)

    def test_unregistered_profile_rejected(self):
        from repro.ssd import SsdProfile

        config = MaxEmbedConfig(
            profile=SsdProfile("custom", 1.0, 1.0)
        )
        with pytest.raises(ConfigError, match="registry"):
            config_to_dict(config)


def tiny_layout() -> PageLayout:
    return PageLayout(8, 4, [(0, 1, 2, 3), (4, 5, 6, 7)], num_base_pages=2)


def rewrite_config(path, data) -> None:
    """Replace a saved bundle's config with ``data``, re-checksummed."""
    payload = json.loads(path.read_text())["payload"]
    payload["config"] = data
    path.write_text(json.dumps(wrap_document(payload)))


def fingerprint(report):
    return (
        report.total_pages_read,
        report.makespan_us.hex(),
        report.throughput_qps().hex(),
        report.percentile_latency_us(99).hex(),
        report.effective_bandwidth_fraction().hex(),
    )


class TestStoreBundle:
    @pytest.fixture
    def bundle(self, criteo_small):
        history, _ = criteo_small
        config = MaxEmbedConfig(
            replication_ratio=0.2,
            shp=ShpConfig(max_iterations=4, seed=0),
        )
        return Bundle(config, build_offline_layout(history, config))

    def test_round_trip_without_table(self, bundle, tmp_path):
        save_bundle(bundle, tmp_path / "bundle.json")
        loaded = load_bundle(tmp_path / "bundle.json")
        assert loaded.layout.pages() == bundle.layout.pages()
        assert loaded.config == bundle.config
        assert loaded.tier_plan is None
        engine = ServingEngine(loaded.layout, loaded.config.engine_config())
        assert engine.serve_query(Query((0, 1, 2))).requested_keys == 3

    def test_serving_equivalence(self, bundle, criteo_small, tmp_path):
        save_bundle(bundle, tmp_path / "bundle.json")
        loaded = load_bundle(tmp_path / "bundle.json")
        _, live = criteo_small
        reports = [
            ServingEngine(b.layout, b.config.engine_config()).serve_trace(live)
            for b in (bundle, loaded)
        ]
        assert fingerprint(reports[0]) == fingerprint(reports[1])

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_executor_survives_the_bundle(self, executor, tmp_path):
        config = MaxEmbedConfig(executor=executor)
        assert config_from_dict(config_to_dict(config)).executor == executor
        save_bundle(Bundle(config, tiny_layout()), tmp_path / "bundle.json")
        loaded = load_bundle(tmp_path / "bundle.json")
        assert loaded.config.executor == executor
        engine = ServingEngine(loaded.layout, loaded.config.engine_config())
        assert type(engine.executor) is EXECUTORS[executor]

    def test_bundle_missing_a_required_key_is_refused(self, tmp_path):
        path = tmp_path / "bundle.json"
        save_bundle(Bundle(MaxEmbedConfig(), tiny_layout()), path)
        data = config_to_dict(MaxEmbedConfig())
        del data["threads"]
        rewrite_config(path, data)
        with pytest.raises(ConfigError, match="malformed.*threads"):
            load_bundle(path)

    def test_parent_format_bundle_is_refused(self, tmp_path):
        # A config written before every field was saved lacks these five
        # keys; it is refused with all of them named, not served at
        # defaults.
        path = tmp_path / "bundle.json"
        save_bundle(Bundle(MaxEmbedConfig(), tiny_layout()), path)
        never_written = [
            "build_workers",
            "num_shards",
            "offline_workers",
            "replicas",
            "shard_strategy",
        ]
        data = config_to_dict(MaxEmbedConfig())
        for key in never_written:
            del data[key]
        rewrite_config(path, data)
        with pytest.raises(ConfigError) as info:
            load_bundle(path)
        assert f"missing {never_written}" in str(info.value)
        assert "maxembed build --out" in str(info.value)

    def test_legacy_onepass_bundle_is_refused(self, tmp_path):
        # Bundles saved while the selector was a setting name "onepass".
        # One-pass is now the one page selector and no field names it,
        # so the saved key is one no field reads.
        path = tmp_path / "bundle.json"
        save_bundle(Bundle(MaxEmbedConfig(), tiny_layout()), path)
        data = config_to_dict(MaxEmbedConfig())
        data["selector"] = "onepass"
        with pytest.raises(ConfigError, match="unknown keys.*selector"):
            config_from_dict(data)
        rewrite_config(path, data)
        with pytest.raises(ConfigError, match="unknown keys.*selector"):
            load_bundle(path)

    def test_raid_members_bundle_is_refused(self, tmp_path):
        # Bundles saved while a RAID-0 array was an engine knob carry
        # "raid_members". The array is gone (the RAID0_2X_P5800X profile
        # is the one RAID model), so the saved key is one no field reads.
        path = tmp_path / "bundle.json"
        save_bundle(Bundle(MaxEmbedConfig(), tiny_layout()), path)
        data = config_to_dict(MaxEmbedConfig())
        data["raid_members"] = 1
        with pytest.raises(ConfigError, match="unknown keys.*raid_members"):
            config_from_dict(data)
        rewrite_config(path, data)
        with pytest.raises(ConfigError, match="unknown keys.*raid_members"):
            load_bundle(path)

    def test_unknown_selector_rejected_at_config_time(self, tmp_path):
        # One-pass is the one page selector: a bundle saved under any
        # other is refused when its config is rebuilt, not served by
        # one-pass without a word.
        path = tmp_path / "bundle.json"
        save_bundle(Bundle(MaxEmbedConfig(), tiny_layout()), path)
        for selector in ("greedy", "warp"):
            data = config_to_dict(MaxEmbedConfig())
            data["selector"] = selector
            with pytest.raises(ConfigError, match="unknown keys.*selector"):
                config_from_dict(data)
            rewrite_config(path, data)
            with pytest.raises(ConfigError, match="selector"):
                load_bundle(path)

    def test_load_missing_bundle(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read bundle"):
            load_bundle(tmp_path / "nowhere.json")

    def test_load_malformed_config(self, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text("{broken")
        with pytest.raises(CorruptArtifactError, match="malformed"):
            load_bundle(path)
        save_bundle(Bundle(MaxEmbedConfig(), tiny_layout()), path)
        rewrite_config(path, ["not", "a", "mapping"])
        with pytest.raises(ConfigError, match="malformed.*not a mapping"):
            load_bundle(path)

    def test_config_must_match_the_shard_count(self):
        with pytest.raises(ConfigError, match="num_shards=2"):
            Bundle(MaxEmbedConfig(num_shards=2), tiny_layout())
