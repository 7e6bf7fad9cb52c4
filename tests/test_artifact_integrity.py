"""Artifact integrity: the deployment bundle's magic/version/CRC32 envelope.

A bundle — one layout, a sharded cluster or a tiered layout, with the
config it was built under — must detect truncation and bit flips at load
time with a typed :class:`CorruptArtifactError`.  A file in any other
format, including every format earlier releases wrote and files written
before checksumming existed, is refused with a hint to rebuild it.
"""

import json
import zlib

import pytest

from repro import (
    Bundle,
    ConfigError,
    CorruptArtifactError,
    MaxEmbedConfig,
    PageLayout,
    PlacementError,
    ShpConfig,
    build_offline_layout,
    build_sharded_layout,
    load_bundle,
    save_bundle,
)
from repro.bundle import MAGIC, checksum, unwrap_document, wrap_document
from repro.types import Query, QueryTrace

REBUILD = "maxembed build --out"


@pytest.fixture
def layout() -> PageLayout:
    return PageLayout(8, 4, [(0, 1, 2, 3), (4, 5, 6, 7), (0, 4)], 2)


@pytest.fixture
def sharded():
    trace = QueryTrace(8, [Query((0, 1, 2, 3)), Query((4, 5, 6, 7))] * 4)
    config = MaxEmbedConfig(num_shards=2, shp=ShpConfig(max_iterations=2))
    return Bundle(config, build_sharded_layout(trace, config))


def saved(bundle, tmp_path):
    path = tmp_path / "bundle.json"
    save_bundle(bundle, path)
    return path


def edit_payload(path, edit) -> None:
    """Change a saved bundle inside its checksummed payload."""
    document = json.loads(path.read_text())
    edit(document["payload"])
    path.write_text(json.dumps(document))


def old_envelope(magic, payload) -> dict:
    """An envelope as earlier releases wrote it, under their magic."""
    crc = zlib.crc32(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    )
    return {"magic": magic, "version": 1, "crc32": crc, "payload": payload}


def layout_record(layout) -> dict:
    return {
        "num_keys": layout.num_keys,
        "capacity": layout.capacity,
        "num_base_pages": layout.num_base_pages,
        "pages": [list(p) for p in layout.pages()],
    }


class TestEnvelopePrimitives:
    def test_checksum_is_canonical(self):
        assert checksum({"a": 1, "b": 2}) == checksum({"b": 2, "a": 1})

    def test_wrap_unwrap_round_trip(self):
        payload = {"k": [1, 2, 3]}
        document = wrap_document(payload)
        assert document["magic"] == MAGIC
        assert unwrap_document(document) == payload

    def test_wrong_magic_rejected(self):
        document = wrap_document({"k": 1})
        document["magic"] = "maxembed-other"
        with pytest.raises(CorruptArtifactError, match=f"magic.*{REBUILD}"):
            unwrap_document(document)

    def test_unsupported_version_rejected(self):
        document = wrap_document({"k": 1})
        document["version"] = 99
        with pytest.raises(CorruptArtifactError, match="version"):
            unwrap_document(document)

    def test_missing_crc_rejected(self):
        document = wrap_document({"k": 1})
        del document["crc32"]
        with pytest.raises(CorruptArtifactError, match="truncated"):
            unwrap_document(document)

    def test_tampered_payload_rejected(self):
        document = wrap_document({"k": 1})
        document["payload"]["k"] = 2
        with pytest.raises(CorruptArtifactError, match="integrity"):
            unwrap_document(document)

    def test_pre_envelope_document_is_refused(self):
        for document in ({"k": 1}, [1, 2], None):
            with pytest.raises(
                CorruptArtifactError, match=f"no integrity envelope.*{REBUILD}"
            ):
                unwrap_document(document)

    def test_error_type_bridges_old_handlers(self):
        # A bundle holds layouts and a config: callers catching either
        # error family see a corrupt one.
        assert issubclass(CorruptArtifactError, PlacementError)
        assert issubclass(CorruptArtifactError, ConfigError)


class TestLayoutFiles:
    def test_round_trip_verifies(self, layout, tmp_path):
        path = saved(Bundle(MaxEmbedConfig(), layout), tmp_path)
        assert json.loads(path.read_text())["magic"] == MAGIC
        loaded = load_bundle(path)
        assert loaded.layout.pages() == layout.pages()
        assert loaded.layout.num_base_pages == layout.num_base_pages
        assert loaded.layouts == (loaded.layout,)

    def test_bit_flip_detected(self, layout, tmp_path):
        path = saved(Bundle(MaxEmbedConfig(), layout), tmp_path)

        def flip(payload):
            payload["layouts"][0]["num_keys"] += 1

        edit_payload(path, flip)
        with pytest.raises(CorruptArtifactError, match="integrity"):
            load_bundle(path)

    def test_truncation_detected(self, layout, tmp_path):
        path = saved(Bundle(MaxEmbedConfig(), layout), tmp_path)
        path.write_text(path.read_text()[:-30])
        with pytest.raises(CorruptArtifactError):
            load_bundle(path)

    def test_pre_envelope_file_is_refused_with_rebuild_hint(
        self, layout, tmp_path
    ):
        # A layout as the earliest releases wrote it: no envelope.
        path = tmp_path / "layout.json"
        path.write_text(json.dumps(layout_record(layout)))
        with pytest.raises(CorruptArtifactError, match=REBUILD):
            load_bundle(path)

    @pytest.mark.parametrize(
        "magic",
        [
            "maxembed-layout",
            "maxembed-sharded-layout",
            "maxembed-tier-plan",
            "maxembed-bundle-config",
        ],
    )
    def test_old_format_file_is_refused_with_rebuild_hint(
        self, layout, tmp_path, magic
    ):
        # Each format earlier releases wrote, CRC intact: refused by its
        # magic, never read as a bundle.
        path = tmp_path / "old.json"
        path.write_text(json.dumps(old_envelope(magic, layout_record(layout))))
        with pytest.raises(CorruptArtifactError, match=f"{magic}.*{REBUILD}"):
            load_bundle(path)

    def test_malformed_payload_is_corrupt(self, layout, tmp_path):
        path = saved(Bundle(MaxEmbedConfig(), layout), tmp_path)
        payload = json.loads(path.read_text())["payload"]
        broken = [
            ({**payload, "layouts": []}, "no layouts"),
            ({**payload, "layouts": [payload["layouts"][0]] * 2}, "shard plan"),
            ({k: v for k, v in payload.items() if k != "tier_plan"},
             "tier_plan"),
        ]
        for document, message in broken:
            path.write_text(json.dumps(wrap_document(document)))
            with pytest.raises(CorruptArtifactError, match=message):
                load_bundle(path)


class TestShardedLayoutFiles:
    def test_round_trip_verifies(self, sharded, tmp_path):
        loaded = load_bundle(saved(sharded, tmp_path))
        assert loaded.layout.plan.assignment == sharded.layout.plan.assignment
        assert loaded.layout.plan.strategy == sharded.layout.plan.strategy
        assert [l.pages() for l in loaded.layouts] == [
            l.pages() for l in sharded.layouts
        ]
        assert loaded.config == sharded.config
        assert loaded.tier_plan is None

    def test_bit_flip_detected(self, sharded, tmp_path):
        path = saved(sharded, tmp_path)

        def flip(payload):
            payload["shard_plan"]["assignment"][0] ^= 1

        edit_payload(path, flip)
        with pytest.raises(CorruptArtifactError):
            load_bundle(path)

    def test_plain_layout_file_rejected_by_magic(self, layout, tmp_path):
        path = tmp_path / "layout.json"
        path.write_text(
            json.dumps(old_envelope("maxembed-layout", layout_record(layout)))
        )
        with pytest.raises(PlacementError, match="magic"):
            load_bundle(path)

    def test_tier_plan_is_single_shard_only(self, sharded):
        from repro.tiering import plan_tier

        plan = plan_tier(sharded.layouts[0], 0.5)
        with pytest.raises(ConfigError, match="single-shard"):
            Bundle(sharded.config, sharded.layout, plan)


class TestStoreBundles:
    @pytest.fixture
    def bundle(self, criteo_small):
        history, _ = criteo_small
        config = MaxEmbedConfig(
            replication_ratio=0.2, shp=ShpConfig(max_iterations=4, seed=0)
        )
        return Bundle(config, build_offline_layout(history, config))

    def test_truncated_config_detected(self, bundle, tmp_path):
        path = saved(bundle, tmp_path)
        path.write_text(path.read_text()[:-20])
        with pytest.raises(CorruptArtifactError):
            load_bundle(path)

    def test_tampered_config_detected(self, bundle, tmp_path):
        path = saved(bundle, tmp_path)

        def tamper(payload):
            payload["config"]["cache_ratio"] = 0.99

        edit_payload(path, tamper)
        with pytest.raises(CorruptArtifactError):
            load_bundle(path)
