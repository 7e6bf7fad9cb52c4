"""Artifact integrity: magic/version/CRC32 envelopes on every persisted file.

Every artifact the library writes — layouts, sharded layouts, store
bundles — must detect truncation and bit flips at load
time with a typed :class:`CorruptArtifactError`, while files written
before checksumming existed keep loading (with a warning).
"""

import json

import numpy as np
import pytest

from repro import (
    ConfigError,
    CorruptArtifactError,
    MaxEmbedConfig,
    PageLayout,
    PlacementError,
    ShpConfig,
    build_sharded_layout,
    load_sharded_layout,
    save_sharded_layout,
)
from repro.core import MaxEmbedStore, load_store, save_store
from repro.integrity import (
    MAGIC_LAYOUT,
    UncheckedArtifactWarning,
    checksum,
    crc32_file,
    unwrap_document,
    wrap_document,
)
from repro.placement import load_layout, save_layout
from repro.types import Query, QueryTrace


@pytest.fixture
def layout() -> PageLayout:
    return PageLayout(8, 4, [(0, 1, 2, 3), (4, 5, 6, 7), (0, 4)], 2)


@pytest.fixture
def sharded():
    trace = QueryTrace(8, [Query((0, 1, 2, 3)), Query((4, 5, 6, 7))] * 4)
    config = MaxEmbedConfig(num_shards=2, shp=ShpConfig(max_iterations=2))
    return build_sharded_layout(trace, config)


def flip_payload_bit(path) -> None:
    """Corrupt a wrapped JSON artifact inside its checksummed payload."""
    document = json.loads(path.read_text())
    document["payload"]["num_keys"] += 1
    path.write_text(json.dumps(document))


class TestEnvelopePrimitives:
    def test_checksum_is_canonical(self):
        assert checksum({"a": 1, "b": 2}) == checksum({"b": 2, "a": 1})

    def test_wrap_unwrap_round_trip(self):
        payload = {"k": [1, 2, 3]}
        document = wrap_document(MAGIC_LAYOUT, payload)
        assert unwrap_document(MAGIC_LAYOUT, document) == payload

    def test_wrong_magic_rejected(self):
        document = wrap_document("maxembed-other", {"k": 1})
        with pytest.raises(CorruptArtifactError, match="magic"):
            unwrap_document(MAGIC_LAYOUT, document)

    def test_unsupported_version_rejected(self):
        document = wrap_document(MAGIC_LAYOUT, {"k": 1})
        document["version"] = 99
        with pytest.raises(CorruptArtifactError, match="version"):
            unwrap_document(MAGIC_LAYOUT, document)

    def test_missing_crc_rejected(self):
        document = wrap_document(MAGIC_LAYOUT, {"k": 1})
        del document["crc32"]
        with pytest.raises(CorruptArtifactError, match="truncated"):
            unwrap_document(MAGIC_LAYOUT, document)

    def test_tampered_payload_rejected(self):
        document = wrap_document(MAGIC_LAYOUT, {"k": 1})
        document["payload"]["k"] = 2
        with pytest.raises(CorruptArtifactError, match="integrity"):
            unwrap_document(MAGIC_LAYOUT, document)

    def test_legacy_document_warns_and_passes_through(self):
        with pytest.warns(UncheckedArtifactWarning):
            assert unwrap_document(MAGIC_LAYOUT, {"k": 1}) == {"k": 1}

    def test_error_type_bridges_old_handlers(self):
        # Pre-envelope call sites catch PlacementError / ConfigError; the
        # typed corruption error must keep satisfying both.
        assert issubclass(CorruptArtifactError, PlacementError)
        assert issubclass(CorruptArtifactError, ConfigError)


class TestLayoutFiles:
    def test_round_trip_verifies(self, layout, tmp_path):
        path = tmp_path / "layout.json"
        save_layout(layout, path)
        assert json.loads(path.read_text())["magic"] == MAGIC_LAYOUT
        assert load_layout(path).pages() == layout.pages()

    def test_bit_flip_detected(self, layout, tmp_path):
        path = tmp_path / "layout.json"
        save_layout(layout, path)
        flip_payload_bit(path)
        with pytest.raises(CorruptArtifactError):
            load_layout(path)

    def test_truncation_detected(self, layout, tmp_path):
        path = tmp_path / "layout.json"
        save_layout(layout, path)
        path.write_text(path.read_text()[:-30])
        with pytest.raises(CorruptArtifactError):
            load_layout(path)

    def test_legacy_layout_loads_with_warning(self, layout, tmp_path):
        path = tmp_path / "layout.json"
        path.write_text(
            json.dumps(
                {
                    "num_keys": layout.num_keys,
                    "capacity": layout.capacity,
                    "num_base_pages": layout.num_base_pages,
                    "pages": [list(p) for p in layout.pages()],
                }
            )
        )
        with pytest.warns(UncheckedArtifactWarning):
            assert load_layout(path).pages() == layout.pages()


class TestShardedLayoutFiles:
    def test_round_trip_verifies(self, sharded, tmp_path):
        path = tmp_path / "sharded.json"
        save_sharded_layout(sharded, path)
        loaded = load_sharded_layout(path)
        assert loaded.plan.assignment == sharded.plan.assignment
        assert [l.pages() for l in loaded.layouts] == [
            l.pages() for l in sharded.layouts
        ]

    def test_bit_flip_detected(self, sharded, tmp_path):
        path = tmp_path / "sharded.json"
        save_sharded_layout(sharded, path)
        document = json.loads(path.read_text())
        document["payload"]["assignment"][0] ^= 1
        path.write_text(json.dumps(document))
        with pytest.raises(CorruptArtifactError):
            load_sharded_layout(path)

    def test_plain_layout_file_rejected_by_magic(self, layout, tmp_path):
        path = tmp_path / "layout.json"
        save_layout(layout, path)
        with pytest.raises(PlacementError):
            load_sharded_layout(path)


class TestStoreBundles:
    @pytest.fixture
    def store(self, criteo_small):
        history, _ = criteo_small
        config = MaxEmbedConfig(
            replication_ratio=0.2, shp=ShpConfig(max_iterations=4, seed=0)
        )
        table = (
            np.random.default_rng(0)
            .normal(size=(history.num_keys, 64))
            .astype(np.float32)
        )
        return MaxEmbedStore.build(history, config, table=table)

    def test_bundle_carries_manifest_checksums(self, store, tmp_path):
        bundle = save_store(store, tmp_path / "bundle")
        manifest = json.loads((bundle / "manifest.json").read_text())
        files = manifest["payload"]["files"]
        assert files["table.npy"] == crc32_file(bundle / "table.npy")
        load_store(bundle)  # verifies everything

    def test_corrupt_table_detected(self, store, tmp_path):
        bundle = save_store(store, tmp_path / "bundle")
        blob = bytearray((bundle / "table.npy").read_bytes())
        blob[-3] ^= 0x10
        (bundle / "table.npy").write_bytes(bytes(blob))
        with pytest.raises(CorruptArtifactError):
            load_store(bundle)

    def test_truncated_config_detected(self, store, tmp_path):
        bundle = save_store(store, tmp_path / "bundle")
        config_path = bundle / "config.json"
        config_path.write_text(config_path.read_text()[:-20])
        with pytest.raises(CorruptArtifactError):
            load_store(bundle)

    def test_tampered_config_detected(self, store, tmp_path):
        bundle = save_store(store, tmp_path / "bundle")
        config_path = bundle / "config.json"
        document = json.loads(config_path.read_text())
        document["payload"]["cache_ratio"] = 0.99
        config_path.write_text(json.dumps(document))
        with pytest.raises(CorruptArtifactError):
            load_store(bundle)

    def test_legacy_bundle_loads_with_warning(self, store, tmp_path):
        bundle = save_store(store, tmp_path / "bundle")
        # Strip every envelope, as a pre-checksum build would have
        # written it.
        for name in ("config.json", "layout.json"):
            path = bundle / name
            path.write_text(
                json.dumps(json.loads(path.read_text())["payload"])
            )
        (bundle / "manifest.json").unlink()
        with pytest.warns(UncheckedArtifactWarning):
            loaded = load_store(bundle)
        assert loaded.config == store.config
