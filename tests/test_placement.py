"""Tests for repro.placement: layout, indexes, shrinking, serialization."""

import json

import pytest

from repro import (
    Bundle,
    ConfigError,
    MaxEmbedConfig,
    PageLayout,
    PlacementError,
)
from repro.bundle import config_to_dict, load_bundle, save_bundle, wrap_document
from repro.placement import (
    ForwardIndex,
    InvertIndex,
    layout_from_partition,
)
from repro.partition import PartitionResult


def write_layout_record(path, record: str) -> None:
    """A checksummed one-shard bundle whose layout is the JSON ``record``:
    what reaches ``PageLayout`` when a bundle was built wrong."""
    payload = {
        "config": config_to_dict(MaxEmbedConfig()),
        "shard_plan": None,
        "layouts": [json.loads(record)],
        "tier_plan": None,
    }
    path.write_text(json.dumps(wrap_document(payload)))


@pytest.fixture
def replicated_layout() -> PageLayout:
    """8 keys, capacity 4: two base pages + one replica page (1, 4, 6)."""
    return PageLayout(
        num_keys=8,
        capacity=4,
        pages=[(0, 1, 2, 3), (4, 5, 6, 7), (1, 4, 6)],
        num_base_pages=2,
    )


class TestPageLayout:
    def test_geometry(self, replicated_layout):
        layout = replicated_layout
        assert layout.num_keys == 8
        assert layout.capacity == 4
        assert layout.num_pages == 3
        assert layout.num_base_pages == 2
        assert layout.num_replica_pages == 1

    def test_page_access(self, replicated_layout):
        assert replicated_layout.page(2) == (1, 4, 6)
        with pytest.raises(PlacementError):
            replicated_layout.page(3)

    def test_is_replica_page(self, replicated_layout):
        assert replicated_layout.num_base_pages == 2
        assert replicated_layout.num_replica_pages == 1  # page 2

    def test_replica_counts(self, replicated_layout):
        counts = replicated_layout.replica_counts()
        assert counts[1] == 2
        assert counts[0] == 1
        assert sum(counts) == replicated_layout.total_slots_used()

    def test_extra_page_ratio(self, replicated_layout):
        assert replicated_layout.extra_page_ratio() == pytest.approx(0.5)

    def test_space_overhead(self, replicated_layout):
        assert replicated_layout.space_overhead() == pytest.approx(0.5)

    def test_rejects_missing_key(self):
        with pytest.raises(PlacementError, match="on no page"):
            PageLayout(4, 4, [(0, 1, 2)])

    def test_rejects_oversized_page(self):
        with pytest.raises(PlacementError):
            PageLayout(4, 2, [(0, 1, 2), (3,)])

    def test_rejects_duplicate_key_on_page(self):
        with pytest.raises(PlacementError):
            PageLayout(2, 4, [(0, 0, 1)])

    def test_rejects_empty_page(self):
        with pytest.raises(PlacementError):
            PageLayout(2, 4, [(0, 1), ()])

    def test_rejects_out_of_range_key(self):
        with pytest.raises(PlacementError):
            PageLayout(2, 4, [(0, 1, 5)])

    def test_rejects_bad_base_page_count(self):
        with pytest.raises(PlacementError):
            PageLayout(2, 4, [(0, 1)], num_base_pages=2)


class TestLayoutFromPartition:
    def test_base_pages_from_clusters(self):
        result = PartitionResult([0, 0, 1, 1], 2, 2)
        layout = layout_from_partition(result)
        assert layout.pages() == [(0, 1), (2, 3)]
        assert layout.num_base_pages == 2

    def test_extra_pages_appended(self):
        result = PartitionResult([0, 0, 1, 1], 2, 2)
        layout = layout_from_partition(result, [(0, 2)])
        assert layout.num_pages == 3
        assert layout.num_replica_pages == 1  # page 2

    def test_empty_clusters_skipped(self):
        result = PartitionResult([0, 0], 3, 2)
        layout = layout_from_partition(result)
        assert layout.num_pages == 1


class TestForwardIndex:
    def test_home_page_first(self, replicated_layout):
        index = ForwardIndex.from_layout(replicated_layout)
        assert index.pages_of(1) == (0, 2)
        assert index.home_page(1) == 0
        assert len(index.pages_of(0)) == 1

    def test_limit_keeps_home_page(self, replicated_layout):
        index = ForwardIndex.from_layout(replicated_layout, limit=1)
        assert index.pages_of(1) == (0,)
        assert index.pages_of(4) == (1,)

    def test_total_entries(self, replicated_layout):
        index = ForwardIndex.from_layout(replicated_layout)
        assert index.total_entries() == replicated_layout.total_slots_used()

    def test_rejects_bad_limit(self, replicated_layout):
        with pytest.raises(PlacementError):
            ForwardIndex.from_layout(replicated_layout, limit=0)

    def test_rejects_unknown_key(self, replicated_layout):
        index = ForwardIndex.from_layout(replicated_layout)
        with pytest.raises(PlacementError):
            index.pages_of(8)

    def test_num_keys(self, replicated_layout):
        assert ForwardIndex.from_layout(replicated_layout).num_keys == 8


class TestInvertIndex:
    def test_mirrors_layout(self, replicated_layout):
        index = InvertIndex.from_layout(replicated_layout)
        assert index.num_pages == 3
        assert index.keys_of(2) == (1, 4, 6)
        assert index.key_set(2) == frozenset({1, 4, 6})

    def test_rejects_bad_page(self, replicated_layout):
        index = InvertIndex.from_layout(replicated_layout)
        with pytest.raises(PlacementError):
            index.keys_of(3)
        with pytest.raises(PlacementError):
            index.key_set(-1)

    def test_invert_index_never_shrinks(self, replicated_layout):
        # Figure 7's guarantee: even when the forward index omits a page,
        # the invert index still knows the page's full contents.
        forward = ForwardIndex.from_layout(replicated_layout, limit=1)
        invert = InvertIndex.from_layout(replicated_layout)
        assert 2 not in forward.pages_of(1)
        assert 1 in invert.key_set(2)


class TestSerialize:
    def test_round_trip(self, replicated_layout, tmp_path):
        path = tmp_path / "layout.json"
        save_bundle(Bundle(MaxEmbedConfig(), replicated_layout), path)
        loaded = load_bundle(path).layout
        assert loaded.pages() == replicated_layout.pages()
        assert loaded.num_base_pages == replicated_layout.num_base_pages
        assert loaded.capacity == replicated_layout.capacity

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read bundle"):
            load_bundle(tmp_path / "absent.json")

    def test_load_malformed_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2")
        with pytest.raises(PlacementError):
            load_bundle(path)

    def test_load_missing_field_raises(self, tmp_path):
        path = tmp_path / "partial.json"
        write_layout_record(
            path, '{"num_keys": 2, "capacity": 4, "pages": [[0, 1]]}'
        )
        with pytest.raises(PlacementError, match="num_base_pages"):
            load_bundle(path)
