"""Tests for the single-pass ``build_indexes``."""

import pytest

from repro import PageLayout, PlacementError
from repro.placement import ForwardIndex, InvertIndex, build_indexes


@pytest.fixture
def layout():
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


class TestBuildIndexes:
    @pytest.mark.parametrize("limit", [None, 1, 3])
    def test_single_pass_equals_two_pass(self, layout, limit):
        forward, invert = build_indexes(layout, limit=limit)
        ref_forward = ForwardIndex.from_layout(layout, limit=limit)
        ref_invert = InvertIndex.from_layout(layout)
        assert forward.entries() == ref_forward.entries()
        for p in range(layout.num_pages):
            assert invert.keys_of(p) == ref_invert.keys_of(p)

    def test_rejects_bad_limit(self, layout):
        with pytest.raises(PlacementError):
            build_indexes(layout, limit=0)

    def test_replica_counts_memoized(self, layout):
        forward, _ = build_indexes(layout)
        counts = forward.replica_counts()
        assert counts is forward.replica_counts()  # cached object
        assert counts == [
            forward.replica_count(k) for k in range(layout.num_keys)
        ]
