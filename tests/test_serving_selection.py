"""Tests for the one-pass page selector and the greedy baseline.

The one-pass properties hold for the production selector
(:mod:`repro.serving.selection`) and for its set-algebra oracle
(:mod:`repro.reference`) alike: every one-pass class here takes the
implementation under test from its ``impl`` attribute and is run once
per implementation.  Greedy set cover exists only as the oracle's
baseline, so its cases run on :mod:`repro.reference` alone.
"""

import pytest

from repro import (
    ConfigError,
    EngineConfig,
    PageLayout,
    Query,
    ServingEngine,
    ServingError,
    reference,
    serving,
)
from repro.placement import ForwardIndex, InvertIndex
from tests.test_fast_selection import covered_keys


def make_selectors(impl, layout, limit=None):
    """(reference greedy, ``impl``'s one-pass) over one index pair."""
    forward = ForwardIndex.from_layout(layout, limit=limit)
    invert = InvertIndex.from_layout(layout)
    return (
        reference.GreedySetCoverSelector(forward, invert),
        impl.OnePassSelector(forward, invert),
    )


@pytest.fixture
def layout():
    """8 keys on 2 base pages plus 2 replica pages mixing them."""
    return PageLayout(
        num_keys=8,
        capacity=4,
        pages=[
            (0, 1, 2, 3),  # page 0
            (4, 5, 6, 7),  # page 1
            (0, 4, 5),     # page 2 (replica)
            (1, 6),        # page 3 (replica)
        ],
        num_base_pages=2,
    )


class TestReferenceGreedySelector:
    impl = reference

    def test_covers_all_keys(self, layout):
        greedy, _ = make_selectors(self.impl, layout)
        outcome = greedy.select([0, 1, 4, 6])
        assert covered_keys(outcome) == {0, 1, 4, 6}

    def test_picks_largest_cover_first(self, layout):
        greedy, _ = make_selectors(self.impl, layout)
        outcome = greedy.select([0, 4, 5])
        # Page 2 covers all three in one read.
        assert outcome.pages == [2]

    def test_single_key(self, layout):
        greedy, _ = make_selectors(self.impl, layout)
        outcome = greedy.select([3])
        assert outcome.pages == [0]

    def test_deduplicates_input(self, layout):
        greedy, _ = make_selectors(self.impl, layout)
        outcome = greedy.select([3, 3, 3])
        assert outcome.pages == [0]
        assert outcome.steps[0].covered == (3,)

    def test_counts_candidates(self, layout):
        greedy, _ = make_selectors(self.impl, layout)
        outcome = greedy.select([0, 4])
        # First step examines every page containing 0 or 4: pages 0,1,2.
        assert outcome.steps[0].candidates_examined == 3

    def test_rejects_unknown_key(self, layout):
        greedy, _ = make_selectors(self.impl, layout)
        with pytest.raises(ServingError):
            greedy.select([99])

    def test_no_sort_charge(self, layout):
        greedy, _ = make_selectors(self.impl, layout)
        assert greedy.select([0, 1]).sorted_keys == 0


class TestOnePassSelector:
    impl = serving

    def test_covers_all_keys(self, layout):
        _, onepass = make_selectors(self.impl, layout)
        outcome = onepass.select([0, 1, 4, 6])
        assert covered_keys(outcome) == {0, 1, 4, 6}

    def test_replicated_keys_hitchhike(self, layout):
        _, onepass = make_selectors(self.impl, layout)
        # Key 2 has one copy (page 0), key 0 has two (pages 0, 2).
        # Processing 2 first reads page 0, which also serves 0.
        outcome = onepass.select([0, 2])
        assert outcome.pages == [0]
        assert set(outcome.steps[0].covered) == {0, 2}

    def test_sorted_by_replica_count(self, layout):
        _, onepass = make_selectors(self.impl, layout)
        outcome = onepass.select([0, 1, 2])
        assert outcome.sorted_keys == 3
        # First chosen page must come from a lowest-replica key (2 or 3).
        assert outcome.pages[0] == 0

    def test_uses_best_replica_page(self, layout):
        _, onepass = make_selectors(self.impl, layout)
        # Keys {4, 5, 0}: processing 5 (2 copies) should prefer page 2
        # (covers 0, 4, 5) over page 1 (covers 4, 5).
        outcome = onepass.select([4, 5, 0])
        assert 2 in outcome.pages
        assert len(outcome.pages) == 1

    def test_candidates_bounded_by_replica_count(self, layout):
        _, onepass = make_selectors(self.impl, layout)
        outcome = onepass.select([0])
        assert outcome.steps[0].candidates_examined == 2  # pages 0 and 2

    def test_index_limit_bounds_candidates(self, layout):
        _, onepass = make_selectors(self.impl, layout, limit=1)
        outcome = onepass.select([0])
        assert outcome.steps[0].candidates_examined == 1
        assert outcome.pages == [0]

    def test_shrunk_index_still_covers_via_invert_index(self, layout):
        # Figure 7 scenario: key 0's forward entry is shrunk to its home
        # page, but a read of page 0 chosen for key 1 still serves key 0.
        _, onepass = make_selectors(self.impl, layout, limit=1)
        outcome = onepass.select([0, 1, 2, 3])
        assert covered_keys(outcome) == {0, 1, 2, 3}
        assert outcome.pages == [0]

    def test_rejects_unknown_key(self, layout):
        _, onepass = make_selectors(self.impl, layout)
        with pytest.raises(ServingError):
            onepass.select([8])
        # A negative key never reaches a selector: its query refuses it.
        with pytest.raises(ConfigError, match="non-negative"):
            Query((-1,))

    def test_duplicate_keys_counted_once(self, layout):
        # Selection takes a query's distinct keys; the engine's entry
        # deduplicates the query once, before the cache and selection.
        engine = ServingEngine(layout, EngineConfig(cache_ratio=0.0))
        result = engine.serve_query(Query((5, 5, 4)))
        assert result.requested_keys == result.ssd_keys == 2
        _, onepass = make_selectors(self.impl, layout)
        outcome = onepass.select(Query((5, 5, 4)).unique_keys())
        assert covered_keys(outcome) == {4, 5}


class TestReferenceOnePassSelector(TestOnePassSelector):
    impl = reference


class TestSelectorParity:
    """Greedy and one-pass must agree on correctness, not on exact pages."""

    impl = serving

    def test_page_counts_close_on_structured_layout(
        self, maxembed_layout_small, criteo_small
    ):
        _, live = criteo_small
        greedy, onepass = make_selectors(self.impl, maxembed_layout_small)
        greedy_reads = 0
        onepass_reads = 0
        for query in list(live)[:60]:
            keys = query.unique_keys()
            g = greedy.select(keys)
            o = onepass.select(keys)
            assert covered_keys(g) == set(keys)
            assert covered_keys(o) == set(keys)
            greedy_reads += len(g.steps)
            onepass_reads += len(o.steps)
        # The paper's claim: one-pass is near the greedy page count.
        assert onepass_reads <= greedy_reads * 1.15

    def test_onepass_is_cheaper_in_candidates(
        self, maxembed_layout_small, criteo_small
    ):
        _, live = criteo_small
        greedy, onepass = make_selectors(self.impl, maxembed_layout_small)
        greedy_cost = 0
        onepass_cost = 0
        for query in list(live)[:40]:
            keys = query.unique_keys()
            greedy_cost += greedy.select(keys).total_candidates
            onepass_cost += onepass.select(keys).total_candidates
        assert onepass_cost < greedy_cost


class TestReferenceSelectorParity(TestSelectorParity):
    impl = reference
