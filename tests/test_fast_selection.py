"""Differential tests: the page-mask selectors vs their set-algebra oracle.

The production selectors' contract is *bit-identical outcomes* with
``repro.reference``: same pages in the same order, same covered tuples,
same candidate counts, same sorted-keys charge.  These tests enforce
the contract over hand-built layouts and hypothesis-generated random
layouts (all shrink limits, query shapes including single-key,
fully-replicated, duplicate-laden, out-of-range and
several-machine-words-wide queries, one key replicated on 64+ pages).
In every pair ``fast`` is the production selector and ``ref`` the oracle.
"""

import re

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import PageLayout, ServingError, reference
from repro.placement import build_indexes
from repro.serving import GreedySetCoverSelector, OnePassSelector


def assert_same_outcome(fast, ref):
    assert fast.pages == ref.pages
    assert fast.candidate_counts == ref.candidate_counts
    assert fast.covered_counts == ref.covered_counts
    assert fast.num_steps == ref.num_steps
    assert fast.total_candidates == ref.total_candidates
    assert fast.sorted_keys == ref.sorted_keys
    assert fast.tier_hits == ref.tier_hits
    assert fast.steps == ref.steps
    assert fast.covered_keys() == ref.covered_keys()


def assert_same_selection(fast, ref, keys):
    """Same outcome, or the same ``ServingError``; returns fast's outcome."""
    try:
        want = ref.select(keys)
    except ServingError as exc:
        with pytest.raises(ServingError, match=re.escape(str(exc))):
            fast.select(keys)
        return None
    got = fast.select(keys)
    assert_same_outcome(got, want)
    return got


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


def selector_pairs(layout, limit=None):
    """(production, oracle) selector pairs over one index pair."""
    forward, invert = build_indexes(layout, limit=limit)
    yield (
        OnePassSelector(forward, invert),
        reference.OnePassSelector(forward, invert),
    )
    yield (
        GreedySetCoverSelector(forward, invert),
        reference.GreedySetCoverSelector(forward, invert),
    )


QUERIES = [
    [0],
    [3],
    [0, 1, 4, 6],
    [0, 4, 5],
    [5, 5, 4],
    [3, 3, 3],
    [0, 1, 2, 3, 4, 5, 6, 7],
    [7, 6, 5, 4, 3, 2, 1, 0],
]


class TestFixtureParity:
    @pytest.mark.parametrize("limit", [None, 1, 2])
    def test_all_queries_match(self, layout, limit):
        for fast, ref in selector_pairs(layout, limit):
            for keys in QUERIES:
                assert_same_outcome(fast.select(keys), ref.select(keys))

    def test_rejects_unknown_key(self, layout):
        for fast, _ in selector_pairs(layout):
            with pytest.raises(ServingError):
                fast.select([99])
            with pytest.raises(ServingError):
                fast.select([-1])

    def test_no_state_carried_across_queries(self, layout):
        for fast, ref in selector_pairs(layout):
            for _ in range(3):
                for keys in QUERIES:
                    assert_same_outcome(fast.select(keys), ref.select(keys))


class TestFullyReplicated:
    def test_every_key_on_every_page(self):
        layout = PageLayout(
            num_keys=3,
            capacity=4,
            pages=[(0, 1, 2), (2, 1, 0), (1, 0, 2)],
            num_base_pages=1,
        )
        for limit in (None, 1, 2):
            for fast, ref in selector_pairs(layout, limit):
                for keys in ([0], [0, 1, 2], [2, 0], [1, 1, 1]):
                    assert_same_outcome(fast.select(keys), ref.select(keys))


class TestWideQueries:
    """Masks are Python ints: width past one machine word changes nothing."""

    def make_layout(self, n=200, capacity=8):
        pages = [
            tuple(range(start, min(start + capacity, n)))
            for start in range(0, n, capacity)
        ]
        base = len(pages)
        pages.append(tuple(range(0, capacity)))  # one replica page
        return PageLayout(n, capacity, pages, num_base_pages=base)

    def test_wide_query_matches(self):
        layout = self.make_layout()
        for wide in (list(range(60)), list(range(199, -1, -1))):
            for fast, ref in selector_pairs(layout):
                assert_same_outcome(fast.select(wide), ref.select(wide))


class TestLazyOutcome:
    def test_flat_accessors_agree_with_steps(self, layout):
        forward, invert = build_indexes(layout)
        fast = OnePassSelector(forward, invert)
        outcome = fast.select([0, 1, 4, 6])
        # Read flat accessors BEFORE steps to prove they don't depend on
        # materialization.
        pages = outcome.pages
        counts = outcome.candidate_counts
        covered = outcome.covered_counts
        steps = outcome.steps
        assert pages == [s.page_id for s in steps]
        assert counts == [s.candidates_examined for s in steps]
        assert covered == [len(s.covered) for s in steps]
        assert outcome.steps is steps  # memoized


# -- hypothesis: random layouts, limits, and query shapes -----------------------


@st.composite
def layouts_queries_limits(draw):
    """(layout, queries, index limit): a small case or a wide one.

    Small: up to 24 keys, a few random replica pages, queries of up to 12
    keys.  Wide: 53-400 keys with one hot key replicated on 64+ pages
    (the fan-out the query-side kernel walks) and queries of 53 to all
    keys, past one machine word.  Either way queries may repeat keys
    and may carry keys outside the table.
    """
    wide = draw(st.booleans())
    if wide:
        n = draw(st.integers(min_value=53, max_value=400))
        capacity = draw(st.sampled_from([8, 16]))
    else:
        n = draw(st.integers(min_value=2, max_value=24))
        capacity = draw(st.sampled_from([2, 4, 8]))
    pages = [
        tuple(range(start, min(start + capacity, n)))
        for start in range(0, n, capacity)
    ]
    num_base = len(pages)
    extra = draw(st.integers(min_value=0, max_value=4))
    for _ in range(extra):
        size = draw(st.integers(min_value=1, max_value=min(capacity, n)))
        page = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        pages.append(tuple(page))
    # Bulk content of the wide case comes from a drawn (replayable) RNG;
    # element-by-element draws of 400-key lists are too slow to shrink.
    rnd = draw(st.randoms(use_true_random=False))
    if wide:
        hot = draw(st.integers(min_value=0, max_value=n - 1))
        others = [k for k in range(n) if k != hot]
        for _ in range(draw(st.integers(min_value=64, max_value=72))):
            company = rnd.sample(others, rnd.randint(0, capacity - 1))
            pages.append((hot, *company))
    layout = PageLayout(n, capacity, pages, num_base_pages=num_base)
    queries = []
    num_queries = draw(st.integers(min_value=1, max_value=3 if wide else 6))
    for _ in range(num_queries):
        if wide:
            keys = rnd.sample(range(n), rnd.randint(53, n))
            if draw(st.booleans()):
                keys += rnd.choices(keys, k=rnd.randint(1, 20))
                rnd.shuffle(keys)
        else:
            size = draw(st.integers(min_value=1, max_value=min(12, n)))
            keys = draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=size,
                    max_size=size,
                    unique=draw(st.booleans()),
                )
            )
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            for stray in draw(
                st.lists(st.sampled_from([-1, n, n + 7]), max_size=2)
            ):
                keys.insert(rnd.randint(0, len(keys)), stray)
        queries.append(keys)
    limit = draw(st.sampled_from([None, 1, 2, 5]))
    return layout, queries, limit


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=layouts_queries_limits())
def test_fast_selectors_match_reference(data):
    layout, queries, limit = data
    for fast, ref in selector_pairs(layout, limit):
        for keys in queries:
            assert_same_selection(fast, ref, keys)
