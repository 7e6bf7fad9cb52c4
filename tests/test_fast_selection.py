"""Differential tests: the page-mask selector vs its set-algebra oracle.

The production one-pass selector's contract is *bit-identical outcomes* with
``repro.reference``: same pages in the same order, same covered tuples,
same candidate counts, same sorted-keys charge.  These tests enforce
the contract over hand-built layouts and hypothesis-generated random
layouts (all shrink limits, query shapes including single-key,
fully-replicated, duplicate-laden, out-of-range and
several-machine-words-wide queries, one key replicated on 64+ pages).
In every pair ``fast`` is the production selector and ``ref`` the oracle.
The oracle takes the raw keys; ``fast`` gets what production hands it, a
query's distinct keys (:func:`fed`), and a negative key is refused where
that query is built.
"""

import re

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import ConfigError, PageLayout, Query, ServingError, reference
from repro.placement import build_indexes
from repro.serving import OnePassSelector


def fed(keys):
    """What production hands ``select``: a query's distinct keys."""
    return Query(tuple(keys)).unique_keys()


def covered_keys(outcome):
    """Keys the chosen pages serve, from ``steps`` as recovery reads them."""
    return {key for step in outcome.steps for key in step.covered}


def assert_same_outcome(fast, ref):
    assert fast.pages == ref.pages
    assert fast.candidate_counts == ref.candidate_counts
    assert fast.covered_counts == ref.covered_counts
    assert fast.num_steps == ref.num_steps
    assert fast.total_candidates == ref.total_candidates
    assert fast.sorted_keys == ref.sorted_keys
    assert fast.steps == ref.steps


def assert_same_selection(fast, ref, keys):
    """Same outcome, or the same rejection; returns fast's outcome.

    A negative key never reaches production's ``select``: ``Query``
    refuses it.  A key past the table does, and both selectors name the
    first one in query order.
    """
    if min(keys) < 0:
        with pytest.raises(ServingError):
            ref.select(keys)
        with pytest.raises(ConfigError, match="non-negative"):
            fed(keys)
        return None
    try:
        want = ref.select(keys)
    except ServingError as exc:
        with pytest.raises(ServingError, match=re.escape(str(exc))):
            fast.select(fed(keys))
        return None
    got = fast.select(fed(keys))
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


def selector_pair(layout, limit=None):
    """(production, oracle) one-pass selectors over one index pair."""
    forward, invert = build_indexes(layout, limit=limit)
    return (
        OnePassSelector(forward, invert),
        reference.OnePassSelector(forward, invert),
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
        fast, ref = selector_pair(layout, limit)
        for keys in QUERIES:
            assert_same_outcome(fast.select(fed(keys)), ref.select(keys))

    def test_rejects_unknown_key(self, layout):
        fast, _ = selector_pair(layout)
        with pytest.raises(ServingError):
            fast.select([99])
        # A negative key is refused where its query is built.
        with pytest.raises(ConfigError):
            fed([-1])

    def test_no_state_carried_across_queries(self, layout):
        fast, ref = selector_pair(layout)
        for _ in range(3):
            for keys in QUERIES:
                assert_same_outcome(
                    fast.select(fed(keys)), ref.select(keys)
                )


class TestFullyReplicated:
    def test_every_key_on_every_page(self):
        layout = PageLayout(
            num_keys=3,
            capacity=4,
            pages=[(0, 1, 2), (2, 1, 0), (1, 0, 2)],
            num_base_pages=1,
        )
        for limit in (None, 1, 2):
            fast, ref = selector_pair(layout, limit)
            for keys in ([0], [0, 1, 2], [2, 0], [1, 1, 1]):
                assert_same_outcome(
                    fast.select(fed(keys)), ref.select(keys)
                )


class TestInterruptedForcedPrefix:
    """A replicated key the index limit shrank to one candidate is not
    forced: here key 1 keeps only page 0, yet rides on page 1, which
    key 0 (stored once) forces first."""

    def test_shrunk_single_candidate_rides_on_a_forced_page(self):
        layout = PageLayout(4, 2, [(1, 2), (0, 1), (3,)])
        fast, ref = selector_pair(layout, limit=1)
        assert_same_outcome(fast.select([0, 1, 3]), ref.select([0, 1, 3]))
        outcome = fast.select([0, 1, 3])
        assert outcome.pages == [1, 2]
        assert outcome.covered_counts == [2, 1]


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
        fast, ref = selector_pair(layout)
        for wide in (list(range(60)), list(range(199, -1, -1))):
            assert_same_outcome(fast.select(fed(wide)), ref.select(wide))


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
    and may carry keys outside the table, and the replica pages may come
    before the base pages: the forward index keeps a key's lowest page
    ids, so a shrunk replicated key can then lose the page that a
    single-copy key lives on.
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
    replicas_first = draw(st.booleans())
    if replicas_first:
        pages = pages[num_base:] + pages[:num_base]
    layout = PageLayout(n, capacity, pages)
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
    # Only a limit can drop a page, so replicas-first layouts take one.
    limit = draw(
        st.sampled_from([1, 2, 5] if replicas_first else [None, 1, 2, 5])
    )
    return layout, queries, limit


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=layouts_queries_limits())
def test_fast_selectors_match_reference(data):
    layout, queries, limit = data
    fast, ref = selector_pair(layout, limit)
    for keys in queries:
        assert_same_selection(fast, ref, keys)
