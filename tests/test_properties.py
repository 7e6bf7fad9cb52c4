"""Property-based tests (hypothesis) on the core data structures.

Each property pins an invariant the whole system leans on:

* partitioners always produce complete, capacity-respecting partitions;
* every replication strategy produces a layout that covers every key and
  never exceeds page capacity;
* page selection always covers the query, with any index limit and any
  layout, and no cover is smaller than the exact one;
* the LRU cache never exceeds capacity and obeys updateOnRead semantics;
* the device model is monotone: completions never precede submissions and
  never beat the latency floor.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import LruCache, PageLayout, Query, QueryTrace, reference
from repro.hypergraph import Hypergraph, build_weighted_hypergraph
from repro.partition import (
    MultilevelConfig,
    MultilevelPartitioner,
    RandomPartitioner,
    ShpConfig,
    ShpPartitioner,
    StreamingPartitioner,
    VanillaPlacement,
)
from repro.placement import ForwardIndex, InvertIndex
from repro.replication import (
    ConnectivityPriorityStrategy,
    FprStrategy,
    RppStrategy,
)
from repro.serving.selection import OnePassSelector
from repro.ssd import SimulatedSsd, SsdProfile
from tests.test_fast_selection import covered_keys

# -- strategies ------------------------------------------------------------------


@st.composite
def hypergraphs(draw, max_vertices=40, max_edges=25):
    """Random small hypergraphs."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    num_edges = draw(st.integers(min_value=1, max_value=max_edges))
    edges = []
    for _ in range(num_edges):
        size = draw(st.integers(min_value=1, max_value=min(8, n)))
        edge = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        edges.append(tuple(edge))
    return Hypergraph(n, edges)


@st.composite
def traces(draw, max_keys=30, max_queries=15):
    n = draw(st.integers(min_value=2, max_value=max_keys))
    num_queries = draw(st.integers(min_value=1, max_value=max_queries))
    queries = []
    for _ in range(num_queries):
        size = draw(st.integers(min_value=1, max_value=min(10, n)))
        keys = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size,
                max_size=size,
            )
        )
        queries.append(Query(tuple(keys)))
    return QueryTrace(n, queries)


PARTITIONERS = [
    VanillaPlacement(),
    RandomPartitioner(seed=0),
    ShpPartitioner(ShpConfig(max_iterations=3, kl_passes=2, seed=0)),
    MultilevelPartitioner(MultilevelConfig(refine_rounds=1, seed=0)),
    StreamingPartitioner(),
]


# -- partition properties -----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(graph=hypergraphs(), capacity=st.integers(min_value=1, max_value=8))
def test_partitions_are_complete_and_balanced(graph, capacity):
    for partitioner in PARTITIONERS:
        result = partitioner.partition(graph, capacity)
        assert len(result.assignment) == graph.num_vertices
        assert max(result.cluster_sizes()) <= capacity
        assert sum(result.cluster_sizes()) == graph.num_vertices


@settings(max_examples=25, deadline=None)
@given(graph=hypergraphs())
def test_shp_never_worse_than_its_random_start(graph):
    from repro.partition import fanout_objective

    capacity = 4
    config = ShpConfig(max_iterations=4, kl_passes=2, seed=1)
    shp = ShpPartitioner(config).partition(graph, capacity)
    # SHP must produce a valid partition whose fanout is bounded by the
    # trivial worst case (every edge fully scattered).
    worst = sum(
        (len(e) - 1) * graph.weight(i)
        for i, e in enumerate(graph.edges())
    )
    assert 0 <= fanout_objective(graph, shp.assignment) <= worst


# -- replication properties --------------------------------------------------------


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    trace=traces(),
    ratio=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    capacity=st.sampled_from([2, 4, 8]),
)
def test_every_strategy_yields_valid_layouts(trace, ratio, capacity):
    graph = build_weighted_hypergraph(trace)
    partitioner = ShpPartitioner(
        ShpConfig(max_iterations=2, kl_passes=1, seed=0)
    )
    for strategy in (
        ConnectivityPriorityStrategy(partitioner),
        RppStrategy(partitioner),
        FprStrategy(partitioner),
    ):
        layout = strategy.build_layout(graph, capacity, ratio)
        # Constructor enforces coverage/capacity; re-assert key facts.
        assert layout.num_keys == trace.num_keys
        assert max(len(p) for p in layout.pages()) <= capacity
        counts = layout.replica_counts()
        assert min(counts) >= 1


# -- selection properties ----------------------------------------------------------


@st.composite
def layouts_and_queries(draw):
    n = draw(st.integers(min_value=4, max_value=24))
    capacity = draw(st.sampled_from([2, 4, 8]))
    # Base pages: sequential coverage.
    pages = [
        tuple(range(start, min(start + capacity, n)))
        for start in range(0, n, capacity)
    ]
    # Replica pages: random subsets.
    extra = draw(st.integers(min_value=0, max_value=3))
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
    layout = PageLayout(
        n, capacity, pages, num_base_pages=(n + capacity - 1) // capacity
    )
    query_size = draw(st.integers(min_value=1, max_value=min(10, n)))
    keys = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=query_size,
            max_size=query_size,
            unique=True,
        )
    )
    limit = draw(st.sampled_from([None, 1, 2, 5]))
    return layout, keys, limit


@settings(max_examples=60, deadline=None)
@given(data=layouts_and_queries())
def test_selectors_always_cover_the_query(data):
    layout, keys, limit = data
    forward = ForwardIndex.from_layout(layout, limit=limit)
    invert = InvertIndex.from_layout(layout)
    outcome = OnePassSelector(forward, invert).select(keys)
    assert covered_keys(outcome) >= set(keys)
    # Each chosen page must serve at least one newly covered key.
    for step in outcome.steps:
        assert step.covered
    # No page chosen twice.
    assert len(outcome.pages) == len(set(outcome.pages))


@settings(max_examples=60, deadline=None)
@given(data=layouts_and_queries())
def test_exact_cover_bounds_both_selectors(data):
    """exact ≤ one-pass at the drawn index limit, exact ≤ greedy, and
    all three cover the query."""
    layout, keys, limit = data
    forward = ForwardIndex.from_layout(layout, limit=limit)
    invert = InvertIndex.from_layout(layout)
    exact = reference.exact_cover((forward, invert), keys)
    assert exact.optimal
    assert set().union(*map(invert.key_set, exact.pages)) >= set(keys)
    for selector in (
        OnePassSelector(forward, invert),
        reference.GreedySetCoverSelector(forward, invert),
    ):
        outcome = selector.select(keys)
        assert covered_keys(outcome) >= set(keys)
        assert len(exact.pages) <= outcome.num_steps


@settings(max_examples=30, deadline=None)
@given(data=layouts_and_queries())
def test_onepass_reads_bounded_by_query_size(data):
    layout, keys, limit = data
    forward = ForwardIndex.from_layout(layout, limit=limit)
    invert = InvertIndex.from_layout(layout)
    outcome = OnePassSelector(forward, invert).select(keys)
    assert len(outcome.steps) <= len(set(keys))


# -- cache properties ------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=8),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["get", "put"]),
            st.integers(min_value=0, max_value=12),
        ),
        max_size=60,
    ),
)
def test_lru_never_exceeds_capacity(capacity, ops):
    cache = LruCache(capacity)
    for op, key in ops:
        if op == "put":
            cache.admit((key,))
        else:
            cache.filter_hits((key,))
        assert cache.stats.inserts - cache.stats.evictions <= capacity
    lookups = cache.stats.hits + cache.stats.misses
    assert lookups == sum(1 for op, _ in ops if op == "get")


@settings(max_examples=50, deadline=None)
@given(
    keys=st.lists(
        st.integers(min_value=0, max_value=20), min_size=1, max_size=40
    )
)
def test_lru_most_recent_reads_survive(keys):
    capacity = 4
    cache = LruCache(capacity)
    for key in keys:
        cache.admit((key,))
        cache.filter_hits((key,))
    # The last `capacity` *distinct* keys must be resident.
    recent = list(dict.fromkeys(reversed(keys)))[:capacity]
    hits, misses = cache.filter_hits(recent)
    assert hits == recent and misses == []


# -- device properties ------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    submissions=st.lists(
        st.floats(min_value=0, max_value=1e5, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
def test_device_completions_follow_service_model(submissions):
    profile = SsdProfile(
        "prop", read_latency_us=7.0, bandwidth_gb_s=0.1, queue_depth=1024
    )
    device = SimulatedSsd(profile, page_size=4096)
    ordered = sorted(submissions)
    completions = [
        device.submit_read(i, t) for i, t in enumerate(ordered)
    ]
    for t, completion in zip(ordered, completions):
        assert completion.completed_at_us >= t + profile.read_latency_us
    # Aggregate throughput can never beat the bandwidth ceiling.
    span = completions[-1].completed_at_us - ordered[0]
    max_pages = span * 1e-6 * profile.bandwidth_gb_s * 1e9 / 4096 + 1
    assert len(completions) <= max_pages + 1


@settings(max_examples=30, deadline=None)
@given(
    num_keys=st.integers(min_value=4, max_value=30),
    ratio=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_embedding_cache_capacity_formula(num_keys, ratio):
    import math

    from repro.cache import CACHE_POLICIES, NullCache, make_cache

    expected = math.ceil(num_keys * ratio)
    for policy, factory in CACHE_POLICIES.items():
        cache = make_cache(policy, num_keys, ratio)
        assert cache.capacity == expected
        assert isinstance(cache, factory if expected else NullCache)
