"""Property-based tests for the extension modules.

Invariants: incremental replication preserves base pages and respects
budgets; the benefit strategy's layouts stay within budget on arbitrary
traces; cache policies never exceed capacity under arbitrary op streams.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro import (
    PageLayout,
    Query,
    QueryTrace,
    ShpConfig,
    ShpPartitioner,
)
from repro.cache.policies import CACHE_POLICIES
from repro.hypergraph import build_weighted_hypergraph
from repro.replication import GreedyBenefitStrategy, IncrementalReplicator


@st.composite
def traces(draw, max_keys=24, max_queries=12):
    n = draw(st.integers(min_value=4, max_value=max_keys))
    num_queries = draw(st.integers(min_value=1, max_value=max_queries))
    queries = []
    for _ in range(num_queries):
        size = draw(st.integers(min_value=1, max_value=min(6, n)))
        keys = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        queries.append(Query(tuple(keys)))
    return QueryTrace(n, queries)


def sequential_layout(num_keys: int, capacity: int = 4) -> PageLayout:
    pages = [
        tuple(range(start, min(start + capacity, num_keys)))
        for start in range(0, num_keys, capacity)
    ]
    return PageLayout(num_keys, capacity, pages)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(trace=traces(), budget=st.integers(min_value=0, max_value=5))
def test_incremental_extend_invariants(trace, budget):
    layout = sequential_layout(trace.num_keys)
    refreshed = IncrementalReplicator().extend(layout, trace, budget)
    # Base pages untouched, budget respected, layout valid by construction.
    assert refreshed.pages()[: layout.num_pages] == layout.pages()
    assert refreshed.num_pages - layout.num_pages <= budget
    assert refreshed.num_base_pages == layout.num_base_pages


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    trace=traces(),
    ratio=st.sampled_from([0.0, 0.25, 0.75]),
)
def test_benefit_strategy_budget_property(trace, ratio):
    graph = build_weighted_hypergraph(trace)
    strategy = GreedyBenefitStrategy(
        ShpPartitioner(ShpConfig(max_iterations=2, kl_passes=1, seed=0))
    )
    capacity = 4
    layout = strategy.build_layout(graph, capacity, ratio)
    budget = strategy.replica_page_budget(graph.num_vertices, capacity, ratio)
    assert layout.num_replica_pages <= budget
    assert min(layout.replica_counts()) >= 1


@settings(max_examples=40, deadline=None)
@given(
    policy=st.sampled_from(sorted(CACHE_POLICIES)),
    capacity=st.integers(min_value=1, max_value=6),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["get", "put"]),
            st.integers(min_value=0, max_value=10),
        ),
        max_size=50,
    ),
)
def test_every_policy_bounded_and_consistent(policy, capacity, ops):
    cache = CACHE_POLICIES[policy](capacity)
    admitted = set()
    for op, key in ops:
        if op == "put":
            cache.admit((key,))
            admitted.add(key)
        else:
            hits, misses = cache.filter_hits((key,))
            # A lookup answers each key once; only an admitted key hits.
            assert hits + misses == [key]
            assert set(hits) <= admitted
        assert cache.stats.inserts - cache.stats.evictions <= capacity
