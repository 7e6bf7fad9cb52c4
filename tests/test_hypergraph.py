"""Tests for repro.hypergraph: structure, builders, stats, io."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro import HypergraphError, Query, QueryTrace
from repro.hypergraph import (
    Hypergraph,
    HypergraphCsr,
    build_hypergraph,
    build_weighted_hypergraph,
    compute_stats,
    load_hypergraph,
    save_hypergraph,
    vertex_cooccurrence,
)
from repro.hypergraph.hypergraph import merge_duplicate_edges
from repro.hypergraph.stats import (
    distinct_neighbour_counts,
    hot_vertex_neighbour_breadth,
)


class TestHypergraph:
    def test_basic_counts(self, tiny_graph):
        assert tiny_graph.num_vertices == 12
        assert tiny_graph.num_edges == 7
        assert tiny_graph.total_pin_count() == 4 + 3 + 4 + 3 + 2 + 2 + 2

    def test_edge_access(self, tiny_graph):
        assert tiny_graph.edge(0) == (0, 1, 2, 3)
        assert tiny_graph.weight(0) == 1

    def test_duplicate_vertices_within_edge_are_deduped(self):
        g = Hypergraph(4, [(1, 1, 2)])
        assert g.edge(0) == (1, 2)

    def test_rejects_empty_edge(self):
        with pytest.raises(HypergraphError):
            Hypergraph(4, [()])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(HypergraphError):
            Hypergraph(4, [(0, 4)])

    def test_rejects_nonpositive_vertex_count(self):
        with pytest.raises(HypergraphError):
            Hypergraph(0, [])

    def test_rejects_bad_weights(self):
        with pytest.raises(HypergraphError):
            Hypergraph(4, [(0, 1)], weights=[1, 2])
        with pytest.raises(HypergraphError):
            Hypergraph(4, [(0, 1)], weights=[0])

    def test_vertex_edges_incidence(self, tiny_graph):
        assert tiny_graph.vertex_edges(0) == [0, 1]
        assert tiny_graph.vertex_edges(7) == [2, 6]
        assert tiny_graph.vertex_edges(9) == [4]

    def test_vertex_edges_rejects_out_of_range(self, tiny_graph):
        with pytest.raises(HypergraphError):
            tiny_graph.vertex_edges(12)

    def test_degree_is_weighted(self):
        g = Hypergraph(3, [(0, 1), (0, 2)], weights=[3, 2])
        assert g.degree(0) == 5
        assert g.degree(1) == 3
        assert g.degrees() == [5, 3, 2]

    def test_edge_items_yields_weights(self):
        g = Hypergraph(3, [(0, 1)], weights=[4])
        items = list(g.edge_items())
        assert items == [(0, (0, 1), 4)]

    def test_subgraph_on_edges(self, tiny_graph):
        sub = tiny_graph.subgraph_on_edges([0, 2])
        assert sub.num_edges == 2
        assert sub.num_vertices == tiny_graph.num_vertices
        assert sub.edge(0) == (0, 1, 2, 3)


@st.composite
def raw_traces(draw):
    """Traces whose queries repeat keys and repeat each other."""
    num_keys = draw(st.integers(min_value=2, max_value=30))
    key = st.integers(min_value=0, max_value=num_keys - 1)
    queries = draw(
        st.lists(st.lists(key, min_size=1, max_size=7), min_size=1, max_size=25)
    )
    queries += draw(st.lists(st.sampled_from(queries), max_size=10))
    return QueryTrace(num_keys, [Query(tuple(q)) for q in queries])


def _loop_weighted_edges(trace, min_edge_size, max_edges):
    """The per-query loop ``build_weighted_hypergraph`` used to be."""
    raw = []
    for query in trace:
        keys = query.unique_keys()
        if len(keys) < min_edge_size:
            continue
        raw.append(keys)
        if max_edges is not None and len(raw) >= max_edges:
            break
    return merge_duplicate_edges(raw)


def _loop_csr_arrays(graph):
    """The per-edge copy and int64 counting sort ``from_graph`` used to be."""
    sizes = [len(edge) for edge in graph.edges()]
    edge_indptr = np.zeros(graph.num_edges + 1, dtype=np.int64)
    np.cumsum(sizes, out=edge_indptr[1:])
    pin_vertices = np.empty(sum(sizes), dtype=np.int64)
    at = 0
    for edge in graph.edges():
        pin_vertices[at : at + len(edge)] = edge
        at += len(edge)
    vertex_indptr = np.zeros(graph.num_vertices + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(pin_vertices, minlength=graph.num_vertices),
        out=vertex_indptr[1:],
    )
    edge_ids = np.repeat(np.arange(graph.num_edges, dtype=np.int64), sizes)
    vertex_edges = edge_ids[np.argsort(pin_vertices, kind="stable")]
    weights = np.asarray(
        [graph.weight(e) for e in range(graph.num_edges)], dtype=np.int64
    )
    return edge_indptr, pin_vertices, vertex_indptr, vertex_edges, weights


class TestFlatFrontEnd:
    """The one-pass front end against the loops it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        raw_traces(),
        st.sampled_from([1, 2, 3]),
        st.sampled_from([None, 1, 4]),
    )
    def test_weighted_builder_equals_the_loop(
        self, trace, min_edge_size, max_edges
    ):
        edges, weights = _loop_weighted_edges(trace, min_edge_size, max_edges)
        if not edges:
            with pytest.raises(HypergraphError, match="no hyperedges"):
                build_weighted_hypergraph(trace, min_edge_size, max_edges)
            return
        graph = build_weighted_hypergraph(trace, min_edge_size, max_edges)
        assert list(graph.edges()) == edges
        assert [graph.weight(e) for e in range(graph.num_edges)] == weights

    @settings(max_examples=60, deadline=None)
    @given(raw_traces(), st.booleans())
    def test_csr_equals_the_loop(self, trace, weighted):
        # The unweighted builder keeps first-appearance key order, so its
        # edges are the ones that are not strictly rising.
        build = build_weighted_hypergraph if weighted else build_hypergraph
        graph = build(trace)
        csr = HypergraphCsr.from_graph(graph)
        got = (
            csr.edge_indptr,
            csr.pin_vertices,
            csr.vertex_indptr,
            csr.vertex_edges,
            csr.weights,
        )
        for have, want in zip(got, _loop_csr_arrays(graph)):
            assert have.dtype == want.dtype
            assert have.tolist() == want.tolist()
        assert graph.total_pin_count() == csr.num_pins

    @settings(max_examples=60, deadline=None)
    @given(raw_traces())
    def test_constructor_dedupes_in_first_appearance_order(self, trace):
        raw = [query.keys for query in trace]
        graph = Hypergraph(trace.num_keys, raw)
        assert list(graph.edges()) == [tuple(dict.fromkeys(r)) for r in raw]

    def test_error_messages_unchanged(self):
        with pytest.raises(HypergraphError) as empty:
            Hypergraph(4, [(0, 1), ()])
        assert str(empty.value) == "hyperedges must be non-empty"
        with pytest.raises(HypergraphError) as high:
            Hypergraph(4, [(0, 1), (2, 4, 9)])
        assert str(high.value) == "vertex 4 out of range [0, 4)"
        with pytest.raises(HypergraphError) as low:
            Hypergraph(4, [(3, -1)])
        assert str(low.value) == "vertex -1 out of range [0, 4)"
        with pytest.raises(HypergraphError) as huge:
            Hypergraph(4, [(0, 2**70)])
        assert str(huge.value) == f"vertex {2**70} out of range [0, 4)"
        with pytest.raises(HypergraphError) as count:
            Hypergraph(4, [(0, 1)], weights=[1, 2])
        assert str(count.value) == "2 weights for 1 edges"

    def test_first_invalid_edge_is_the_one_named(self):
        # Edge order decides which error surfaces, as in the loop.
        with pytest.raises(HypergraphError, match="vertex 7 out of range"):
            Hypergraph(4, [(7,), ()])
        with pytest.raises(HypergraphError, match="non-empty"):
            Hypergraph(4, [(), (7,)])


class TestMergeDuplicateEdges:
    def test_merges_order_insensitively(self):
        edges, weights = merge_duplicate_edges([(1, 2), (2, 1), (3,)])
        assert edges == [(1, 2), (3,)]
        assert weights == [2, 1]

    def test_dedupes_within_edge_before_merging(self):
        edges, weights = merge_duplicate_edges([(1, 2, 2), (1, 2)])
        assert edges == [(1, 2)]
        assert weights == [2]

    def test_rejects_empty(self):
        with pytest.raises(HypergraphError):
            merge_duplicate_edges([()])


class TestBuilders:
    def test_build_one_edge_per_query(self, tiny_trace):
        g = build_hypergraph(tiny_trace)
        assert g.num_edges == len(tiny_trace)
        assert g.num_vertices == tiny_trace.num_keys

    def test_min_edge_size_filters_singletons(self):
        trace = QueryTrace(5, [Query((1,)), Query((1, 2))])
        g = build_hypergraph(trace, min_edge_size=2)
        assert g.num_edges == 1

    def test_max_edges_caps_head(self, tiny_trace):
        g = build_hypergraph(tiny_trace, max_edges=3)
        assert g.num_edges == 3

    def test_all_filtered_raises(self):
        trace = QueryTrace(5, [Query((1,))])
        with pytest.raises(HypergraphError):
            build_hypergraph(trace, min_edge_size=2)

    def test_rejects_bad_min_edge_size(self, tiny_trace):
        with pytest.raises(HypergraphError):
            build_hypergraph(tiny_trace, min_edge_size=0)

    def test_weighted_builder_merges_repeats(self):
        trace = QueryTrace(
            5, [Query((1, 2)), Query((2, 1)), Query((3, 4))]
        )
        g = build_weighted_hypergraph(trace)
        assert g.num_edges == 2
        assert sorted(g.weight(e) for e in range(2)) == [1, 2]

    def test_weighted_builder_preserves_total_mass(self, criteo_small):
        history, _ = criteo_small
        plain = build_hypergraph(history)
        weighted = build_weighted_hypergraph(history)
        assert weighted.num_edges <= plain.num_edges
        total_weight = sum(
            weighted.weight(e) for e in range(weighted.num_edges)
        )
        assert total_weight == plain.num_edges


class TestStats:
    def test_compute_stats_counts(self, tiny_graph):
        stats = compute_stats(tiny_graph)
        assert stats.num_vertices == 12
        assert stats.num_edges == 7
        assert stats.max_edge_size == 4
        assert stats.isolated_vertices == 0
        assert stats.mean_edge_size == pytest.approx(20 / 7)

    def test_isolated_vertices_detected(self):
        g = Hypergraph(5, [(0, 1)])
        assert compute_stats(g).isolated_vertices == 3

    def test_as_dict_round_trips_fields(self, tiny_graph):
        d = compute_stats(tiny_graph).as_dict()
        assert d["num_vertices"] == 12
        assert set(d) >= {"mean_degree", "max_degree", "total_pins"}

    def test_vertex_cooccurrence_weighted(self):
        g = Hypergraph(4, [(0, 1), (0, 1, 2)], weights=[2, 1])
        counts = vertex_cooccurrence(g, 0)
        assert counts[1] == 3
        assert counts[2] == 1
        assert 0 not in counts

    def test_distinct_neighbour_counts(self, tiny_graph):
        counts = distinct_neighbour_counts(tiny_graph)
        assert counts[0] == 3  # 1, 2, 3
        assert counts[3] == 4  # 0, 1, 2, 7
        assert counts[8] == 1

    def test_hot_vertex_breadth_exceeds_mean(self, small_graph):
        # The paper's motivation: hot vertices co-appear with far more
        # partners than average (and more than a page holds).
        import numpy as np

        hot = hot_vertex_neighbour_breadth(small_graph, 0.05)
        overall = float(
            np.mean(distinct_neighbour_counts(small_graph))
        )
        assert hot > overall

    def test_hot_vertex_breadth_rejects_bad_fraction(self, tiny_graph):
        with pytest.raises(ValueError):
            hot_vertex_neighbour_breadth(tiny_graph, 0.0)


class TestIo:
    def test_round_trip(self, tiny_graph, tmp_path):
        path = tmp_path / "graph.json"
        save_hypergraph(tiny_graph, path)
        loaded = load_hypergraph(path)
        assert loaded.num_vertices == tiny_graph.num_vertices
        assert loaded.num_edges == tiny_graph.num_edges
        assert [loaded.edge(e) for e in range(loaded.num_edges)] == [
            tiny_graph.edge(e) for e in range(tiny_graph.num_edges)
        ]

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(HypergraphError):
            load_hypergraph(tmp_path / "absent.json")

    def test_load_malformed_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(HypergraphError):
            load_hypergraph(path)

    def test_load_missing_field_raises(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text('{"num_vertices": 3, "edges": [[0, 1]]}')
        with pytest.raises(HypergraphError, match="weights"):
            load_hypergraph(path)
