"""Tests for repro.replication: scoring and the three strategies."""

import math

import pytest

from repro import (
    ConfigError,
    ConnectivityPriorityStrategy,
    FprStrategy,
    RppStrategy,
    ShpConfig,
    ShpPartitioner,
    VanillaPlacement,
)
from repro.hypergraph import Hypergraph, build_weighted_hypergraph
from repro.metrics import evaluate_placement
from repro.replication import connectivity_scores, hotness_scores
from repro.replication.base import ReplicationStrategy
from repro.replication.scoring import top_scored_vertices


@pytest.fixture
def partitioned_graph():
    """Graph + a fixed partition where edge (3, 7) straddles clusters."""
    graph = Hypergraph(
        12,
        [
            (0, 1, 2, 3),
            (0, 1, 2),
            (4, 5, 6, 7),
            (4, 5, 6),
            (8, 9),
            (10, 11),
            (3, 7),
        ],
    )
    assignment = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
    return graph, assignment


class TestScoring:
    def test_connectivity_scores_reward_straddling_vertices(
        self, partitioned_graph
    ):
        graph, assignment = partitioned_graph
        scores = connectivity_scores(graph, assignment)
        # Only edge (3, 7) has lambda > 1, contributing 1 to each endpoint.
        assert scores[3] == 1
        assert scores[7] == 1
        assert scores[0] == 0
        assert scores[8] == 0

    def test_connectivity_scores_are_weighted(self):
        graph = Hypergraph(4, [(0, 1), (2, 3)], weights=[5, 1])
        assignment = [0, 1, 0, 0]  # cuts the weight-5 edge
        scores = connectivity_scores(graph, assignment)
        assert scores[0] == 5
        assert scores[1] == 5
        assert scores[2] == 0

    def test_hotness_scores_are_degrees(self, partitioned_graph):
        graph, _ = partitioned_graph
        assert hotness_scores(graph) == graph.degrees()

    def test_top_scored_excludes_zero_scores(self):
        assert top_scored_vertices([3, 0, 5, 0], 4) == [2, 0]

    def test_top_scored_tie_breaks_by_id(self):
        assert top_scored_vertices([2, 2, 2], 2) == [0, 1]

    def test_top_scored_zero_count(self):
        assert top_scored_vertices([1, 2], 0) == []


class TestConnectivityPriority:
    def test_base_pages_are_untouched(self, partitioned_graph):
        graph, _ = partitioned_graph
        partitioner = ShpPartitioner(ShpConfig(seed=0))
        plain = partitioner.partition(graph, 4)
        strategy = ConnectivityPriorityStrategy(
            ShpPartitioner(ShpConfig(seed=0))
        )
        layout = strategy.build_layout(graph, 4, ratio=0.5)
        base_pages = [tuple(c) for c in plain.clusters() if c]
        assert layout.pages()[: len(base_pages)] == base_pages

    def test_replica_budget_respected(self, small_graph):
        strategy = ConnectivityPriorityStrategy(
            ShpPartitioner(ShpConfig(max_iterations=4, seed=0))
        )
        for ratio in (0.1, 0.4, 0.8):
            layout = strategy.build_layout(small_graph, 16, ratio)
            budget = ReplicationStrategy.replica_page_budget(
                small_graph.num_vertices, 16, ratio
            )
            assert layout.num_replica_pages <= budget

    def test_zero_ratio_means_no_replicas(self, small_graph):
        strategy = ConnectivityPriorityStrategy(
            ShpPartitioner(ShpConfig(max_iterations=4, seed=0))
        )
        layout = strategy.build_layout(small_graph, 16, 0.0)
        assert layout.num_replica_pages == 0

    def test_replica_pages_start_with_base_vertex(self, small_graph):
        strategy = ConnectivityPriorityStrategy(
            ShpPartitioner(ShpConfig(max_iterations=4, seed=0))
        )
        layout = strategy.build_layout(small_graph, 16, 0.2)
        for page_id in range(layout.num_base_pages, layout.num_pages):
            page = layout.page(page_id)
            assert len(page) >= 2  # base + at least one companion

    def test_no_duplicate_replica_pages(self, small_graph):
        strategy = ConnectivityPriorityStrategy(
            ShpPartitioner(ShpConfig(max_iterations=4, seed=0))
        )
        layout = strategy.build_layout(small_graph, 16, 0.4)
        replica_sets = [
            frozenset(layout.page(p))
            for p in range(layout.num_base_pages, layout.num_pages)
        ]
        assert len(replica_sets) == len(set(replica_sets))

    def test_improves_effective_bandwidth(self, criteo_small):
        history, live = criteo_small
        graph = build_weighted_hypergraph(history)
        partitioner = ShpPartitioner(ShpConfig(max_iterations=8, seed=0))
        strategy = ConnectivityPriorityStrategy(partitioner)
        base = strategy.build_layout(graph, 16, 0.0)
        replicated = strategy.build_layout(graph, 16, 0.4)
        assert (
            evaluate_placement(replicated, live).effective_fraction()
            > evaluate_placement(base, live).effective_fraction()
        )

    def test_rejects_negative_ratio(self, small_graph):
        with pytest.raises(ConfigError):
            ConnectivityPriorityStrategy().build_layout(small_graph, 16, -0.1)

    def test_exclude_home_cluster_ablation(self, small_graph):
        # Disabling home-cluster exclusion may duplicate co-located pairs;
        # the layout must still be valid and within budget.
        strategy = ConnectivityPriorityStrategy(
            ShpPartitioner(ShpConfig(max_iterations=4, seed=0)),
            exclude_home_cluster=False,
        )
        layout = strategy.build_layout(small_graph, 16, 0.2)
        assert layout.num_replica_pages >= 0
        assert max(len(p) for p in layout.pages()) <= 16


class TestRpp:
    def test_layout_valid_and_within_budget(self, small_graph):
        strategy = RppStrategy(ShpPartitioner(ShpConfig(max_iterations=4, seed=0)))
        layout = strategy.build_layout(small_graph, 16, 0.2)
        assert layout.num_keys == small_graph.num_vertices
        assert max(len(p) for p in layout.pages()) <= 16
        # RPP folds replicas into base clusters, so count the pages over
        # a plain partition's (+1 for ceil/floor rounding at this scale).
        budget = ReplicationStrategy.replica_page_budget(
            small_graph.num_vertices, 16, 0.2
        )
        extra = layout.num_pages - math.ceil(small_graph.num_vertices / 16)
        assert extra <= budget + 1

    def test_space_overhead_tracks_ratio(self, small_graph):
        strategy = RppStrategy(ShpPartitioner(ShpConfig(max_iterations=4, seed=0)))
        layout = strategy.build_layout(small_graph, 16, 0.4)
        assert 0.0 < layout.space_overhead() <= 0.45

    def test_zero_ratio_equals_plain_partition_page_count(self, small_graph):
        strategy = RppStrategy(ShpPartitioner(ShpConfig(max_iterations=4, seed=0)))
        layout = strategy.build_layout(small_graph, 16, 0.0)
        assert layout.space_overhead() == pytest.approx(0.0, abs=0.05)

    def test_replicates_hottest_vertices(self):
        # Vertex 0 is in every edge; at ratio enough for one replica,
        # vertex 0 must be the one replicated.
        graph = Hypergraph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6, 7)])
        strategy = RppStrategy(ShpPartitioner(ShpConfig(seed=0)))
        layout = strategy.build_layout(graph, 4, ratio=0.125)  # 1 replica
        counts = layout.replica_counts()
        assert counts[0] == max(counts)


class TestFpr:
    def test_layout_valid(self, small_graph):
        strategy = FprStrategy(ShpPartitioner(ShpConfig(max_iterations=4, seed=0)))
        layout = strategy.build_layout(small_graph, 16, 0.2)
        assert layout.num_keys == small_graph.num_vertices
        assert max(len(p) for p in layout.pages()) <= 16

    def test_finer_partition_produces_more_pages(self, small_graph):
        plain = FprStrategy(
            ShpPartitioner(ShpConfig(max_iterations=4, seed=0))
        ).build_layout(small_graph, 16, 0.0)
        finer = FprStrategy(
            ShpPartitioner(ShpConfig(max_iterations=4, seed=0))
        ).build_layout(small_graph, 16, 0.5)
        assert finer.num_pages > plain.num_pages

    def test_fills_clusters_with_coappearing_vertices(self):
        graph = Hypergraph(8, [(0, 1, 2, 3), (0, 1, 2, 3), (4, 5, 6, 7)])
        strategy = FprStrategy(ShpPartitioner(ShpConfig(seed=0)))
        layout = strategy.build_layout(graph, 4, ratio=1.0)
        # With capacity 4 and ratio 1.0 we get 4 clusters of ~2 vertices,
        # each refilled to 4 with its most co-appearing partners.
        for page in layout.pages():
            assert len(page) == 4

    def test_works_with_vanilla_partitioner(self, small_graph):
        layout = FprStrategy(VanillaPlacement()).build_layout(
            small_graph, 16, 0.2
        )
        assert layout.num_keys == small_graph.num_vertices


class TestBudgetHelpers:
    @pytest.mark.parametrize(
        "n,d,r,expected",
        [(160, 16, 0.1, 1), (160, 16, 0.5, 5), (100, 10, 0.0, 0)],
    )
    def test_replica_page_budget(self, n, d, r, expected):
        assert ReplicationStrategy.replica_page_budget(n, d, r) == expected

    def test_budget_rejects_bad_capacity(self):
        with pytest.raises(ConfigError):
            ReplicationStrategy.replica_page_budget(10, 0, 0.1)

    def test_check_ratio(self):
        assert ReplicationStrategy.check_ratio(0.3) == 0.3
        with pytest.raises(ConfigError):
            ReplicationStrategy.check_ratio(-1)
