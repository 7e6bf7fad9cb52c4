"""Tests for repro.partition: result container, metrics, all partitioners."""

import pytest

from repro import (
    PartitionError,
    RandomPartitioner,
    ShpConfig,
    ShpPartitioner,
    VanillaPlacement,
    reference,
)
from repro.hypergraph import Hypergraph
from repro.partition import (
    PartitionResult,
    edge_connectivities,
    fanout_objective,
    mean_connectivity,
)
from repro.partition.base import required_clusters, sequential_assignment


def imbalance(assignment, num_clusters):
    """Max cluster size over the mean, minus 1 (0.0 is balanced): the
    measure the balance assertions below use."""
    if num_clusters <= 0:
        raise PartitionError(f"num_clusters must be positive: {num_clusters}")
    sizes = [0] * num_clusters
    for cluster in assignment:
        sizes[cluster] += 1
    return max(sizes) / (len(assignment) / num_clusters) - 1.0


class TestPartitionResult:
    def test_clusters_materialize(self):
        result = PartitionResult([0, 1, 0, 1], 2, 2)
        assert result.clusters() == [[0, 2], [1, 3]]
        assert result.cluster_sizes() == [2, 2]
        assert result.assignment[2] == 0
        assert result.num_vertices == 4

    def test_rejects_over_capacity(self):
        with pytest.raises(PartitionError):
            PartitionResult([0, 0, 0], 1, 2)

    def test_rejects_invalid_cluster_id(self):
        with pytest.raises(PartitionError):
            PartitionResult([0, 2], 2, 4)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(PartitionError):
            PartitionResult([0], 1, 0)

    def test_allows_empty_clusters(self):
        result = PartitionResult([0, 0], 3, 2)
        assert result.cluster_sizes() == [2, 0, 0]


class TestBaseHelpers:
    @pytest.mark.parametrize(
        "n,cap,expected", [(10, 4, 3), (16, 16, 1), (17, 16, 2), (1, 5, 1)]
    )
    def test_required_clusters(self, n, cap, expected):
        assert required_clusters(n, cap) == expected

    def test_required_clusters_rejects_bad_args(self):
        with pytest.raises(PartitionError):
            required_clusters(0, 4)
        with pytest.raises(PartitionError):
            required_clusters(4, 0)

    def test_sequential_assignment_blocks(self):
        assignment = sequential_assignment(10, 4, 3)
        assert assignment == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]

    def test_sequential_assignment_respects_capacity(self):
        with pytest.raises(PartitionError):
            sequential_assignment(10, 2, 3)

    def test_resolve_num_clusters_rejects_too_few(self, tiny_graph):
        with pytest.raises(PartitionError):
            VanillaPlacement().partition(tiny_graph, 4, num_clusters=2)


class TestMetrics:
    def test_edge_connectivities(self, tiny_graph):
        # Put community {0..3} in cluster 0, {4..7} in 1, rest in 2.
        assignment = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
        lambdas = edge_connectivities(tiny_graph, assignment)
        assert lambdas[0] == 1  # (0,1,2,3) all in cluster 0
        assert lambdas[6] == 2  # (3,7) straddles clusters 0 and 1

    def test_weighted_objective(self):
        g = Hypergraph(4, [(0, 1), (2, 3)], weights=[5, 1])
        split = [0, 1, 0, 0]  # cuts the weight-5 edge only
        assert fanout_objective(g, split) == 5

    def test_mean_connectivity_weighted(self):
        g = Hypergraph(4, [(0, 1), (2, 3)], weights=[3, 1])
        assignment = [0, 1, 0, 0]
        assert mean_connectivity(g, assignment) == pytest.approx(
            (2 * 3 + 1 * 1) / 4
        )

    def test_metrics_reject_wrong_length(self, tiny_graph):
        with pytest.raises(PartitionError):
            edge_connectivities(tiny_graph, [0, 1])

    def test_imbalance_perfect(self):
        assert imbalance([0, 0, 1, 1], 2) == 0.0

    def test_imbalance_skewed(self):
        assert imbalance([0, 0, 0, 1], 2) == pytest.approx(0.5)

    def test_imbalance_rejects_bad_cluster_count(self):
        with pytest.raises(PartitionError):
            imbalance([0], 0)


class TestVanilla:
    def test_sequential_layout(self, tiny_graph):
        result = VanillaPlacement().partition(tiny_graph, 4)
        assert result.assignment == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
        assert result.num_clusters == 3

    def test_respects_explicit_cluster_count(self, tiny_graph):
        result = VanillaPlacement().partition(tiny_graph, 4, num_clusters=4)
        assert result.num_clusters == 4
        assert max(result.cluster_sizes()) <= 4


class TestRandom:
    def test_balanced_and_complete(self, small_graph):
        result = RandomPartitioner(seed=1).partition(small_graph, 16)
        assert imbalance(result.assignment, result.num_clusters) <= 0.2
        assert len(result.assignment) == small_graph.num_vertices

    def test_deterministic_under_seed(self, tiny_graph):
        a = RandomPartitioner(seed=9).partition(tiny_graph, 4)
        b = RandomPartitioner(seed=9).partition(tiny_graph, 4)
        assert a.assignment == b.assignment

    def test_different_seeds_differ(self, small_graph):
        a = RandomPartitioner(seed=1).partition(small_graph, 16)
        b = RandomPartitioner(seed=2).partition(small_graph, 16)
        assert a.assignment != b.assignment


class TestShp:
    """Algorithmic properties, on the partitioner and on its oracle."""

    shp = ShpPartitioner

    def test_recovers_planted_communities(self, tiny_graph):
        result = self.shp(ShpConfig(seed=0)).partition(tiny_graph, 4)
        # Communities {0,1,2,3} and {4,5,6,7} should each land on one page.
        assert len({result.assignment[v] for v in (0, 1, 2, 3)}) == 1
        assert len({result.assignment[v] for v in (4, 5, 6, 7)}) == 1

    def test_beats_random_on_structured_trace(self, small_graph):
        random_result = RandomPartitioner(seed=0).partition(small_graph, 16)
        shp_result = self.shp(ShpConfig(seed=0)).partition(
            small_graph, 16
        )
        assert fanout_objective(
            small_graph, shp_result.assignment
        ) < fanout_objective(small_graph, random_result.assignment)

    def test_balance_is_preserved(self, small_graph):
        result = self.shp(ShpConfig(seed=0)).partition(small_graph, 16)
        assert max(result.cluster_sizes()) <= 16
        assert imbalance(result.assignment, result.num_clusters) <= 0.2

    def test_deterministic_under_seed(self, tiny_graph):
        a = self.shp(ShpConfig(seed=4)).partition(tiny_graph, 4)
        b = self.shp(ShpConfig(seed=4)).partition(tiny_graph, 4)
        assert a.assignment == b.assignment

    def test_zero_iterations_is_random_but_valid(self, tiny_graph):
        result = self.shp(
            ShpConfig(max_iterations=0, seed=0)
        ).partition(tiny_graph, 4)
        assert sorted(result.cluster_sizes()) == [4, 4, 4]

    def test_single_cluster_graph(self):
        g = Hypergraph(3, [(0, 1, 2)])
        result = self.shp().partition(g, 4)
        assert result.num_clusters == 1
        assert result.assignment == [0, 0, 0]

    def test_finer_partition_request(self, small_graph):
        finer = small_graph.num_vertices // 16 + 10
        result = self.shp(ShpConfig(seed=0)).partition(
            small_graph, 16, num_clusters=finer
        )
        assert result.num_clusters == finer
        assert max(result.cluster_sizes()) <= 16

    def test_rejects_negative_iterations(self):
        with pytest.raises(PartitionError):
            ShpConfig(max_iterations=-1)

    def test_more_iterations_never_hurt_much(self, small_graph):
        quick = self.shp(ShpConfig(max_iterations=2, seed=0)).partition(
            small_graph, 16
        )
        long = self.shp(ShpConfig(max_iterations=30, seed=0)).partition(
            small_graph, 16
        )
        assert fanout_objective(small_graph, long.assignment) <= (
            fanout_objective(small_graph, quick.assignment) * 1.05
        )


class TestReferenceShp(TestShp):
    shp = reference.ShpPartitioner
