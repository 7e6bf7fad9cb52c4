"""Tests for repro.partition.multilevel: the KaHyPar-style comparator."""

import pytest

from repro import PartitionError, RandomPartitioner
from repro.hypergraph import Hypergraph
from repro.partition import (
    MultilevelConfig,
    MultilevelPartitioner,
    fanout_objective,
)
from repro.partition.multilevel import _Level


class TestConfig:
    def test_defaults(self):
        config = MultilevelConfig()
        assert config.coarsen_factor == 4.0
        assert config.max_levels == 12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"coarsen_factor": 0.5},
            {"max_levels": 0},
            {"refine_rounds": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(PartitionError):
            MultilevelConfig(**kwargs)


class TestMultilevelPartitioner:
    def test_recovers_planted_communities(self, tiny_graph):
        result = MultilevelPartitioner().partition(tiny_graph, 4)
        assert len({result.assignment[v] for v in (0, 1, 2, 3)}) == 1
        assert len({result.assignment[v] for v in (4, 5, 6, 7)}) == 1

    def test_valid_and_capacity_bounded(self, small_graph):
        result = MultilevelPartitioner().partition(small_graph, 16)
        assert len(result.assignment) == small_graph.num_vertices
        assert max(result.cluster_sizes()) <= 16

    def test_beats_random(self, small_graph):
        random_result = RandomPartitioner(seed=0).partition(small_graph, 16)
        multilevel = MultilevelPartitioner().partition(small_graph, 16)
        assert fanout_objective(
            small_graph, multilevel.assignment
        ) < fanout_objective(small_graph, random_result.assignment)

    def test_deterministic_under_seed(self, tiny_graph):
        a = MultilevelPartitioner(MultilevelConfig(seed=5)).partition(
            tiny_graph, 4
        )
        b = MultilevelPartitioner(MultilevelConfig(seed=5)).partition(
            tiny_graph, 4
        )
        assert a.assignment == b.assignment

    def test_reasonable_balance(self, small_graph):
        result = MultilevelPartitioner().partition(small_graph, 16)
        # Affinity packing tolerates imbalance but capacity bounds it:
        # no cluster is more than twice the mean size.
        mean = len(result.assignment) / result.num_clusters
        assert max(result.cluster_sizes()) <= 2 * mean

    def test_singleton_edges_ignored(self):
        g = Hypergraph(8, [(0,), (1,), (2, 3), (4, 5)])
        result = MultilevelPartitioner().partition(g, 4)
        assert result.assignment[2] == result.assignment[3]
        assert result.assignment[4] == result.assignment[5]

    def test_single_cluster(self):
        g = Hypergraph(3, [(0, 1, 2)])
        result = MultilevelPartitioner().partition(g, 4)
        assert result.num_clusters == 1

    def test_zero_refine_rounds_still_valid(self, tiny_graph):
        config = MultilevelConfig(refine_rounds=0)
        result = MultilevelPartitioner(config).partition(tiny_graph, 4)
        assert len(result.assignment) == 12

    def test_finer_cluster_request(self, small_graph):
        finer = small_graph.num_vertices // 16 + 8
        result = MultilevelPartitioner().partition(
            small_graph, 16, num_clusters=finer
        )
        # Fragmentation may open a few overflow clusters beyond the request.
        assert finer <= result.num_clusters <= finer + 8


class TestCoarsening:
    def test_contracts_heavy_pairs(self):
        # Vertices 0 and 1 share a heavy pair-edge: they must merge first.
        import numpy as np

        edges = [([0, 1], 10), ([2, 3], 1), ([0, 2], 1)]
        level = MultilevelPartitioner._coarsen(
            edges, [1, 1, 1, 1], capacity=4, rng=np.random.default_rng(0)
        )
        assert level is not None
        assert level.parent_of[0] == level.parent_of[1]

    def test_respects_capacity(self):
        import numpy as np

        edges = [([0, 1], 5)]
        level = MultilevelPartitioner._coarsen(
            edges, [3, 3], capacity=4, rng=np.random.default_rng(0)
        )
        # Merging would make a weight-6 super-vertex > capacity 4.
        assert level is None or level.parent_of[0] != level.parent_of[1]

    def test_projected_edges_drop_internal(self):
        import numpy as np

        edges = [([0, 1], 1), ([0, 1, 2], 1)]
        level = MultilevelPartitioner._coarsen(
            edges, [1, 1, 1], capacity=4, rng=np.random.default_rng(0)
        )
        if level is not None and level.parent_of[0] == level.parent_of[1]:
            # Edge (0,1) collapsed inside one super-vertex: dropped.
            sizes = [len(v) for v, _ in level.edges]
            assert all(s > 1 for s in sizes)

    def test_level_dataclass(self):
        level = _Level(edges=[([0], 1)], vertex_weight=[2], parent_of=[0])
        assert level.vertex_weight == [2]


class TestEndToEnd:
    def test_offline_build_with_multilevel(self, criteo_small):
        from repro import MaxEmbedConfig
        from repro.core import build_offline_layout

        history, live = criteo_small
        layout = build_offline_layout(
            history,
            MaxEmbedConfig(partitioner="multilevel", replication_ratio=0.2),
        )
        assert layout.num_keys == history.num_keys
        from repro.metrics import evaluate_placement

        evaluation = evaluate_placement(layout, live)
        assert evaluation.effective_fraction() > 0
