"""Partitioner interface and the partition result container."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List

from ..errors import PartitionError
from ..hypergraph import Hypergraph


@dataclass
class PartitionResult:
    """A balanced assignment of vertices to clusters.

    Attributes:
        assignment: ``assignment[v]`` is the cluster id of vertex ``v``.
        num_clusters: total number of clusters (``B = ceil(N / capacity)``).
        capacity: maximum vertices per cluster (``d`` in the paper).
    """

    assignment: List[int]
    num_clusters: int
    capacity: int
    _clusters: "List[List[int]] | None" = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise PartitionError(f"capacity must be positive, got {self.capacity}")
        if self.num_clusters <= 0:
            raise PartitionError(
                f"num_clusters must be positive, got {self.num_clusters}"
            )
        sizes = [0] * self.num_clusters
        for v, c in enumerate(self.assignment):
            if not 0 <= c < self.num_clusters:
                raise PartitionError(
                    f"vertex {v} assigned to invalid cluster {c}"
                )
            sizes[c] += 1
        over = [c for c, s in enumerate(sizes) if s > self.capacity]
        if over:
            raise PartitionError(
                f"clusters {over[:5]} exceed capacity {self.capacity}"
            )

    @property
    def num_vertices(self) -> int:
        """Number of assigned vertices."""
        return len(self.assignment)

    def clusters(self) -> List[List[int]]:
        """Vertices of each cluster, in ascending vertex order (cached)."""
        if self._clusters is None:
            clusters: List[List[int]] = [[] for _ in range(self.num_clusters)]
            for v, c in enumerate(self.assignment):
                clusters[c].append(v)
            self._clusters = clusters
        return self._clusters

    def cluster_sizes(self) -> List[int]:
        """Size of each cluster."""
        return [len(c) for c in self.clusters()]


def required_clusters(num_vertices: int, capacity: int) -> int:
    """Smallest cluster count that fits ``num_vertices`` at ``capacity`` each."""
    if capacity <= 0:
        raise PartitionError(f"capacity must be positive, got {capacity}")
    if num_vertices <= 0:
        raise PartitionError(
            f"num_vertices must be positive, got {num_vertices}"
        )
    return math.ceil(num_vertices / capacity)


class Partitioner(ABC):
    """Strategy interface: map a hypergraph to a balanced partition."""

    @abstractmethod
    def partition(
        self,
        graph: Hypergraph,
        capacity: int,
        num_clusters: "int | None" = None,
    ) -> PartitionResult:
        """Partition ``graph`` into clusters of at most ``capacity`` vertices.

        Args:
            graph: the query hypergraph.
            capacity: maximum vertices per cluster (``d``).
            num_clusters: override the cluster count; defaults to
                ``ceil(num_vertices / capacity)``.  Used by the FPR strawman,
                which deliberately partitions into *more* (finer) clusters.
        """

    @staticmethod
    def resolve_num_clusters(
        graph: Hypergraph, capacity: int, num_clusters: "int | None"
    ) -> int:
        """Validate and default the cluster count for ``graph``."""
        minimum = required_clusters(graph.num_vertices, capacity)
        if num_clusters is None:
            return minimum
        if num_clusters < minimum:
            raise PartitionError(
                f"{num_clusters} clusters of {capacity} cannot hold "
                f"{graph.num_vertices} vertices (need >= {minimum})"
            )
        return num_clusters


def sequential_assignment(
    num_vertices: int, capacity: int, num_clusters: int
) -> List[int]:
    """Assign vertices round-robin-free, block-sequentially: v → v // size.

    Blocks are sized so all ``num_clusters`` clusters are used and none
    exceeds ``capacity``.
    """
    size = math.ceil(num_vertices / num_clusters)
    if size > capacity:
        raise PartitionError(
            f"sequential blocks of {size} exceed capacity {capacity}"
        )
    return [min(v // size, num_clusters - 1) for v in range(num_vertices)]
