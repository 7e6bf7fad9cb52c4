"""Replication strategy interface.

A strategy consumes the query hypergraph, a page capacity ``d``, and a
replication ratio ``r``, and produces a page layout whose replica pages do
not exceed ``r`` times the base page count — the Rep-MBEP space constraint.
Strategies receive the partitioner to use (SHP in the paper; anything
implementing :class:`~repro.partition.Partitioner` works), so partitioner
ablations compose with every strategy.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from ..errors import ConfigError
from ..hypergraph import Hypergraph
from ..partition import Partitioner, ShpPartitioner
from ..placement import PageLayout


class ReplicationStrategy(ABC):
    """Strategy interface for the offline replication pass."""

    def __init__(self, partitioner: "Partitioner | None" = None) -> None:
        self.partitioner = partitioner or ShpPartitioner()

    @abstractmethod
    def build_layout(
        self, graph: Hypergraph, capacity: int, ratio: float
    ) -> PageLayout:
        """Produce a replicated page layout.

        Args:
            graph: query hypergraph over the embedding keys.
            capacity: keys per SSD page (``d``).
            ratio: replication ratio ``r`` — replica pages may not exceed
                ``r`` times the base page count.
        """

    @staticmethod
    def check_ratio(ratio: float) -> float:
        """Validate a replication ratio (``r >= 0``)."""
        if ratio < 0:
            raise ConfigError(f"replication ratio must be >= 0, got {ratio}")
        return ratio

    @staticmethod
    def replica_page_budget(num_keys: int, capacity: int, ratio: float) -> int:
        """Number of replica pages allowed: ``floor(r · N / d)``."""
        if capacity <= 0:
            raise ConfigError(f"capacity must be positive, got {capacity}")
        return math.floor(ratio * num_keys / capacity)

