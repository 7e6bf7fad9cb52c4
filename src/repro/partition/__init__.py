"""Hypergraph partitioners.

The paper's baseline placement pipeline is Bandana's: partition the query
hypergraph with SHP (Social Hash Partitioner, Kabiljo et al. VLDB'17) into
balanced clusters of at most ``d`` vertices, then store each cluster on one
SSD page.  This package provides:

* :class:`VanillaPlacement` — sequential key order, the "vanilla" baseline
  of the paper's Figure 3;
* :class:`RandomPartitioner` — random balanced assignment, used as the SHP
  initializer and as an ablation baseline;
* :class:`ShpPartitioner` — iterative, swap-based SHP minimizing the
  connectivity (fanout) objective: array-backed bisections, optionally
  over parallel subtrees.  Its per-pin python-loop oracle, and the
  set-based λ, live in :mod:`repro.reference`, which nothing here
  imports.
"""

from .base import PartitionResult, Partitioner
from .metrics import (
    edge_connectivities,
    fanout_objective,
    mean_connectivity,
)
from .multilevel import MultilevelConfig, MultilevelPartitioner
from .random_partition import RandomPartitioner
from .streaming import StreamingPartitioner
from .shp import ShpConfig, ShpPartitioner
from .vanilla import VanillaPlacement

# benchmarks/e2e (frozen by BENCHMARK.json) times `partition.shp_s`
# through this name; it is the same object, not a second path, and goes
# when ROADMAP item 4 retires the harness's proxies.
FastShpPartitioner = ShpPartitioner

__all__ = [
    "PartitionResult",
    "Partitioner",
    "VanillaPlacement",
    "RandomPartitioner",
    "ShpPartitioner",
    "ShpConfig",
    "FastShpPartitioner",
    "MultilevelPartitioner",
    "MultilevelConfig",
    "StreamingPartitioner",
    "edge_connectivities",
    "mean_connectivity",
    "fanout_objective",
]
