"""Sharded cluster serving: shard planning, per-shard placement, routing.

This package is the layer between MaxEmbed's offline phase and its
serving engine that the paper leaves to "industrial deployment": split
the embedding table across shards (each shard backed by its own
simulated device), run the full offline pipeline per shard, and serve
queries scatter-gather across shard engines so aggregate SSD bandwidth
scales with the shard count.

* :mod:`.planner` — key → shard strategies (modulo hash, frequency-aware
  bin packing, co-occurrence-aware hypergraph cut);
* :mod:`.pipeline` — trace projection and per-shard offline placement;
* :mod:`.router` — the scatter-gather :class:`ClusterEngine`;
* :mod:`.replicas` — R-way replica groups with health-tracked failover
  and hedged fragment dispatch;
* :mod:`.stats` — shard-load, imbalance, and straggler metrics.

A built cluster is saved with its config in one deployment bundle
(:mod:`repro.bundle`).
"""

from .planner import (
    SHARD_STRATEGIES,
    CoOccurrencePlanner,
    FrequencyAwarePlanner,
    ModuloHashPlanner,
    ShardPlan,
    ShardPlanner,
    make_planner,
)
from .pipeline import (
    ShardedLayout,
    build_sharded_layout,
    project_trace,
)
from .replicas import (
    REPLICA_STATES,
    HealthConfig,
    HealthTransition,
    ReplicaGroup,
    ReplicaHealthMonitor,
)
from .router import ClusterEngine
from .stats import ClusterReport

__all__ = [
    "SHARD_STRATEGIES",
    "ShardPlan",
    "ShardPlanner",
    "ModuloHashPlanner",
    "FrequencyAwarePlanner",
    "CoOccurrencePlanner",
    "make_planner",
    "ShardedLayout",
    "build_sharded_layout",
    "project_trace",
    "ClusterEngine",
    "ClusterReport",
    "ReplicaGroup",
    "ReplicaHealthMonitor",
    "HealthConfig",
    "HealthTransition",
    "REPLICA_STATES",
]
