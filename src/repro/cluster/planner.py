"""Shard planners: assign every embedding key to one of ``n`` shards.

Industrial DLRM deployments split embedding tables across devices or
hosts; *how* keys are split dominates load balance and tail latency
(RecShard, AutoShard).  A :class:`ShardPlan` is the cluster-level
analogue of a page placement: it maps each key to the shard whose device
will store (and serve) it.  Three strategies are provided:

* :class:`ModuloHashPlanner` — ``key % n``, the hash baseline every
  production system starts from.  Oblivious to both skew and
  co-occurrence.
* :class:`FrequencyAwarePlanner` — RecShard-style bin packing: keys are
  sorted by trace frequency and greedily placed on the least-loaded
  shard, so hot keys spread *across* shards and no single device becomes
  the bandwidth bottleneck.
* :class:`CoOccurrencePlanner` — cuts the query hypergraph into ``n``
  blocks first (the same SHP machinery the page partitioner uses, at
  shard granularity), so co-appearing keys land on the *same* shard.
  Queries then touch fewer shards, and the per-shard SHP + replication
  pass that runs afterwards sees the full co-occurrence signal locally.

Planners only decide key → shard; the per-shard page placement is the
existing offline pipeline, re-run per shard (:mod:`.pipeline`).
"""

from __future__ import annotations

import heapq
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..errors import ConfigError, PartitionError
from ..hypergraph import build_weighted_hypergraph
from ..partition import ShpConfig, ShpPartitioner
from ..types import QueryTrace


@dataclass(frozen=True)
class ShardPlan:
    """An assignment of every key to one shard, with local-id remapping.

    Per-shard page layouts index keys densely from 0, so the plan keeps
    both directions of the mapping:

    * ``assignment[key]`` — the shard owning ``key``;
    * ``local_ids[key]`` — ``key``'s dense id within its shard;
    * ``shard_keys[s][local]`` — the global key back from a local id.

    Attributes:
        num_shards: shard count.
        assignment: global key → shard id.
        strategy: planner name that produced this plan (for reports).
    """

    num_shards: int
    assignment: Tuple[int, ...]
    strategy: str = "unknown"
    _local_ids: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    _shard_keys: Tuple[Tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ConfigError(
                f"num_shards must be positive, got {self.num_shards}"
            )
        if not self.assignment:
            raise ConfigError("a shard plan must cover at least one key")
        shard_keys: List[List[int]] = [[] for _ in range(self.num_shards)]
        local_ids = []
        for key, shard in enumerate(self.assignment):
            if not 0 <= shard < self.num_shards:
                raise ConfigError(
                    f"key {key} assigned to invalid shard {shard}"
                )
            local_ids.append(len(shard_keys[shard]))
            shard_keys[shard].append(key)
        empty = [s for s, keys in enumerate(shard_keys) if not keys]
        if empty:
            raise ConfigError(
                f"shards {empty[:5]} own no keys; lower num_shards"
            )
        object.__setattr__(self, "_local_ids", tuple(local_ids))
        object.__setattr__(
            self, "_shard_keys", tuple(tuple(k) for k in shard_keys)
        )

    # -- mapping ------------------------------------------------------------

    @property
    def num_keys(self) -> int:
        """Size of the global key space."""
        return len(self.assignment)

    @property
    def local_ids(self) -> Tuple[int, ...]:
        """Global key → dense id within its shard (parallel to ``assignment``)."""
        return self._local_ids

    def shard_of(self, key: int) -> int:
        """Shard owning ``key``."""
        return self.assignment[key]

    def local_id(self, key: int) -> int:
        """``key``'s dense id within its shard."""
        return self._local_ids[key]

    def global_id(self, shard: int, local: int) -> int:
        """Global key for ``local`` id on ``shard``."""
        return self._shard_keys[shard][local]

    def shard_keys(self, shard: int) -> Tuple[int, ...]:
        """Global keys owned by ``shard``, in local-id order."""
        return self._shard_keys[shard]

    def shard_sizes(self) -> List[int]:
        """Keys per shard."""
        return [len(k) for k in self._shard_keys]

    # -- balance diagnostics ------------------------------------------------

    def size_imbalance(self) -> float:
        """Max shard key count over the mean (1.0 = perfectly even)."""
        sizes = self.shard_sizes()
        mean = sum(sizes) / len(sizes)
        return max(sizes) / mean if mean else 0.0

    def load_imbalance(self, trace: QueryTrace) -> float:
        """Max over mean of per-shard *requested-key* load on ``trace``."""
        loads = self.shard_loads(trace)
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean else 0.0

    def shard_loads(self, trace: QueryTrace) -> List[int]:
        """Distinct-key lookups routed to each shard over ``trace``."""
        loads = [0] * self.num_shards
        for query in trace:
            for key in query.unique_keys():
                loads[self.assignment[key]] += 1
        return loads

    def mean_fanout(self, trace: QueryTrace) -> float:
        """Average number of shards one query scatters to."""
        if not len(trace):
            return 0.0
        total = 0
        for query in trace:
            total += len({self.assignment[k] for k in query.unique_keys()})
        return total / len(trace)


class ShardPlanner(ABC):
    """Strategy interface: map a trace's key space onto ``n`` shards."""

    name = "abstract"

    @abstractmethod
    def plan(self, trace: QueryTrace, num_shards: int) -> ShardPlan:
        """Assign every key in ``trace``'s universe to a shard."""

    @staticmethod
    def _check(trace: QueryTrace, num_shards: int) -> None:
        if num_shards <= 0:
            raise ConfigError(
                f"num_shards must be positive, got {num_shards}"
            )
        if num_shards > trace.num_keys:
            raise ConfigError(
                f"{num_shards} shards cannot each own a key from a "
                f"{trace.num_keys}-key table"
            )


class ModuloHashPlanner(ShardPlanner):
    """``key % n`` — the skew-oblivious hash baseline."""

    name = "modulo"

    def plan(self, trace: QueryTrace, num_shards: int) -> ShardPlan:
        self._check(trace, num_shards)
        return ShardPlan(
            num_shards,
            tuple(k % num_shards for k in range(trace.num_keys)),
            strategy=self.name,
        )


class FrequencyAwarePlanner(ShardPlanner):
    """Greedy frequency bin packing: hot keys spread across shards.

    Keys are sorted by descending trace frequency and assigned one by one
    to the shard with the least accumulated frequency (ties broken by
    shard id, keys capped at ``ceil(num_keys / n)`` per shard so the
    storage footprint stays balanced too).  This is the classic LPT
    schedule RecShard applies at table granularity, here at key
    granularity.
    """

    name = "frequency"

    def plan(self, trace: QueryTrace, num_shards: int) -> ShardPlan:
        self._check(trace, num_shards)
        freq = [0] * trace.num_keys
        for query in trace:
            for key in query.unique_keys():
                freq[key] += 1
        capacity = math.ceil(trace.num_keys / num_shards)
        order = sorted(range(trace.num_keys), key=lambda k: (-freq[k], k))
        # (accumulated load, shard id) min-heap; full shards drop out.
        heap = [(0, s) for s in range(num_shards)]
        heapq.heapify(heap)
        sizes = [0] * num_shards
        assignment = [0] * trace.num_keys
        for key in order:
            load, shard = heapq.heappop(heap)
            assignment[key] = shard
            sizes[shard] += 1
            if sizes[shard] < capacity:
                heapq.heappush(heap, (load + freq[key], shard))
        return ShardPlan(num_shards, tuple(assignment), strategy=self.name)


class CoOccurrencePlanner(ShardPlanner):
    """Cut the query hypergraph into shards before per-shard placement.

    Runs the SHP bisection machinery with ``num_clusters = n`` and a
    per-shard key capacity of ``ceil(num_keys / n)``: co-appearing keys
    stay on one shard, so queries scatter to fewer devices and the
    per-shard SHP + replication pass keeps its co-occurrence signal
    local (replica pages never straddle shards by construction).
    """

    name = "cooccurrence"

    def __init__(self, shp: "ShpConfig | None" = None, seed: int = 0) -> None:
        self.shp = shp or ShpConfig(seed=seed)

    def plan(self, trace: QueryTrace, num_shards: int) -> ShardPlan:
        self._check(trace, num_shards)
        if num_shards == 1:
            return ShardPlan(
                1, (0,) * trace.num_keys, strategy=self.name
            )
        graph = build_weighted_hypergraph(trace)
        capacity = math.ceil(trace.num_keys / num_shards)
        result = ShpPartitioner(self.shp).partition(
            graph, capacity, num_clusters=num_shards
        )
        assignment = list(result.assignment)
        used = sorted(set(assignment))
        if len(used) < num_shards:  # pragma: no cover - SHP fills all blocks
            raise PartitionError(
                f"co-occurrence cut produced {len(used)} non-empty shards "
                f"of {num_shards}"
            )
        return ShardPlan(num_shards, tuple(assignment), strategy=self.name)


SHARD_STRATEGIES = ("modulo", "frequency", "cooccurrence")


def make_planner(
    strategy: str, seed: int = 0, shp: "ShpConfig | None" = None
) -> ShardPlanner:
    """Instantiate a planner by strategy name."""
    if strategy == "modulo":
        return ModuloHashPlanner()
    if strategy == "frequency":
        return FrequencyAwarePlanner()
    if strategy == "cooccurrence":
        return CoOccurrencePlanner(shp=shp, seed=seed)
    raise ConfigError(
        f"unknown shard strategy {strategy!r}; "
        f"choose from {SHARD_STRATEGIES}"
    )
