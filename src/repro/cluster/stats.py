"""Cluster-level serving metrics: shard load, imbalance, stragglers.

A scatter-gather query is only as fast as its slowest shard, and a
cluster only scales as well as its least-loaded shard allows.  The
:class:`ClusterReport` therefore wraps the ordinary trace-level
:class:`~repro.serving.stats.ServingReport` (computed over the *merged*
per-query results, so every single-engine metric still applies) with the
two families of metrics that only exist at cluster scope:

* **shard load / imbalance** — per-shard routed queries, page reads and
  SSD keys, summarized as a max-over-mean imbalance factor (1.0 is a
  perfectly balanced cluster; RecShard reports 2–10x for naive plans);
* **stragglers** — per-query gap between the slowest shard and the mean
  of the shards it touched; the price of fan-out that frequency-only
  planners pay and co-occurrence planners avoid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..serving import ServingReport


@dataclass
class ClusterReport:
    """Aggregate metrics for a trace served by a sharded cluster.

    Attributes:
        report: cluster-level serving report over merged query results.
        num_shards: shard count.
        strategy: shard-planner name that produced the plan.
        shard_queries: sub-queries routed to each shard.
        shard_pages_read: SSD page reads issued by each shard.
        shard_ssd_keys: keys each shard served from SSD.
        shard_cache_hits: keys each shard served from its DRAM cache.
        shard_tier_hits: keys each shard served from its pinned DRAM
            tier (all zeros when no tier is configured).
        fanouts: shards touched per query, in serve order.
        straggler_us: per query, slowest-shard latency minus the mean
            latency of the shards it touched (0 for single-shard queries).
        shard_timeouts: fragments that blew the per-shard deadline.
        shard_skipped: fragments rejected by an open circuit breaker.
        shard_errors: fragments lost to worker exceptions (resilient
            mode only; strict mode raises instead).
        shard_shed: fragments shed whole by a degraded fan-out cap
            (overload shedding, not a fault).
        breaker_states: final breaker state per shard ([] = no breakers).
        breaker_transitions: full per-shard breaker transition history
            (lists of :class:`~repro.faults.BreakerTransition`).
        shard_swaps: cumulative hot layout swaps each shard has taken
            (engine lifetime, not per trace; [] = pre-swap report).
        swap_rollbacks: rolling multi-shard swaps that failed and were
            rolled back over the engine's lifetime.
        num_replicas: replicas per shard (1 = no replica groups).
        shard_failovers: fragments each shard served from a surviving
            replica after the primary attempt failed.
        shard_hedges: hedged secondary dispatches issued per shard.
        shard_hedge_wins: hedges that beat the primary per shard.
        shard_hedges_denied: hedges suppressed by the budget per shard
            ([] without replica groups).
        replica_states: final health state of every replica, per shard
            ([] without replica groups).
        replica_transitions: health state-machine transitions per shard
            over the group's lifetime.
        replica_resyncs: dead-replica rebuilds per shard.
        replica_probes: probe queries issued per shard.
    """

    report: ServingReport
    num_shards: int
    strategy: str = "unknown"
    shard_queries: List[int] = field(default_factory=list)
    shard_pages_read: List[int] = field(default_factory=list)
    shard_ssd_keys: List[int] = field(default_factory=list)
    shard_cache_hits: List[int] = field(default_factory=list)
    shard_tier_hits: List[int] = field(default_factory=list)
    fanouts: List[int] = field(default_factory=list)
    straggler_us: List[float] = field(default_factory=list)
    shard_timeouts: List[int] = field(default_factory=list)
    shard_skipped: List[int] = field(default_factory=list)
    shard_errors: List[int] = field(default_factory=list)
    shard_shed: List[int] = field(default_factory=list)
    breaker_states: List[str] = field(default_factory=list)
    breaker_transitions: List[List] = field(default_factory=list)
    shard_swaps: List[int] = field(default_factory=list)
    swap_rollbacks: int = 0
    num_replicas: int = 1
    shard_failovers: List[int] = field(default_factory=list)
    shard_hedges: List[int] = field(default_factory=list)
    shard_hedge_wins: List[int] = field(default_factory=list)
    shard_hedges_denied: List[int] = field(default_factory=list)
    replica_states: List[List[str]] = field(default_factory=list)
    replica_transitions: List[int] = field(default_factory=list)
    replica_resyncs: List[int] = field(default_factory=list)
    replica_probes: List[int] = field(default_factory=list)

    # -- cluster-level convenience -------------------------------------------

    def throughput_qps(self) -> float:
        """Cluster queries per second over the simulated makespan."""
        return self.report.throughput_qps()

    def p99_latency_us(self) -> float:
        """Cluster-level p99 query latency (gathered)."""
        return self.report.percentile_latency_us(99)

    # -- load balance ---------------------------------------------------------

    def load_imbalance(self) -> float:
        """Max-over-mean of per-shard SSD page reads (1.0 = balanced).

        Falls back to routed sub-query counts when nothing hit the SSD
        (fully cache-served traces still have routing skew).
        """
        for loads in (self.shard_pages_read, self.shard_queries):
            total = sum(loads)
            if total:
                return max(loads) / (total / len(loads))
        return 1.0

    # -- scatter-gather costs -------------------------------------------------

    def mean_fanout(self) -> float:
        """Average shards touched per query."""
        return float(np.mean(self.fanouts)) if self.fanouts else 0.0

    def mean_straggler_us(self) -> float:
        """Average straggler gap (slowest shard minus mean shard)."""
        return (
            float(np.mean(self.straggler_us)) if self.straggler_us else 0.0
        )

    # -- fault-domain accounting ----------------------------------------------

    def coverage(self) -> float:
        """Fraction of requested keys served cluster-wide (1.0 = all)."""
        return self.report.coverage()

    def total_breaker_transitions(self) -> int:
        """Breaker state changes across every shard."""
        return sum(len(t) for t in self.breaker_transitions)

    # -- replica-group accounting ----------------------------------------------

    def dead_replicas(self) -> int:
        """Replicas finishing the trace in the ``dead`` state."""
        return sum(states.count("dead") for states in self.replica_states)

    def failover_rate(self) -> float:
        """Failovers per routed sub-query (0.0 without replica groups)."""
        fragments = sum(self.shard_queries)
        if not fragments:
            return 0.0
        return sum(self.shard_failovers) / fragments

    def hedge_rate(self) -> float:
        """Hedges issued per routed sub-query (bounded by the budget)."""
        fragments = sum(self.shard_queries)
        if not fragments:
            return 0.0
        return sum(self.shard_hedges) / fragments

    def as_dict(self) -> Dict[str, float]:
        """Headline metrics for tables and CLI output."""
        return {
            "shards": self.num_shards,
            "strategy": self.strategy,
            "throughput_qps": round(self.throughput_qps()),
            "p99_latency_us": round(self.p99_latency_us(), 2),
            "effective_bandwidth": round(
                self.report.effective_bandwidth_fraction(), 4
            ),
            "cache_hit_rate": round(self.report.cache_hit_rate(), 4),
            "tier_hits": self.report.total_tier_hits,
            "tier_hit_rate": round(self.report.tier_hit_rate(), 4),
            "load_imbalance": round(self.load_imbalance(), 3),
            "mean_fanout": round(self.mean_fanout(), 3),
            "mean_straggler_us": round(self.mean_straggler_us(), 2),
            "coverage": round(self.coverage(), 6),
            "missing_keys": self.report.total_missing_keys,
            "shard_timeouts": sum(self.shard_timeouts),
            "shard_skipped": sum(self.shard_skipped),
            "shard_errors": sum(self.shard_errors),
            "shard_shed": sum(self.shard_shed),
            "degraded_mode_queries": self.report.degraded_mode_queries(),
            "degrade_shed_keys": self.report.total_degrade_shed_keys,
            "breaker_transitions": self.total_breaker_transitions(),
            "shard_swaps": sum(self.shard_swaps),
            "swap_rollbacks": self.swap_rollbacks,
            "replicas": self.num_replicas,
            "failovers": sum(self.shard_failovers),
            "failover_rate": round(self.failover_rate(), 6),
            "hedges": sum(self.shard_hedges),
            "hedge_wins": sum(self.shard_hedge_wins),
            "hedges_denied": sum(self.shard_hedges_denied),
            "hedge_rate": round(self.hedge_rate(), 6),
            "replica_probes": sum(self.replica_probes),
            "replica_resyncs": sum(self.replica_resyncs),
            "replica_transitions": sum(self.replica_transitions),
            "dead_replicas": self.dead_replicas(),
        }
