"""Per-query results and trace-level serving reports.

A :class:`QueryResult` records what one query cost; ``aggregate_results``
rolls a list of them into the :class:`ServingReport` that the experiment
harness prints: throughput, latency percentiles, effective bandwidth, and
the valid-embeddings-per-read distribution (paper Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..errors import ServingError
from ..utils.reservoir import percentile
from .executor import ExecutionResult


@dataclass
class QueryResult:
    """Outcome of serving one query.

    A plain (unfrozen) dataclass, like every record built per query, per
    fragment or per device command: handed to exactly one receiver and
    not touched by its producer afterwards.  Configuration, inputs and
    plans are the frozen, hashable values (DESIGN.md, "Values and records").

    Attributes:
        requested_keys: distinct keys in the request.
        cache_hits: keys served from the DRAM cache.
        tier_hits: keys served from the pinned DRAM tier (no selection,
            no page reads; 0 when no tier is configured).
        ssd_keys: keys served from SSD reads.
        pages_read: SSD page reads issued.
        valid_per_read: newly covered queried keys per page read, in read
            order (empty when fully cache-served).
        execution: timing breakdown (None when no SSD read was needed).
        finish_us: absolute completion time.
        start_us: absolute start time.
        retries: read re-submissions after injected device faults.
        failed_reads: logical page reads abandoned after retries.
        recovered_keys: keys served via a replica after their selected
            page's read failed.
        missing_keys: keys that could not be served from any page
            (includes keys intentionally shed by a degraded mode).
        degrade_level: degradation-ladder rung this query was served at
            (0 = full service).
        degrade_shed_keys: keys intentionally skipped by the degraded
            mode (a subset of ``missing_keys``; fault-path losses are
            the remainder).
        failovers: replica attempts that failed before this result was
            produced by a surviving replica (0 on the primary path).
        hedges: hedged secondary dispatches issued for this query.
        hedge_wins: hedged dispatches that beat the primary and became
            the returned result.
        served_by: provenance — ``(shard, replica)`` pairs that
            produced each fragment of this result (empty outside
            replica groups; merge concatenates).
    """

    requested_keys: int
    cache_hits: int
    ssd_keys: int
    pages_read: int
    valid_per_read: tuple
    start_us: float
    finish_us: float
    execution: "ExecutionResult | None" = None
    retries: int = 0
    failed_reads: int = 0
    recovered_keys: int = 0
    missing_keys: int = 0
    degrade_level: int = 0
    degrade_shed_keys: int = 0
    tier_hits: int = 0
    failovers: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    served_by: tuple = ()

    @property
    def latency_us(self) -> float:
        """End-to-end latency of this query."""
        return self.finish_us - self.start_us

    @property
    def degraded(self) -> bool:
        """True when at least one requested key went unserved."""
        return self.missing_keys > 0


@dataclass
class ServingReport:
    """Aggregate metrics over a served trace."""

    num_queries: int
    makespan_us: float
    total_pages_read: int
    total_valid_embeddings: int
    total_cache_hits: int
    total_requested: int
    latencies_us: List[float] = field(default_factory=list)
    sort_us: float = 0.0
    selection_us: float = 0.0
    io_wait_us: float = 0.0
    valid_per_read_hist: Dict[int, int] = field(default_factory=dict)
    page_size: int = 4096
    embedding_bytes: int = 256
    total_retries: int = 0
    total_failed_reads: int = 0
    total_recovered_keys: int = 0
    total_missing_keys: int = 0
    degraded_queries: int = 0
    total_degrade_shed_keys: int = 0
    degrade_level_hist: Dict[int, int] = field(default_factory=dict)
    total_tier_hits: int = 0
    total_failovers: int = 0
    total_hedges: int = 0
    total_hedge_wins: int = 0

    # -- throughput / latency ------------------------------------------------

    def throughput_qps(self) -> float:
        """Queries per second over the simulated makespan."""
        if self.makespan_us <= 0:
            return 0.0
        return self.num_queries / (self.makespan_us * 1e-6)

    def keys_per_second(self) -> float:
        """Embedding lookups per second (cache + SSD)."""
        if self.makespan_us <= 0:
            return 0.0
        return self.total_requested / (self.makespan_us * 1e-6)

    def mean_latency_us(self) -> float:
        """Mean query latency."""
        return float(np.mean(self.latencies_us)) if self.latencies_us else 0.0

    def percentile_latency_us(self, pct: float) -> float:
        """Latency percentile (e.g. 99.0)."""
        if not self.latencies_us:
            return 0.0
        if not 0 <= pct <= 100:
            raise ServingError(f"percentile must be in [0, 100], got {pct}")
        return percentile(self.latencies_us, pct)

    # -- bandwidth ---------------------------------------------------------------

    def useful_bytes(self) -> int:
        """Bytes of requested embeddings actually served from SSD reads."""
        return self.total_valid_embeddings * self.embedding_bytes

    def total_bytes_read(self) -> int:
        """Raw bytes transferred from SSD."""
        return self.total_pages_read * self.page_size

    def effective_bandwidth_fraction(self) -> float:
        """Useful / raw bytes — the paper's "effective bandwidth" percent."""
        raw = self.total_bytes_read()
        return self.useful_bytes() / raw if raw else 0.0

    def effective_bandwidth_mb_s(self, device_bandwidth_gb_s: float) -> float:
        """Effective bandwidth in MB/s at a given device ceiling (Fig 17)."""
        return (
            self.effective_bandwidth_fraction() * device_bandwidth_gb_s * 1e3
        )

    def mean_valid_per_read(self) -> float:
        """Average newly covered embeddings per page read (Fig 9 headline)."""
        if self.total_pages_read == 0:
            return 0.0
        return self.total_valid_embeddings / self.total_pages_read

    def valid_per_read_cdf(self) -> List[tuple]:
        """CDF points ``(valid_count, cumulative_fraction)`` (Fig 9)."""
        total = sum(self.valid_per_read_hist.values())
        if total == 0:
            return []
        points = []
        cumulative = 0
        for value in sorted(self.valid_per_read_hist):
            cumulative += self.valid_per_read_hist[value]
            points.append((value, cumulative / total))
        return points

    def cache_hit_rate(self) -> float:
        """Fraction of requested keys served from the DRAM cache."""
        if self.total_requested == 0:
            return 0.0
        return self.total_cache_hits / self.total_requested

    def tier_hit_rate(self) -> float:
        """Fraction of requested keys served from the pinned DRAM tier."""
        if self.total_requested == 0:
            return 0.0
        return self.total_tier_hits / self.total_requested

    def dram_hit_rate(self) -> float:
        """Fraction of requested keys served from DRAM (tier + cache)."""
        if self.total_requested == 0:
            return 0.0
        return (
            self.total_tier_hits + self.total_cache_hits
        ) / self.total_requested

    def cpu_fraction(self) -> float:
        """CPU (sort+selection) share of summed query latencies."""
        total = sum(self.latencies_us)
        if total <= 0:
            return 0.0
        return (self.sort_us + self.selection_us) / total

    # -- degraded-mode accounting --------------------------------------------

    def coverage(self) -> float:
        """Fraction of requested keys actually served (1.0 = no loss).

        Missing keys count losses from *both* failure domains: device
        faults (PR 3) and intentional overload shedding — see
        :meth:`degraded_mode_queries` / ``total_degrade_shed_keys`` for
        the overload share.
        """
        if self.total_requested == 0:
            return 1.0
        return 1.0 - self.total_missing_keys / self.total_requested

    def degraded_mode_queries(self) -> int:
        """Queries served at a degradation-ladder rung above full service."""
        return sum(
            count
            for level, count in self.degrade_level_hist.items()
            if level > 0
        )

    # -- serialization ---------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """Headline metrics as one flat JSON-ready mapping.

        The cluster report's :meth:`~repro.cluster.stats.ClusterReport.as_dict`
        set the shape precedent; this is the single-report counterpart the
        service ``/metrics`` endpoint and the benches share, so live
        counters and persisted results stay field-compatible.
        """
        return {
            "queries": self.num_queries,
            "throughput_qps": round(self.throughput_qps(), 1),
            "keys_per_second": round(self.keys_per_second(), 1),
            "mean_latency_us": round(self.mean_latency_us(), 3),
            "p99_latency_us": round(self.percentile_latency_us(99.0), 3),
            "effective_bandwidth": round(
                self.effective_bandwidth_fraction(), 4
            ),
            "mean_valid_per_read": round(self.mean_valid_per_read(), 4),
            "cache_hit_rate": round(self.cache_hit_rate(), 4),
            "tier_hits": self.total_tier_hits,
            "tier_hit_rate": round(self.tier_hit_rate(), 4),
            "pages_read": self.total_pages_read,
            "requested_keys": self.total_requested,
            "retries": self.total_retries,
            "failed_reads": self.total_failed_reads,
            "recovered_keys": self.total_recovered_keys,
            "missing_keys": self.total_missing_keys,
            "coverage": round(self.coverage(), 6),
            "degraded_queries": self.degraded_queries,
            "degraded_mode_queries": self.degraded_mode_queries(),
            "degrade_shed_keys": self.total_degrade_shed_keys,
            "failovers": self.total_failovers,
            "hedges": self.total_hedges,
            "hedge_wins": self.total_hedge_wins,
        }


def merge_shard_results(results: Sequence[QueryResult]) -> QueryResult:
    """Gather per-shard results of one scattered query into one result.

    The sub-results must share a start time (the router scatters every
    fragment at the query's dispatch time).  Counters sum — shards own
    disjoint key sets — and the finish time is the slowest shard's, which
    is what the client observes.  A single sub-result is returned as-is,
    so a 1-shard cluster reproduces the plain engine's results exactly.
    Everything accumulates in one left-to-right pass, so float sums add
    in fragment order.
    """
    if not results:
        raise ServingError("cannot merge an empty result list")
    first = results[0]
    if len(results) == 1:
        return first
    start, finish, level = first.start_us, first.finish_us, first.degrade_level
    requested = cache_hits = ssd_keys = pages_read = tier_hits = 0
    retries = failed_reads = recovered = missing = shed = 0
    failovers = hedges = hedge_wins = 0
    executed = False
    sort_us = selection_us = io_wait_us = executed_pages = 0
    valid: List[int] = []
    served_by: List[tuple] = []
    for r in results:
        if r.start_us != start:
            starts = {r.start_us for r in results}
            raise ServingError(
                f"scattered fragments must share a start time, got {starts}"
            )
        if r.finish_us > finish:
            finish = r.finish_us
        if r.degrade_level > level:
            level = r.degrade_level
        requested += r.requested_keys
        cache_hits += r.cache_hits
        ssd_keys += r.ssd_keys
        pages_read += r.pages_read
        tier_hits += r.tier_hits
        retries += r.retries
        failed_reads += r.failed_reads
        recovered += r.recovered_keys
        missing += r.missing_keys
        shed += r.degrade_shed_keys
        failovers += r.failovers
        hedges += r.hedges
        hedge_wins += r.hedge_wins
        valid.extend(r.valid_per_read)
        served_by.extend(r.served_by)
        execution = r.execution
        if execution is not None:
            executed = True
            sort_us += execution.sort_us
            selection_us += execution.selection_us
            io_wait_us += execution.io_wait_us
            executed_pages += execution.pages_read
    merged_execution = None
    if executed:
        merged_execution = ExecutionResult(
            start_us=start,
            finish_us=finish,
            sort_us=sort_us,
            selection_us=selection_us,
            io_wait_us=io_wait_us,
            pages_read=executed_pages,
        )
    return QueryResult(
        requested_keys=requested,
        cache_hits=cache_hits,
        ssd_keys=ssd_keys,
        pages_read=pages_read,
        valid_per_read=tuple(valid),
        start_us=start,
        finish_us=finish,
        execution=merged_execution,
        retries=retries,
        failed_reads=failed_reads,
        recovered_keys=recovered,
        missing_keys=missing,
        degrade_level=level,
        degrade_shed_keys=shed,
        tier_hits=tier_hits,
        failovers=failovers,
        hedges=hedges,
        hedge_wins=hedge_wins,
        served_by=tuple(served_by),
    )


def aggregate_results(
    results: Sequence[QueryResult],
    page_size: int,
    embedding_bytes: int,
) -> ServingReport:
    """Fold per-query results into one :class:`ServingReport`."""
    if not results:
        raise ServingError("cannot aggregate an empty result list")
    report = ServingReport(
        num_queries=len(results),
        makespan_us=max(r.finish_us for r in results)
        - min(r.start_us for r in results),
        total_pages_read=sum(r.pages_read for r in results),
        total_valid_embeddings=sum(r.ssd_keys for r in results),
        total_cache_hits=sum(r.cache_hits for r in results),
        total_requested=sum(r.requested_keys for r in results),
        page_size=page_size,
        embedding_bytes=embedding_bytes,
    )
    for r in results:
        report.latencies_us.append(r.latency_us)
        for v in r.valid_per_read:
            report.valid_per_read_hist[v] = (
                report.valid_per_read_hist.get(v, 0) + 1
            )
        if r.execution is not None:
            report.sort_us += r.execution.sort_us
            report.selection_us += r.execution.selection_us
            report.io_wait_us += r.execution.io_wait_us
        report.total_retries += r.retries
        report.total_failed_reads += r.failed_reads
        report.total_recovered_keys += r.recovered_keys
        report.total_missing_keys += r.missing_keys
        if r.missing_keys > 0:
            report.degraded_queries += 1
        report.total_degrade_shed_keys += r.degrade_shed_keys
        report.total_tier_hits += r.tier_hits
        report.total_failovers += r.failovers
        report.total_hedges += r.hedges
        report.total_hedge_wins += r.hedge_wins
        if r.degrade_level > 0:
            report.degrade_level_hist[r.degrade_level] = (
                report.degrade_level_hist.get(r.degrade_level, 0) + 1
            )
    return report
