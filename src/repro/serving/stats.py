"""Per-query results and the one serving report.

A :class:`QueryResult` records what one query cost; a
:class:`ServingReport` accumulates them as they complete into what the
experiment harness prints: throughput, latency percentiles, effective
bandwidth, the valid-embeddings-per-read distribution (paper Figure 9)
and, for open-loop streams, offered load, shedding and goodput.
"""

from __future__ import annotations

import math
from collections import Counter, _count_elements
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..errors import ServingError
from ..overload import BrownoutTransition
from ..utils.percentile import percentile
from .executor import ExecutionResult


@dataclass
class QueryResult:
    """Outcome of serving one query.

    A plain (unfrozen) dataclass, like every record built per query, per
    fragment or per device command: handed to exactly one receiver and
    not touched by its producer afterwards.  The receiver may set fields
    in place — a replica group rebases ``start_us`` and sets the
    provenance fields on its winning attempt's own record.
    Configuration, inputs and plans are the frozen, hashable values
    (DESIGN.md, "Values and records").

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
    """What one served stream did, accumulated one completion at a time.

    The one report of the simulation driver
    (:func:`~repro.serving.openloop.simulate`), so of ``serve_trace`` and
    :class:`~repro.serving.openloop.OpenLoopSimulator` alike, and of the
    gateway's ``/metrics``.  :meth:`add` folds in one measured completion
    (the open loop and the gateway as each completes, a closed loop once
    its last query is served).  Latency runs from the query's *arrival*;
    in a closed loop a query arrives when its worker frees, so there it
    is the service time.  The open-loop fields (``offered``, ``shed``,
    ``deadline_misses``, the brownout record) are set by whoever offers
    the stream; ``offered`` 0 means "what completed".
    """

    page_size: int = 4096
    embedding_bytes: int = 256
    num_queries: int = 0
    total_pages_read: int = 0
    total_valid_embeddings: int = 0
    total_cache_hits: int = 0
    total_requested: int = 0
    latencies_us: List[float] = field(default_factory=list)
    #: Latencies of the completions that missed a key (goodput's rejects).
    degraded_latencies_us: List[float] = field(default_factory=list)
    first_arrival_us: float = math.inf
    last_finish_us: float = -math.inf
    queue_wait_us: float = 0.0
    sort_us: float = 0.0
    selection_us: float = 0.0
    io_wait_us: float = 0.0
    valid_per_read_hist: Counter[int] = field(default_factory=Counter)
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
    offered_qps: float = 0.0
    offered: int = 0
    shed: Dict[str, int] = field(default_factory=dict)
    deadline_misses: int = 0
    brownout_transitions: List[BrownoutTransition] = field(
        default_factory=list
    )
    final_degrade_level: int = 0

    # -- accumulation ----------------------------------------------------------

    def add_request(
        self,
        arrival_us: float,
        start_us: float,
        finish_us: float,
        requested_keys: int,
        missing_keys: int,
        degrade_level: int,
    ) -> None:
        """Account one completed request by its request-level facts only.

        The gateway's per-request report uses this: a coalesced batch
        serves its members with one engine call, whose page reads and
        cache hits belong to no single member.
        """
        latency = finish_us - arrival_us
        self.num_queries += 1
        self.latencies_us.append(latency)
        if arrival_us < self.first_arrival_us:
            self.first_arrival_us = arrival_us
        if finish_us > self.last_finish_us:
            self.last_finish_us = finish_us
        self.queue_wait_us += start_us - arrival_us
        self.total_requested += requested_keys
        if missing_keys:
            self.total_missing_keys += missing_keys
            self.degraded_queries += 1
            self.degraded_latencies_us.append(latency)
        if degrade_level:
            hist = self.degrade_level_hist
            hist[degrade_level] = hist.get(degrade_level, 0) + 1

    def add(self, result: QueryResult, arrival_us: float) -> None:
        """Account one measured completion of a query that arrived at
        ``arrival_us``: its request-level facts and its engine counters."""
        self.add_request(
            arrival_us,
            result.start_us,
            result.finish_us,
            result.requested_keys,
            result.missing_keys,
            result.degrade_level,
        )
        self.total_pages_read += result.pages_read
        self.total_valid_embeddings += result.ssd_keys
        self.total_cache_hits += result.cache_hits
        self.total_tier_hits += result.tier_hits
        # Counter.update's counting loop, in C, without update's Mapping
        # check, which costs more than a per-read loop over a few reads.
        _count_elements(self.valid_per_read_hist, result.valid_per_read)
        execution = result.execution
        if execution is not None:
            self.sort_us += execution.sort_us
            self.selection_us += execution.selection_us
            self.io_wait_us += execution.io_wait_us
        if result.retries or result.failed_reads or result.recovered_keys:
            self.total_retries += result.retries
            self.total_failed_reads += result.failed_reads
            self.total_recovered_keys += result.recovered_keys
        self.total_degrade_shed_keys += result.degrade_shed_keys
        if result.failovers or result.hedges:
            self.total_failovers += result.failovers
            self.total_hedges += result.hedges
            self.total_hedge_wins += result.hedge_wins

    # -- throughput / latency ------------------------------------------------

    @property
    def makespan_us(self) -> float:
        """First measured arrival to last measured completion (0 if none)."""
        if not self.num_queries:
            return 0.0
        return self.last_finish_us - self.first_arrival_us

    def throughput_qps(self) -> float:
        """Completions per second over :attr:`makespan_us`."""
        span = self.makespan_us
        return self.num_queries / (span * 1e-6) if span > 0 else 0.0

    def goodput_qps(self, latency_slo_us: "float | None" = None) -> float:
        """On-time, full-coverage completions per second.

        The overload headline metric: a completion counts only when
        every requested key was served (no fault losses, no degradation
        shedding) *and*, when ``latency_slo_us`` is given, it finished
        within that arrival-to-completion budget.  Same time base as
        :meth:`throughput_qps`.
        """
        span = self.makespan_us
        if span <= 0:
            return 0.0
        good = self.num_queries - self.degraded_queries
        if latency_slo_us is not None:
            good = sum(
                1 for lat in self.latencies_us if lat <= latency_slo_us
            ) - sum(
                1
                for lat in self.degraded_latencies_us
                if lat <= latency_slo_us
            )
        return good / (span * 1e-6)

    def keys_per_second(self) -> float:
        """Embedding lookups per second (cache + SSD)."""
        span = self.makespan_us
        return self.total_requested / (span * 1e-6) if span > 0 else 0.0

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

    def mean_queue_wait_us(self) -> float:
        """Mean time from arrival to a free worker (0 in a closed loop)."""
        if not self.num_queries:
            return 0.0
        return self.queue_wait_us / self.num_queries

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

    def mean_valid_per_read(self) -> float:
        """Average newly covered embeddings per page read (Fig 9 headline)."""
        if self.total_pages_read == 0:
            return 0.0
        return self.total_valid_embeddings / self.total_pages_read

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

    # -- overload accounting ---------------------------------------------------

    @property
    def shed_count(self) -> int:
        """Arrivals rejected by admission control (all reasons)."""
        return sum(self.shed.values())

    def offered_count(self) -> int:
        """Measured arrivals offered (falls back to completions)."""
        return self.offered or self.num_queries

    def completion_rate(self) -> float:
        """Fraction of offered arrivals that completed (1.0 = no shedding)."""
        offered = self.offered_count()
        return self.num_queries / offered if offered else 0.0

    # -- serialization ---------------------------------------------------------

    def as_dict(
        self, latency_slo_us: "float | None" = None
    ) -> Dict[str, object]:
        """Headline metrics as one flat JSON-ready mapping.

        The cluster report's :meth:`~repro.cluster.stats.ClusterReport.as_dict`
        set the shape precedent; the service ``/metrics`` endpoint (both
        its ``open_loop`` and ``serving`` sections) and the benches share
        this one, so live counters and simulator reports stay
        field-compatible.  ``latency_slo_us`` threads through to
        :meth:`goodput_qps`.
        """
        return {
            "queries": self.num_queries,
            "throughput_qps": round(self.throughput_qps(), 1),
            "goodput_qps": round(self.goodput_qps(latency_slo_us), 1),
            "keys_per_second": round(self.keys_per_second(), 1),
            "mean_latency_us": round(self.mean_latency_us(), 3),
            "p50_latency_us": round(self.percentile_latency_us(50.0), 3),
            "p99_latency_us": round(self.percentile_latency_us(99.0), 3),
            "mean_queue_wait_us": round(self.mean_queue_wait_us(), 3),
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
            "offered_qps": round(self.offered_qps, 1),
            "offered": self.offered_count(),
            "completion_rate": round(self.completion_rate(), 4),
            "shed": dict(self.shed),
            "shed_total": self.shed_count,
            "deadline_misses": self.deadline_misses,
            "brownout_transitions": len(self.brownout_transitions),
            "final_degrade_level": self.final_degrade_level,
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
        valid += r.valid_per_read
        served_by += r.served_by
        execution = r.execution
        if execution is not None:
            executed = True
            sort_us += execution.sort_us
            selection_us += execution.selection_us
            io_wait_us += execution.io_wait_us
            executed_pages += execution.pages_read
    merged_execution = None
    if executed:
        # Field order is ExecutionResult's.
        merged_execution = ExecutionResult(
            start, finish, sort_us, selection_us, io_wait_us, executed_pages
        )
    # Field order is QueryResult's.
    return QueryResult(
        requested,
        cache_hits,
        ssd_keys,
        pages_read,
        tuple(valid),
        start,
        finish,
        merged_execution,
        retries,
        failed_reads,
        recovered,
        missing,
        level,
        shed,
        tier_hits,
        failovers,
        hedges,
        hedge_wins,
        tuple(served_by),
    )
