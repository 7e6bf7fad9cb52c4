"""Scatter-gather router: one serving engine per shard, shared clock.

:class:`ClusterEngine` is the cluster-scale counterpart of
:class:`~repro.serving.engine.ServingEngine`.  Each shard runs a full
engine of its own — DRAM cache, page selector, executor, and an
*independent* simulated device, so aggregate SSD bandwidth scales with
the shard count.  A query is **scattered**: its keys are split by the
shard plan, each fragment (remapped to shard-local ids) is served by its
shard engine starting at the query's dispatch time, and the results are
**gathered** — the query completes when its slowest shard does.

The trace loop is the same closed-loop client model as the single
engine: ``threads`` simulated workers, each serving one query at a time,
dispatching in trace order to the earliest-free worker.  All shard
devices advance on the shared simulated clock, so cross-query contention
on a hot shard emerges naturally — that is precisely the imbalance the
:class:`~repro.cluster.stats.ClusterReport` measures.

Fault-domain behaviour (this layer treats a whole shard as the failure
unit; page-level faults are handled inside each shard engine by
:mod:`repro.serving.recovery`):

* **deadline** — with ``config.shard_deadline_us`` set, a fragment whose
  simulated latency exceeds the deadline is timed out: its keys are
  reported missing, the fragment charges exactly the deadline, and the
  gather proceeds with the surviving shards (partial gather);
* **breaker** — with ``config.breaker`` set, each shard gets a
  :class:`~repro.faults.CircuitBreaker`.  Timeouts and worker exceptions
  record failures; a tripped breaker skips the shard at dispatch time
  (keys missing, zero latency) until its recovery timeout lets a probe
  through.  Breakers also switch the router to *resilient* gathering:
  a worker exception degrades the fragment instead of failing the query;
* **strict mode** (no breaker) — a worker exception stops the gather at
  the failing shard (later shards are not served) and raises
  :class:`~repro.errors.ShardUnavailableError` naming it;
* **replica groups** — with ``config.replicas > 1`` (or a
  ``config.shard_fault_plan`` to inject against) every shard becomes an
  R-way :class:`~repro.cluster.replicas.ReplicaGroup`: fragments are
  dispatched to the healthiest replica, fail over to survivors inside
  the gather (keys are served, not reported missing), stragglers are
  hedged under a budget, and dead replicas resync and rejoin via probe
  promotion.  The group enforces the per-attempt deadline internally,
  so the router's own deadline/timeout bookkeeping applies only to the
  group-exhausted case; a fragment that needed failover may legally
  finish *after* ``shard_deadline_us`` — latency paid, coverage kept.

Overload behaviour: ``serve_query`` accepts a degradation-ladder rung
(:class:`~repro.overload.DegradeLevel`).  The rung is forwarded to every
shard engine (which caps pages, skips cold keys, or serves cache-only),
and its ``fanout_cap`` is applied *here*: when a scattered query touches
more shards than the cap, only the largest fragments are dispatched and
the rest are shed whole (keys missing, counted as intentional
degradation shedding) — the shard-level load-shedding analogue of the
deadline's partial gather.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..errors import (
    ReplicaExhaustedError,
    ServingError,
    ShardUnavailableError,
)
from ..faults import CircuitBreaker
from ..placement import PageLayout
from ..serving import EngineConfig, ServingEngine
from ..serving.stats import (
    QueryResult,
    aggregate_results,
    merge_shard_results,
)
from ..types import Query, QueryTrace
from .pipeline import ShardedLayout
from .replicas import HealthConfig, ReplicaGroup
from .stats import ClusterReport

#: Per-shard gather outcomes recorded by :meth:`ClusterEngine._serve_scattered`.
SHARD_OK = "ok"
SHARD_TIMEOUT = "timeout"
SHARD_SKIPPED = "skipped"
SHARD_ERROR = "error"
SHARD_SHED = "shed"


class ClusterEngine:
    """Scatter-gather serving over per-shard engines and devices."""

    def __init__(
        self,
        sharded: ShardedLayout,
        config: "EngineConfig | None" = None,
        replica_health: "HealthConfig | None" = None,
        replica_staging_dir: "str | None" = None,
    ) -> None:
        self.sharded = sharded
        self.plan = sharded.plan
        self.config = config or EngineConfig()
        if self.config.tier_plan is not None and self.plan.num_shards > 1:
            # An explicit tier plan is expressed in one layout's key ids;
            # shard layouts use shard-local ids, so a global plan cannot
            # be applied verbatim.  Shards derive their own plans from
            # tier_ratio instead.
            raise ServingError(
                "explicit tier_plan is single-engine only; use tier_ratio "
                "so each shard derives a shard-local plan"
            )
        # Replica groups are built only when they can do something —
        # R > 1, or a shard fault plan to inject against.  Otherwise the
        # unreplicated path below is byte-identical to earlier releases.
        self._replica_health = replica_health
        self._replica_staging_dir = replica_staging_dir
        self.groups: Optional[List[ReplicaGroup]] = None
        if (
            self.config.replicas > 1
            or self.config.shard_fault_plan is not None
        ):
            self.groups = [
                ReplicaGroup(
                    shard,
                    layout,
                    self.config,
                    health=replica_health,
                    staging_dir=replica_staging_dir,
                )
                for shard, layout in enumerate(sharded.layouts)
            ]
            self.engines: List[ServingEngine] = [
                group.engines[0] for group in self.groups
            ]
        else:
            self.engines = [
                ServingEngine(layout, self.config)
                for layout in sharded.layouts
            ]
        self.breakers: Optional[List[CircuitBreaker]] = None
        if self.config.breaker is not None:
            self.breakers = [
                CircuitBreaker(self.config.breaker)
                for _ in range(self.num_shards)
            ]
        self.swap_counts: List[int] = [0] * self.num_shards
        self.swap_rollbacks = 0
        self.swap_events: List[dict] = []

    @property
    def num_shards(self) -> int:
        """Shard count."""
        return self.plan.num_shards

    @property
    def resilient(self) -> bool:
        """True when worker exceptions degrade instead of raising."""
        return self.breakers is not None

    def close(self) -> None:
        """Retire every shard engine or replica group (idempotent).

        Retirement is a marker, not a teardown (see
        :meth:`~repro.serving.ServingEngine.close`), so this is safe
        concurrently with an in-flight ``serve_query`` and serving after
        ``close`` still completes.
        """
        for owned in self.groups if self.groups is not None else self.engines:
            owned.close()

    # -- layout management -----------------------------------------------------

    def swap_shard(
        self, shard: int, layout: PageLayout, keep_cache: bool = True
    ) -> ServingEngine:
        """Atomically replace one shard's engine with a new layout.

        The other shards keep serving untouched — this is the cluster
        version of :meth:`~repro.core.deploy.LayoutManager.swap`, applied
        shard by shard so a rolling re-deploy never takes the whole
        cluster offline.  The new engine is fully constructed *before*
        the shard is touched, so any failure (invalid layout, spec
        mismatch) leaves the previous layout serving; on success the
        shard's circuit breaker, if any, is reset — the replacement
        device has no failure history.
        """
        if not 0 <= shard < self.num_shards:
            raise ServingError(
                f"shard {shard} out of range [0, {self.num_shards})"
            )
        expected = len(self.plan.shard_keys(shard))
        if layout.num_keys != expected:
            raise ServingError(
                f"new layout covers {layout.num_keys} keys, shard {shard} "
                f"owns {expected}"
            )
        if self.groups is not None:
            group = ReplicaGroup(
                shard,
                layout,
                self.config,
                health=self._replica_health,
                staging_dir=self._replica_staging_dir,
            )
            displaced_group = self.groups[shard]
            if keep_cache:
                group.adopt_caches(displaced_group)
            self.groups[shard] = group
            replacement = group.engines[0]
            self.engines[shard] = replacement
            if self.breakers is not None:
                self.breakers[shard] = CircuitBreaker(self.config.breaker)
            displaced_group.close()
        else:
            replacement = ServingEngine(layout, self.config)
            displaced = self.engines[shard]
            if keep_cache:
                replacement.cache = displaced.cache
            self.engines[shard] = replacement
            if self.breakers is not None:
                self.breakers[shard] = CircuitBreaker(self.config.breaker)
            displaced.close()
        self.swap_counts[shard] += 1
        self.swap_events.append(
            {"shard": shard, "keep_cache": keep_cache, "rolling": False}
        )
        return replacement

    def swap_shards(
        self,
        layouts: Mapping[int, PageLayout],
        keep_cache: bool = True,
        after_install: "Optional[Callable[[int], None]]" = None,
    ) -> Dict[int, ServingEngine]:
        """Rolling multi-shard swap: all the given shards, or none of them.

        Shards are swapped one at a time (ascending id) so the cluster
        keeps serving throughout — at every instant each shard has
        exactly one fully built engine installed.  If any step fails
        (an invalid layout, or ``after_install`` raising — the fault
        hook the chaos suite uses to kill a swap mid-flight), every
        shard already swapped is **rolled back** to its original engine
        and breaker before the error propagates, so a failed rolling
        deploy never leaves the cluster partially swapped.  Displaced
        engines are closed only after the whole roll commits; on
        rollback the abandoned replacements are closed instead.
        """
        for shard in layouts:
            if not 0 <= shard < self.num_shards:
                raise ServingError(
                    f"shard {shard} out of range [0, {self.num_shards})"
                )
        originals: Dict[int, ServingEngine] = {}
        original_groups: Dict[int, ReplicaGroup] = {}
        original_breakers: Dict[int, CircuitBreaker] = {}
        installed: Dict[int, ServingEngine] = {}
        installed_groups: Dict[int, ReplicaGroup] = {}
        try:
            for shard in sorted(layouts):
                layout = layouts[shard]
                expected = len(self.plan.shard_keys(shard))
                if layout.num_keys != expected:
                    raise ServingError(
                        f"new layout covers {layout.num_keys} keys, shard "
                        f"{shard} owns {expected}"
                    )
                if self.groups is not None:
                    group = ReplicaGroup(
                        shard,
                        layout,
                        self.config,
                        health=self._replica_health,
                        staging_dir=self._replica_staging_dir,
                    )
                    displaced_group = self.groups[shard]
                    if keep_cache:
                        group.adopt_caches(displaced_group)
                    original_groups[shard] = displaced_group
                    originals[shard] = self.engines[shard]
                    self.groups[shard] = group
                    replacement = group.engines[0]
                    self.engines[shard] = replacement
                    installed[shard] = replacement
                    installed_groups[shard] = group
                else:
                    replacement = ServingEngine(layout, self.config)
                    displaced = self.engines[shard]
                    if keep_cache:
                        replacement.cache = displaced.cache
                    originals[shard] = displaced
                    self.engines[shard] = replacement
                    installed[shard] = replacement
                if self.breakers is not None:
                    original_breakers[shard] = self.breakers[shard]
                    self.breakers[shard] = CircuitBreaker(self.config.breaker)
                if after_install is not None:
                    after_install(shard)
        except Exception as exc:
            for shard, engine in originals.items():
                self.engines[shard] = engine
                if shard in original_groups:
                    self.groups[shard] = original_groups[shard]
                if self.breakers is not None:
                    self.breakers[shard] = original_breakers[shard]
            for shard, engine in installed.items():
                if shard in installed_groups:
                    installed_groups[shard].close()
                else:
                    engine.close()
            self.swap_rollbacks += 1
            self.swap_events.append(
                {
                    "shards": sorted(layouts),
                    "rolled_back": True,
                    "error": repr(exc),
                }
            )
            raise
        for shard, engine in originals.items():
            if shard in original_groups:
                original_groups[shard].close()
            else:
                engine.close()
            self.swap_counts[shard] += 1
            self.swap_events.append(
                {"shard": shard, "keep_cache": keep_cache, "rolling": True}
            )
        return installed

    # -- scatter / gather -------------------------------------------------------

    def scatter(self, query: Query) -> Dict[int, Query]:
        """Split a global query into shard-local fragments."""
        keys = query.keys
        assignment = self.plan.assignment
        num_keys = len(assignment)
        if max(keys) >= num_keys:
            bad = next(k for k in keys if k >= num_keys)
            raise ServingError(f"key {bad} is not in the embedding table")
        local_ids = self.plan.local_ids
        fragments: Dict[int, List[int]] = {}
        for key in keys:
            fragments.setdefault(assignment[key], []).append(local_ids[key])
        return {
            shard: Query(tuple(local))
            for shard, local in fragments.items()
        }

    @staticmethod
    def _unserved_result(
        fragment: Query,
        start_us: float,
        finish_us: float,
        degrade_level: int = 0,
        shed: bool = False,
    ) -> QueryResult:
        """A fully degraded fragment: every key missing, nothing read."""
        n = len(fragment.unique_keys())
        return QueryResult(
            requested_keys=n,
            cache_hits=0,
            ssd_keys=0,
            pages_read=0,
            valid_per_read=(),
            start_us=start_us,
            finish_us=finish_us,
            missing_keys=n,
            degrade_level=degrade_level,
            degrade_shed_keys=n if shed else 0,
        )

    def _serve_scattered(
        self, query: Query, start_us: float, degrade=None
    ) -> Tuple[QueryResult, Dict[int, QueryResult], Dict[int, str]]:
        """Serve one query; return (gathered, per-shard results, events).

        Fragments are served one after another in ascending shard id —
        shards share nothing but the start time, so the order is only
        visible in strict mode, where a failing shard ends the gather.
        ``events`` maps each touched shard to one of :data:`SHARD_OK`,
        :data:`SHARD_TIMEOUT`, :data:`SHARD_SKIPPED` (breaker open),
        :data:`SHARD_ERROR` (resilient-mode worker exception) or
        :data:`SHARD_SHED` (fragment dropped by a degraded fan-out cap).
        """
        items = sorted(self.scatter(query).items())
        if degrade is not None and degrade.is_noop:
            degrade = None
        kept = None
        if (
            degrade is not None
            and degrade.fanout_cap is not None
            and len(items) > degrade.fanout_cap
        ):
            # Keep the shards carrying the most keys (ties: lower shard
            # id); shed the small fragments whole — their keys buy the
            # least coverage per gather slot.
            ranked = sorted(
                items,
                key=lambda item: (-len(item[1].unique_keys()), item[0]),
            )
            kept = {shard for shard, _ in ranked[: degrade.fanout_cap]}
        # A None degrade is not forwarded at all, so engines (or test
        # doubles) with the pre-overload two-argument signature keep
        # working and the disabled path stays call-identical.
        extra = () if degrade is None else (degrade,)
        groups = self.groups
        breakers = self.breakers
        # Replica groups enforce the per-attempt deadline internally (a
        # failover legally finishes later than one deadline), so the
        # router-side timeout check only applies to bare engines.
        deadline = self.config.shard_deadline_us if groups is None else None
        subs: Dict[int, QueryResult] = {}
        events: Dict[int, str] = {}
        for shard, fragment in items:
            if kept is not None and shard not in kept:
                subs[shard] = self._unserved_result(
                    fragment,
                    start_us,
                    start_us,
                    degrade_level=degrade.level,
                    shed=True,
                )
                events[shard] = SHARD_SHED
                continue
            breaker = breakers[shard] if breakers is not None else None
            if breaker is not None and not breaker.allow(start_us):
                subs[shard] = self._unserved_result(
                    fragment, start_us, start_us
                )
                events[shard] = SHARD_SKIPPED
                continue
            try:
                # Looked up per dispatch: swaps and fault doubles replace
                # ``group.serve`` / ``engine.serve_query`` on the instance.
                if groups is not None:
                    outcome = groups[shard].serve(fragment, start_us, *extra)
                else:
                    outcome = self.engines[shard].serve_query(
                        fragment, start_us, *extra
                    )
            except Exception as exc:  # noqa: BLE001 - degraded or rewrapped
                if breaker is None:
                    raise ShardUnavailableError(
                        f"shard {shard} failed serving a scattered "
                        f"fragment: {exc}",
                        shard=shard,
                    ) from exc
                # A group exhausted by timeouts burned real simulated
                # time (deadline waits) and maps onto the shard-timeout
                # taxonomy; everything else is an instant shard error.
                if (
                    isinstance(exc, ReplicaExhaustedError)
                    and exc.kind == "timeout"
                ):
                    finish = start_us + exc.elapsed_us
                    events[shard] = SHARD_TIMEOUT
                else:
                    finish = start_us
                    events[shard] = SHARD_ERROR
                subs[shard] = self._unserved_result(
                    fragment, start_us, finish
                )
                breaker.record_failure(finish)
                continue
            if deadline is not None and outcome.latency_us > deadline:
                subs[shard] = self._unserved_result(
                    fragment, start_us, start_us + deadline
                )
                events[shard] = SHARD_TIMEOUT
                if breaker is not None:
                    breaker.record_failure(start_us + deadline)
            else:
                subs[shard] = outcome
                events[shard] = SHARD_OK
                if breaker is not None:
                    breaker.record_success(outcome.finish_us)
        return merge_shard_results(list(subs.values())), subs, events

    def serve_query(
        self, query: Query, start_us: float = 0.0, degrade=None
    ) -> QueryResult:
        """Serve one query across its shards; finish at the slowest one.

        ``degrade`` forwards a degradation-ladder rung to every shard
        engine and applies its ``fanout_cap`` at the router (None or a
        no-op rung serves through the untouched full path).
        """
        merged, _, _ = self._serve_scattered(query, start_us, degrade)
        return merged

    # -- whole trace ------------------------------------------------------------

    def serve_trace(
        self,
        trace: "QueryTrace | List[Query]",
        warmup_queries: int = 0,
        degrade=None,
    ) -> ClusterReport:
        """Closed-loop simulation of the trace over ``threads`` workers.

        Same client model as the single engine's ``serve_trace``; the
        returned :class:`ClusterReport` adds per-shard load counters,
        straggler metrics, and fault-domain accounting (timeouts, breaker
        skips, per-shard coverage) on top of the merged serving report.
        ``degrade`` pins every query to one degradation-ladder rung
        (fan-out caps surface as ``shard_shed`` counters); None serves
        at full service, unchanged from earlier releases.
        """
        queries = list(trace)
        if not queries:
            raise ServingError("cannot serve an empty trace")
        if warmup_queries >= len(queries):
            raise ServingError(
                f"warmup ({warmup_queries}) must leave at least one "
                f"measured query ({len(queries)} total)"
            )
        workers = [(0.0, t) for t in range(self.config.threads)]
        heapq.heapify(workers)
        results: List[QueryResult] = []
        shard_queries = [0] * self.num_shards
        shard_pages = [0] * self.num_shards
        shard_ssd_keys = [0] * self.num_shards
        shard_cache_hits = [0] * self.num_shards
        shard_tier_hits = [0] * self.num_shards
        shard_requested = [0] * self.num_shards
        shard_missing = [0] * self.num_shards
        shard_timeouts = [0] * self.num_shards
        shard_skipped = [0] * self.num_shards
        shard_errors = [0] * self.num_shards
        shard_shed = [0] * self.num_shards
        shard_failovers = [0] * self.num_shards
        shard_hedges = [0] * self.num_shards
        shard_hedge_wins = [0] * self.num_shards
        fanouts: List[int] = []
        max_shard_latency: List[float] = []
        straggler: List[float] = []
        event_counters = {
            SHARD_TIMEOUT: shard_timeouts,
            SHARD_SKIPPED: shard_skipped,
            SHARD_ERROR: shard_errors,
            SHARD_SHED: shard_shed,
        }
        for index, query in enumerate(queries):
            ready, thread = heapq.heappop(workers)
            merged, subs, events = self._serve_scattered(
                query, start_us=ready, degrade=degrade
            )
            heapq.heappush(workers, (merged.finish_us, thread))
            if index < warmup_queries:
                continue
            results.append(merged)
            latencies = []
            for shard, sub in subs.items():
                shard_queries[shard] += 1
                shard_pages[shard] += sub.pages_read
                shard_ssd_keys[shard] += sub.ssd_keys
                shard_cache_hits[shard] += sub.cache_hits
                shard_tier_hits[shard] += sub.tier_hits
                shard_requested[shard] += sub.requested_keys
                shard_missing[shard] += sub.missing_keys
                shard_failovers[shard] += sub.failovers
                shard_hedges[shard] += sub.hedges
                shard_hedge_wins[shard] += sub.hedge_wins
                latencies.append(sub.latency_us)
            for shard, event in events.items():
                counter = event_counters.get(event)
                if counter is not None:
                    counter[shard] += 1
            fanouts.append(len(subs))
            slowest = max(latencies)
            max_shard_latency.append(slowest)
            straggler.append(slowest - sum(latencies) / len(latencies))
        report = aggregate_results(
            results,
            page_size=self.config.spec.page_size,
            embedding_bytes=self.config.spec.embedding_bytes,
        )
        breaker_states: List[str] = []
        breaker_transitions: List[List] = []
        if self.breakers is not None:
            breaker_states = [b.state for b in self.breakers]
            breaker_transitions = [list(b.transitions) for b in self.breakers]
        replica_states: List[List[str]] = []
        replica_transitions: List[int] = []
        replica_resyncs: List[int] = []
        replica_probes: List[int] = []
        shard_hedges_denied: List[int] = []
        num_replicas = 1
        if self.groups is not None:
            num_replicas = self.config.replicas
            replica_states = [list(g.monitor.states) for g in self.groups]
            replica_transitions = [
                len(g.monitor.transitions) for g in self.groups
            ]
            replica_resyncs = [g.resyncs for g in self.groups]
            replica_probes = [g.probes for g in self.groups]
            shard_hedges_denied = [g.hedges_denied for g in self.groups]
        return ClusterReport(
            report=report,
            num_shards=self.num_shards,
            strategy=self.plan.strategy,
            shard_queries=shard_queries,
            shard_pages_read=shard_pages,
            shard_ssd_keys=shard_ssd_keys,
            shard_cache_hits=shard_cache_hits,
            shard_tier_hits=shard_tier_hits,
            fanouts=fanouts,
            max_shard_latency_us=max_shard_latency,
            straggler_us=straggler,
            shard_requested_keys=shard_requested,
            shard_missing_keys=shard_missing,
            shard_timeouts=shard_timeouts,
            shard_skipped=shard_skipped,
            shard_errors=shard_errors,
            shard_shed=shard_shed,
            breaker_states=breaker_states,
            breaker_transitions=breaker_transitions,
            shard_swaps=list(self.swap_counts),
            swap_rollbacks=self.swap_rollbacks,
            num_replicas=num_replicas,
            shard_failovers=shard_failovers,
            shard_hedges=shard_hedges,
            shard_hedge_wins=shard_hedge_wins,
            shard_hedges_denied=shard_hedges_denied,
            replica_states=replica_states,
            replica_transitions=replica_transitions,
            replica_resyncs=replica_resyncs,
            replica_probes=replica_probes,
        )

    # -- introspection -----------------------------------------------------------

    def memory_overhead_entries(self) -> int:
        """DRAM index entries summed over every shard engine."""
        return sum(e.memory_overhead_entries() for e in self.engines)

    def total_pages(self) -> int:
        """SSD pages across the cluster (base + replica)."""
        return self.sharded.total_pages()

    def shard_device_stats(self) -> List[Optional[object]]:
        """Each shard device's :class:`~repro.ssd.device.DeviceStats`."""
        return [engine.device.stats for engine in self.engines]

    def replica_info(self) -> Optional[dict]:
        """Replica-group health and counters (None without groups).

        The ``counters`` keys deliberately match the
        :meth:`~repro.cluster.stats.ClusterReport.as_dict` field names,
        so the live ``/metrics`` endpoint and persisted reports stay
        field-compatible.
        """
        if self.groups is None:
            return None
        states = {state: 0 for state in ("healthy", "suspect",
                                         "recovering", "dead")}
        for group in self.groups:
            for state, count in group.monitor.state_counts().items():
                states[state] += count
        return {
            "num_replicas": self.config.replicas,
            "counters": {
                "failovers": sum(g.failovers for g in self.groups),
                "hedges": sum(g.hedges for g in self.groups),
                "hedge_wins": sum(g.hedge_wins for g in self.groups),
                "hedges_denied": sum(
                    g.hedges_denied for g in self.groups
                ),
                "replica_probes": sum(g.probes for g in self.groups),
                "replica_resyncs": sum(g.resyncs for g in self.groups),
                "replica_transitions": sum(
                    len(g.monitor.transitions) for g in self.groups
                ),
            },
            "states": states,
        }

    def tier_info(self) -> Optional[dict]:
        """Cluster tier summary (None when no shard runs a DRAM tier)."""
        infos = [engine.tier_info() for engine in self.engines]
        if all(info is None for info in infos):
            return None
        return {
            "mode": self.config.tier_mode,
            "tier_ratio": self.config.tier_ratio,
            "pinned_keys": sum(
                info["pinned_keys"] for info in infos if info is not None
            ),
            "shards": infos,
        }
