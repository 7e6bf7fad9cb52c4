"""Scatter-gather router: one serving engine per shard, shared clock.

:class:`ClusterEngine` is the cluster-scale counterpart of
:class:`~repro.serving.engine.ServingEngine`.  Each shard runs a full
engine of its own — DRAM cache, page selector, executor, and an
*independent* simulated device, so aggregate SSD bandwidth scales with
the shard count.  A query is **scattered**: its keys are split by the
shard plan, each fragment (remapped to shard-local ids) is served by its
shard engine starting at the query's dispatch time, and the results are
**gathered** — the query completes when its slowest shard does.

The trace loop is the single engine's, the one driver
:func:`~repro.serving.openloop.simulate`: ``threads`` simulated workers,
each serving one query at a time, dispatching in trace order to the
earliest-free worker.  All shard devices advance on the shared simulated
clock, so cross-query contention on a hot shard emerges naturally — that
is precisely the imbalance the :class:`~repro.cluster.stats.ClusterReport`
measures.

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

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..errors import (
    ReplicaExhaustedError,
    ServingError,
    ShardUnavailableError,
)
from ..faults import CircuitBreaker
from ..placement import PageLayout
from ..serving import EngineConfig, ServingEngine
from ..serving.openloop import simulate
from ..serving.selection import unknown_key_error
from ..serving.stats import QueryResult, ServingReport, merge_shard_results
from ..types import DistinctQuery, Query, QueryTrace
from .pipeline import ShardedLayout
from .replicas import HealthConfig, ReplicaGroup
from .stats import ClusterReport

#: Per-shard gather outcomes recorded by :meth:`ClusterEngine._serve_scattered`
#: (a shard served in full records none).
SHARD_TIMEOUT = "timeout"
SHARD_SKIPPED = "skipped"
SHARD_ERROR = "error"
SHARD_SHED = "shed"

#: The per-shard counters of a :class:`ClusterReport`.
_SHARD_COUNTS = (
    "shard_queries",
    "shard_pages_read",
    "shard_ssd_keys",
    "shard_cache_hits",
    "shard_tier_hits",
    "shard_failovers",
    "shard_hedges",
    "shard_hedge_wins",
)

#: The :class:`ClusterReport` counter each gather event increments.
_EVENT_COUNTS = {
    SHARD_TIMEOUT: "shard_timeouts",
    SHARD_SKIPPED: "shard_skipped",
    SHARD_ERROR: "shard_errors",
    SHARD_SHED: "shard_shed",
}


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
        # What every scatter reads of the plan, held once.
        self._assignment = self.plan.assignment
        self._num_keys = len(self._assignment)
        self._local_ids = self.plan.local_ids
        self._shard_ids = range(self.num_shards)

    @property
    def num_shards(self) -> int:
        """Shard count."""
        return self.plan.num_shards

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

    def swap_shards(
        self,
        layouts: Mapping[int, PageLayout],
        keep_cache: bool = True,
        after_install: "Optional[Callable[[int], None]]" = None,
    ) -> Dict[int, ServingEngine]:
        """Rolling multi-shard swap: all the given shards, or none of them.

        Shards are swapped one at a time (ascending id) so the cluster
        keeps serving throughout — at every instant each shard has
        exactly one fully built engine (or replica group) installed, and
        a fresh circuit breaker, since the replacement device has no
        failure history.  If any step fails (an invalid layout, or
        ``after_install`` raising — the fault hook the chaos suite uses
        to kill a swap mid-flight), every shard already swapped gets its
        displaced engine, group and breaker back, by identity, before
        the error propagates, so a failed rolling deploy never leaves
        the cluster partially swapped.  Displaced engines are closed
        only after the whole roll commits; on rollback the abandoned
        replacements are closed instead.
        """
        for shard in layouts:
            if not 0 <= shard < self.num_shards:
                raise ServingError(
                    f"shard {shard} out of range [0, {self.num_shards})"
                )
        displaced: Dict[int, tuple] = {}
        try:
            for shard in sorted(layouts):
                slot = self._replacement(shard, layouts[shard], keep_cache)
                displaced[shard] = self._install(shard, slot)
                if after_install is not None:
                    after_install(shard)
        except Exception as exc:
            for shard, slot in displaced.items():
                # Reinstalling hands back the abandoned replacement.
                abandoned, _, _ = self._install(shard, slot)
                abandoned.close()
            self.swap_rollbacks += 1
            self.swap_events.append(
                {
                    "shards": sorted(layouts),
                    "rolled_back": True,
                    "error": repr(exc),
                }
            )
            raise
        for shard, (owner, _, _) in displaced.items():
            owner.close()
            self.swap_counts[shard] += 1
            self.swap_events.append(
                {"shard": shard, "keep_cache": keep_cache, "rolling": True}
            )
        return {shard: self.engines[shard] for shard in displaced}

    def _replacement(
        self, shard: int, layout: PageLayout, keep_cache: bool
    ) -> tuple:
        """What will serve ``layout`` on ``shard``, as an (owner, engine,
        breaker) slot: a replica group that adopted the displaced
        group's caches, or a bare engine carrying the displaced engine's
        cache.  The owner is what :meth:`close` retires."""
        expected = len(self.plan.shard_keys(shard))
        if layout.num_keys != expected:
            raise ServingError(
                f"new layout covers {layout.num_keys} keys, shard {shard} "
                f"owns {expected}"
            )
        breaker = (
            CircuitBreaker(self.config.breaker)
            if self.breakers is not None
            else None
        )
        if self.groups is None:
            engine = ServingEngine(layout, self.config)
            if keep_cache:
                engine.cache = self.engines[shard].cache
            return engine, engine, breaker
        group = ReplicaGroup(
            shard,
            layout,
            self.config,
            health=self._replica_health,
            staging_dir=self._replica_staging_dir,
        )
        if keep_cache:
            group.adopt_caches(self.groups[shard])
        return group, group.engines[0], breaker

    def _install(self, shard: int, slot: tuple) -> tuple:
        """Put an (owner, engine, breaker) slot on ``shard``; return the
        slot it displaced."""
        owner, engine, breaker = slot
        groups, breakers = self.groups, self.breakers
        displaced = (
            groups[shard] if groups is not None else self.engines[shard],
            self.engines[shard],
            breakers[shard] if breakers is not None else None,
        )
        if groups is not None:
            groups[shard] = owner
        self.engines[shard] = engine
        if breakers is not None:
            breakers[shard] = breaker
        return displaced

    # -- scatter / gather -------------------------------------------------------

    def scatter(self, query: Query) -> Dict[int, Query]:
        """Split a global query into shard-local fragments.

        The fragments are keyed in ascending shard id and each is a
        :class:`~repro.types.DistinctQuery` of the query's distinct keys
        (deduplicated here, once).  A key past the table raises
        :class:`~repro.errors.ServingError` where it first indexes the
        shard plan, before any shard is dispatched (a shard's failure
        would wrap it, or fail it over).  One shard's local ids are the
        global ones, so there the fragment is the query itself, which
        the shard engine deduplicates.
        """
        shard_ids = self._shard_ids
        if len(shard_ids) == 1:
            if max(query.keys) >= self._num_keys:
                raise unknown_key_error(query.keys, self._num_keys)
            return {0: query}
        keys = query.unique_keys()
        assignment = self._assignment
        local_ids = self._local_ids
        buckets = [[] for _ in shard_ids]
        try:
            for key in keys:
                buckets[assignment[key]].append(local_ids[key])
        except IndexError:
            raise unknown_key_error(keys, self._num_keys) from None
        fragments: Dict[int, Query] = {}
        for shard, local in enumerate(buckets):
            if local:
                fragments[shard] = DistinctQuery(tuple(local))
        return fragments

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
        self, query: Query, start_us: float, degrade=None, fold=None
    ) -> Tuple[QueryResult, Dict[int, QueryResult], Dict[int, str]]:
        """Serve one query; return (gathered, per-shard results, events).

        Fragments are served one after another in ascending shard id —
        shards share nothing but the start time, so the order is only
        visible in strict mode, where a failing shard ends the gather.
        ``events`` names only the shards that were not served in full,
        each with one of :data:`SHARD_TIMEOUT`, :data:`SHARD_SKIPPED`
        (breaker open), :data:`SHARD_ERROR` (resilient-mode worker
        exception) or :data:`SHARD_SHED` (fragment dropped by a degraded
        fan-out cap); it is empty for a query every shard served.

        ``fold`` is None or a trace tally's per-shard ``(queries,
        pages, ssd_keys, cache_hits)`` lists and its latency list: each
        fragment's result is added to them.
        """
        fragments = self.scatter(query)
        if degrade is not None and degrade.is_noop:
            degrade = None
        kept = None
        if (
            degrade is not None
            and degrade.fanout_cap is not None
            and len(fragments) > degrade.fanout_cap
        ):
            # Keep the shards carrying the most keys (ties: lower shard
            # id); shed the small fragments whole — their keys buy the
            # least coverage per gather slot.
            ranked = sorted(
                fragments.items(),
                key=lambda item: (-len(item[1].unique_keys()), item[0]),
            )
            kept = {shard for shard, _ in ranked[: degrade.fanout_cap]}
        groups = self.groups
        engines = self.engines
        breakers = self.breakers
        # Replica groups enforce the per-attempt deadline internally (a
        # failover legally finishes later than one deadline), so the
        # router-side timeout check only applies to bare engines.
        deadline = self.config.shard_deadline_us if groups is None else None
        if fold is not None:
            queries, pages, ssd_keys, cache_hits, latencies = fold
        subs: Dict[int, QueryResult] = {}
        events: Dict[int, str] = {}
        for shard, fragment in fragments.items():
            breaker = breakers[shard] if breakers is not None else None
            if kept is not None and shard not in kept:
                sub = self._unserved_result(
                    fragment,
                    start_us,
                    start_us,
                    degrade_level=degrade.level,
                    shed=True,
                )
                events[shard] = SHARD_SHED
            elif breaker is not None and not breaker.allow(start_us):
                sub = self._unserved_result(fragment, start_us, start_us)
                events[shard] = SHARD_SKIPPED
            else:
                try:
                    # Looked up per dispatch: swaps and fault doubles
                    # replace ``group.serve`` / ``engine.serve_query`` on
                    # the instance.  A None degrade is not forwarded, so
                    # engines (or test doubles) with the pre-overload
                    # two-argument signature keep working.
                    serve = (
                        groups[shard].serve
                        if groups is not None
                        else engines[shard].serve_query
                    )
                    sub = (
                        serve(fragment, start_us)
                        if degrade is None
                        else serve(fragment, start_us, degrade)
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
                    sub = self._unserved_result(fragment, start_us, finish)
                    breaker.record_failure(finish)
                else:
                    if deadline is not None and sub.latency_us > deadline:
                        sub = self._unserved_result(
                            fragment, start_us, start_us + deadline
                        )
                        events[shard] = SHARD_TIMEOUT
                        if breaker is not None:
                            breaker.record_failure(start_us + deadline)
                    elif breaker is not None:
                        breaker.record_success(sub.finish_us)
            subs[shard] = sub
            if fold is not None:
                queries[shard] += 1
                pages[shard] += sub.pages_read
                ssd_keys[shard] += sub.ssd_keys
                cache_hits[shard] += sub.cache_hits
                latencies.append(sub.finish_us - sub.start_us)
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
        tally = _TraceTally(self, warmup_queries, degrade)
        return tally.finish(simulate(tally, trace, warmup=warmup_queries))

    # -- introspection -----------------------------------------------------------

    def memory_overhead_entries(self) -> int:
        """DRAM index entries summed over every shard engine."""
        return sum(e.memory_overhead_entries() for e in self.engines)

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


def _fold(counts: List[int], subs: Dict[int, QueryResult], field: str) -> None:
    """Add each fragment's ``field`` to its shard's entry of ``counts``."""
    for shard, sub in subs.items():
        counts[shard] += getattr(sub, field)


class _TraceTally:
    """What :func:`simulate` serves during one ``ClusterEngine.serve_trace``.

    Its ``serve_query`` gathers each query through the cluster, as the
    cluster's own does, and adds the fragments and gather events to the
    per-shard counters of a :class:`ClusterReport` once the warmup
    queries have passed.
    """

    def __init__(self, cluster: ClusterEngine, warmup: int, degrade) -> None:
        self.cluster = cluster
        self.config = cluster.config
        self.degrade = degrade
        self.skip = warmup
        n = cluster.num_shards
        self.out = ClusterReport(
            report=ServingReport(),  # the trace's own, set by finish()
            num_shards=n,
            strategy=cluster.plan.strategy,
            **{name: [0] * n for name in _SHARD_COUNTS},
            **{name: [0] * n for name in _EVENT_COUNTS.values()},
        )
        out = self.out
        # What the gather adds each fragment to, the latencies one
        # query's worth (see ClusterEngine._serve_scattered).
        self._latencies: List[float] = []
        self._fold = (
            out.shard_queries,
            out.shard_pages_read,
            out.shard_ssd_keys,
            out.shard_cache_hits,
            self._latencies,
        )
        self._events = {
            event: getattr(self.out, name)
            for event, name in _EVENT_COUNTS.items()
        }

    def serve_query(self, query: Query, start_us: float) -> QueryResult:
        cluster = self.cluster
        if self.skip:
            merged = cluster._serve_scattered(query, start_us, self.degrade)[0]
            self.skip -= 1
            return merged
        latencies = self._latencies
        del latencies[:]
        merged, subs, events = cluster._serve_scattered(
            query, start_us, self.degrade, self._fold
        )
        # The rest are zero on every fragment of a fault-free query.  They
        # are non-negative, so a zero merged total is zero on every shard.
        if merged.tier_hits:
            _fold(self.out.shard_tier_hits, subs, "tier_hits")
        if merged.failovers:
            _fold(self.out.shard_failovers, subs, "failovers")
        if merged.hedges:
            _fold(self.out.shard_hedges, subs, "hedges")
        if merged.hedge_wins:
            _fold(self.out.shard_hedge_wins, subs, "hedge_wins")
        if events:
            for shard, event in events.items():
                self._events[event][shard] += 1
        out = self.out
        out.fanouts.append(len(subs))
        slowest = max(latencies)
        out.straggler_us.append(slowest - sum(latencies) / len(latencies))
        return merged

    def finish(self, report: ServingReport) -> ClusterReport:
        """The tallied report around ``report``, with the cluster's
        breaker, swap and replica state as the trace left them."""
        out, cluster = self.out, self.cluster
        out.report = report
        if cluster.breakers is not None:
            out.breaker_states = [b.state for b in cluster.breakers]
            out.breaker_transitions = [
                list(b.transitions) for b in cluster.breakers
            ]
        out.shard_swaps = list(cluster.swap_counts)
        out.swap_rollbacks = cluster.swap_rollbacks
        if cluster.groups is not None:
            groups = cluster.groups
            out.num_replicas = cluster.config.replicas
            out.replica_states = [list(g.monitor.states) for g in groups]
            out.replica_transitions = [
                len(g.monitor.transitions) for g in groups
            ]
            out.replica_resyncs = [g.resyncs for g in groups]
            out.replica_probes = [g.probes for g in groups]
            out.shard_hedges_denied = [g.hedges_denied for g in groups]
        return out
