"""R-way replica group: one shard, R engines, failover + hedging.

A :class:`ReplicaGroup` owns ``config.replicas`` full
:class:`~repro.serving.ServingEngine`\\ s built from the same shard
layout — each with its own simulated device, DRAM cache and tier, so a
replica failure is a genuine fault domain and replicated bandwidth is
genuinely additive.  The group is what the cluster router dispatches a
fragment to; inside it:

* **dispatch** picks the healthiest replica from the
  :class:`~repro.cluster.replicas.health.ReplicaHealthMonitor`
  (least-loaded tiebreak);
* **failover** catches a faulted or timed-out attempt and retries the
  next-healthiest replica *within the gather* — the fragment's keys are
  served by a survivor instead of reported missing.  Fault detection is
  instant (matching the router's error model); a timeout costs the full
  per-attempt deadline before the next replica is tried, and the
  returned result is rebased to the original start time so the client
  observes the accumulated wait;
* **hedging** re-dispatches a straggling fragment to a secondary after
  the group's observed latency quantile (``hedge_quantile``) and keeps
  whichever completion is earlier.  Both attempts pay their device
  costs — hedging buys tail latency with real load — so a budget caps
  issued hedges at ``hedge_budget`` × dispatched fragments, an
  invariant the group maintains at every step;
* **resync** rebuilds a dead replica after the monitor's resync delay —
  through the CRC-validated ``stage_layout`` staging path when a
  staging directory is configured — and rejoins it as *recovering*
  until probe promotion.

Injected replica faults come from the
:class:`~repro.faults.ShardFaultPlan` on the engine config; with no
plan and ``replicas == 1`` the router never builds groups at all, so
the unreplicated path stays bit-identical to earlier releases.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Deque, Dict, List, Optional, Tuple

from ...errors import RefreshError, ReplicaExhaustedError, ReplicaFault
from ...placement import PageLayout
from ...serving import EngineConfig, ServingEngine
from ...serving.stats import QueryResult
from ...types import Query
from ...utils.reservoir import percentile
from .health import HealthConfig, ReplicaHealthMonitor

#: Fragment latencies retained for the hedge-delay quantile (a recent
#: window, not a uniform sample — hedging should track load drift).
_LATENCY_WINDOW = 512

#: Observed latencies required before hedging activates; below this the
#: quantile is too noisy to name a straggler.
_MIN_HEDGE_SAMPLES = 16

#: Keys (shard-local ids) per probe query.
_PROBE_KEYS = 4

#: Seed stride decorrelating per-replica device fault plans.
_REPLICA_SEED_STRIDE = 0x9E37


class ReplicaGroup:
    """Health-tracked replicas of one logical shard."""

    def __init__(
        self,
        shard: int,
        layout: PageLayout,
        config: "EngineConfig | None" = None,
        health: "HealthConfig | None" = None,
        staging_dir: "str | None" = None,
    ) -> None:
        self.shard = shard
        self.layout = layout
        self.config = config or EngineConfig()
        self.health_config = health or HealthConfig()
        self.num_replicas = self.config.replicas
        self.fault_plan = self.config.shard_fault_plan
        self.deadline_us = self.config.shard_deadline_us
        self.hedge_quantile = self.config.hedge_quantile
        self.hedge_budget = self.config.hedge_budget
        self.staging_dir = staging_dir
        self.engines: List[ServingEngine] = [
            ServingEngine(layout, self._replica_config(r))
            for r in range(self.num_replicas)
        ]
        self.monitor = ReplicaHealthMonitor(
            self.num_replicas, self.health_config
        )
        self._latencies: Deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._dispatch_seq = 0
        self._probe_query = Query(
            tuple(range(min(_PROBE_KEYS, layout.num_keys)))
        )
        # -- lifetime counters (the router folds these into the report) --
        self.fragments = 0
        self.failovers = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.hedges_denied = 0
        self.probes = 0
        self.probe_failures = 0
        self.resyncs = 0
        self.resync_failures = 0

    # -- construction helpers -------------------------------------------------

    def _replica_config(self, replica: int) -> EngineConfig:
        """Per-replica engine config.

        Replica 0 uses the base config verbatim (the ``replicas == 1``
        group is byte-identical to a bare engine).  Later replicas
        decorrelate their device-level fault seeds: identical seeds
        would fail the same page reads on every replica, hiding exactly
        the redundancy the group exists to exploit.
        """
        config = self.config
        if replica == 0 or config.fault_plan is None:
            return config
        plan = replace(
            config.fault_plan,
            seed=config.fault_plan.seed + replica * _REPLICA_SEED_STRIDE,
        )
        return replace(config, fault_plan=plan)

    def close(self) -> None:
        """Retire every replica engine (idempotent)."""
        for engine in self.engines:
            engine.close()

    def adopt_caches(self, previous: "ReplicaGroup") -> None:
        """Carry the displaced group's DRAM caches into this one.

        The cluster's ``keep_cache`` swap semantics, replica by replica
        (a shrunk group simply drops the surplus caches).
        """
        for mine, theirs in zip(self.engines, previous.engines):
            mine.cache = theirs.cache

    # -- serving --------------------------------------------------------------

    def serve(
        self, fragment: Query, start_us: float = 0.0, degrade=None
    ) -> QueryResult:
        """Serve one fragment with failover and optional hedging.

        Raises :class:`~repro.errors.ReplicaExhaustedError` only when
        *every* live replica failed the attempt — the router maps that
        onto its shard-grain outcome taxonomy.
        """
        self._maintain(start_us)
        self.fragments += 1
        monitor = self.monitor
        order = monitor.dispatch_order()
        if not order:
            raise ReplicaExhaustedError(
                f"shard {self.shard}: every replica is dead",
                shard=self.shard,
                kind="error",
            )
        deadline = self.deadline_us
        clock = start_us
        elapsed = 0.0
        failures = 0
        timeouts = 0
        for replica in order:
            try:
                result = self._attempt(replica, fragment, clock, degrade)
            except Exception:  # noqa: BLE001 - failover catches everything
                monitor.record_failure(replica, clock)
                failures += 1
                continue
            latency = result.latency_us
            if deadline is not None and latency > deadline:
                # The caller waited out the deadline before giving up on
                # this replica; the next attempt starts that much later.
                monitor.record_failure(
                    replica, clock + deadline, reason="timeout"
                )
                failures += 1
                timeouts += 1
                clock += deadline
                elapsed += deadline
                continue
            monitor.record_success(replica, latency, result.finish_us)
            self._latencies.append(latency)
            winner = replica
            hedges = hedge_wins = 0
            if failures == 0:
                # Hedge only the clean primary path: a failover already
                # consumed its extra dispatch (and its latency slack).
                result, winner, hedges, hedge_wins = self._maybe_hedge(
                    fragment, start_us, degrade, replica, result, order
                )
            self.failovers += failures
            # The engine's result rebased to the original start, plus this
            # group's provenance; field order is QueryResult's.
            return QueryResult(
                result.requested_keys,
                result.cache_hits,
                result.ssd_keys,
                result.pages_read,
                result.valid_per_read,
                start_us,
                result.finish_us,
                result.execution,
                result.retries,
                result.failed_reads,
                result.recovered_keys,
                result.missing_keys,
                result.degrade_level,
                result.degrade_shed_keys,
                result.tier_hits,
                failures,
                hedges,
                hedge_wins,
                ((self.shard, winner),),
            )
        kind = "timeout" if timeouts and timeouts == failures else "error"
        raise ReplicaExhaustedError(
            f"shard {self.shard}: all {failures} live replicas failed "
            f"({timeouts} timeouts)",
            shard=self.shard,
            kind=kind,
            attempts=failures,
            elapsed_us=elapsed,
        )

    def _attempt(
        self, replica: int, fragment: Query, at_us: float, degrade
    ) -> QueryResult:
        """One dispatch to one replica, with injected replica faults."""
        seq = self._dispatch_seq
        self._dispatch_seq += 1
        self.monitor.record_dispatch(replica)
        plan = self.fault_plan
        if plan is not None:
            if plan.crashed(self.shard, replica, at_us):
                raise ReplicaFault(
                    f"shard {self.shard} replica {replica} is inside its "
                    f"crash window",
                    shard=self.shard,
                    replica=replica,
                    kind="crash",
                )
            if plan.draw_flap(self.shard, replica, seq):
                raise ReplicaFault(
                    f"shard {self.shard} replica {replica} flapped on "
                    f"dispatch {seq}",
                    shard=self.shard,
                    replica=replica,
                    kind="flap",
                )
        extra = () if degrade is None else (degrade,)
        result = self.engines[replica].serve_query(fragment, at_us, *extra)
        if plan is not None:
            factor = plan.degrade_multiplier(self.shard, replica)
            if factor > 1.0:
                result = replace(
                    result, finish_us=at_us + result.latency_us * factor
                )
        return result

    # -- hedging --------------------------------------------------------------

    def hedge_delay_us(self) -> Optional[float]:
        """Current hedge trigger delay, or None while hedging is idle."""
        if (
            self.hedge_quantile is None
            or len(self._latencies) < _MIN_HEDGE_SAMPLES
        ):
            return None
        return percentile(list(self._latencies), self.hedge_quantile * 100.0)

    def _maybe_hedge(
        self,
        fragment: Query,
        start_us: float,
        degrade,
        primary: int,
        result: QueryResult,
        order: List[int],
    ) -> Tuple[QueryResult, int, int, int]:
        """Hedge a straggling primary; returns (result, winner, h, h_wins).

        The budget invariant — ``hedges <= hedge_budget * fragments`` —
        is checked *before* issuing, so it holds at every point in the
        trace, not just at the end.
        """
        delay = self.hedge_delay_us()
        if delay is None or len(order) < 2:
            return result, primary, 0, 0
        if result.latency_us <= delay:
            return result, primary, 0, 0
        if self.hedges + 1 > self.hedge_budget * self.fragments:
            self.hedges_denied += 1
            return result, primary, 0, 0
        secondary = next((r for r in order if r != primary), None)
        if secondary is None:
            return result, primary, 0, 0
        self.hedges += 1
        hedge_start = start_us + delay
        try:
            alternate = self._attempt(secondary, fragment, hedge_start, degrade)
        except Exception:  # noqa: BLE001 - a failed hedge is just a loss
            self.monitor.record_failure(secondary, hedge_start)
            return result, primary, 1, 0
        self.monitor.record_success(
            secondary, alternate.latency_us, alternate.finish_us
        )
        if alternate.finish_us < result.finish_us:
            self.hedge_wins += 1
            return alternate, secondary, 1, 1
        return result, primary, 1, 0

    # -- probes / resync ------------------------------------------------------

    def _maintain(self, now_us: float) -> None:
        """Run due resyncs, then due probes, before dispatching a fragment.

        Only replicas in the monitor's attention set can be due for
        either, so a healthy group does no per-replica work here.
        """
        monitor = self.monitor
        watched = sorted(monitor.attention)
        for replica in watched:
            if monitor.resync_due(replica, now_us):
                self._resync(replica, now_us)
        for replica in watched:
            if monitor.probe_due(replica, now_us):
                self._probe(replica, now_us)

    def _probe(self, replica: int, now_us: float) -> None:
        """Send a tiny canary query through the full attempt path.

        Probes go through :meth:`_attempt`, so a crashed replica fails
        its probes for as long as its crash window lasts — recovery is
        observed, never assumed.
        """
        self.probes += 1
        try:
            result = self._attempt(replica, self._probe_query, now_us, None)
        except Exception:  # noqa: BLE001 - a failed probe is the signal
            self.probe_failures += 1
            self.monitor.record_probe(replica, False, now_us)
            return
        if (
            self.deadline_us is not None
            and result.latency_us > self.deadline_us
        ):
            self.probe_failures += 1
            self.monitor.record_probe(replica, False, now_us)
            return
        self.monitor.record_probe(replica, True, result.finish_us)

    def _resync(self, replica: int, now_us: float) -> None:
        """Rebuild a dead replica from the shard artifacts.

        With a staging directory the layout round-trips through the
        CRC-validated ``stage_layout`` path (the PR 8 machinery); a
        failed staging leaves the replica dead and restarts its resync
        delay instead of retry-storming on every fragment.
        """
        layout = self.layout
        if self.staging_dir is not None:
            # Imported lazily: repro.refresh pulls in the daemon, which
            # imports the cluster package this module lives in.
            from ...refresh.rebuild import stage_layout

            tag = (
                f"shard{self.shard}-replica{replica}-resync{self.resyncs}"
            )
            try:
                layout = stage_layout(layout, str(self.staging_dir), tag)
            except RefreshError:
                self.resync_failures += 1
                self.monitor.dead_since_us[replica] = now_us
                return
        displaced = self.engines[replica]
        self.engines[replica] = ServingEngine(
            layout, self._replica_config(replica)
        )
        displaced.close()
        self.resyncs += 1
        self.monitor.mark_recovering(replica, now_us)

    # -- introspection --------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """Lifetime dispatch/failover/hedge/repair counters."""
        return {
            "fragments": self.fragments,
            "failovers": self.failovers,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "hedges_denied": self.hedges_denied,
            "probes": self.probes,
            "probe_failures": self.probe_failures,
            "resyncs": self.resyncs,
            "resync_failures": self.resync_failures,
        }
