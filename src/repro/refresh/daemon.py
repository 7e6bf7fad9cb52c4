"""The self-healing refresh daemon: watch drift, repair, hot-swap.

:class:`RefreshDaemon` closes the loop that ROADMAP items 2–3 left
open.  It mounts on either repair target:

* a :class:`~repro.core.deploy.LayoutManager` (single-engine mode) —
  drift is judged by the staleness probe's share-of-best plus the
  bandwidth-drop signal, and repairs re-register + swap through the
  manager's versioned registry;
* a :class:`~repro.cluster.ClusterEngine` (cluster mode) — each shard
  gets its own drift watcher fed by the shard's projection of the live
  window, and repairs go through the router's rolling
  ``swap_shards`` (all-or-nothing per repair, rollback on failure).

The repair ladder escalates only on *persistent* evidence: a stale
target first gets a **tier re-plan** (cheap: re-pin the DRAM hot set
from the live window, no engine rebuild), then — if the next probe
still says stale — a **rebuild** of just that target with the offline
pipeline, and finally (cluster mode, when enough shards are stale
at once) one **full re-placement** over the existing shard plan.

Every rebuilt layout is staged through a CRC-validated artifact and
must pass the shadow-score gate before it may swap; a failed swap rolls
back to the previous version; bounded retries with exponential backoff
wrap every repair; and a watchdog marks the daemon degraded-but-serving
after ``max_failures`` consecutive abandoned repairs — the daemon can
stop healing, but it can never take serving down with it.

The daemon is stdlib-thread based (``start``/``stop``), but every test
and bench can drive it deterministically instead: construct it with
``interval_s=None`` and call :meth:`step` by hand.
"""

from __future__ import annotations

import tempfile
import threading
import time
from dataclasses import replace
from typing import Dict, List, Optional

from ..cluster.pipeline import build_sharded_layout, project_trace
from ..cluster.router import ClusterEngine
from ..core.config import MaxEmbedConfig
from ..core.deploy import LayoutManager, window_fingerprint
from ..core.store import build_offline_layout
from ..errors import RefreshError, ServingError
from ..faults.refresh import RefreshFaultPlan
from ..metrics import evaluate_placement
from ..tiering import replan_tier
from ..types import QueryTrace
from .config import RefreshConfig
from .drift import DriftWatcher, TrafficWindow
from .rebuild import shadow_score, stage_layout

#: Daemon lifecycle states surfaced by :meth:`RefreshDaemon.status`.
STATE_WATCHING = "watching"
STATE_PAUSED = "paused"
STATE_DEGRADED = "degraded"

#: Repair-ladder rungs (per target).
RUNG_HEALTHY = 0
RUNG_TIER = 1
RUNG_REBUILT = 2
RUNG_REPLACED = 3

_ERROR_LOG_LIMIT = 16

_COUNTER_KEYS = (
    "steps",
    "probes",
    "drift_detections",
    "tier_replans",
    "rebuild_attempts",
    "swaps",
    "rollbacks",
    "rebuild_failures",
    "swap_failures",
    "shadow_rejections",
    "abandoned_repairs",
    "consecutive_failures",
)


class RefreshDaemon:
    """Background drift-watch / repair-ladder / hot-swap loop.

    Args:
        target: a :class:`LayoutManager` (single-engine mode) or
            :class:`ClusterEngine` (cluster mode).
        config: the daemon's knobs (:class:`RefreshConfig`).
        build_config: offline-build configuration for rebuilds; its
            ``num_shards`` is overridden per repair scope.
        fault_plan: optional :class:`RefreshFaultPlan` injecting
            deterministic failures into the rebuild/stage/swap paths
            (chaos coverage; None injects nothing).
    """

    def __init__(
        self,
        target,
        config: "RefreshConfig | None" = None,
        build_config: "MaxEmbedConfig | None" = None,
        fault_plan: "RefreshFaultPlan | None" = None,
    ) -> None:
        self.config = config or RefreshConfig()
        self.faults = fault_plan
        self.target = target
        if isinstance(target, LayoutManager):
            self.cluster = False
            num_keys = target.engine.layout.num_keys
            self._num_targets = 1
        elif isinstance(target, ClusterEngine):
            self.cluster = True
            num_keys = len(target.plan.assignment)
            self._num_targets = target.num_shards
        else:
            raise ServingError(
                f"refresh target must be a LayoutManager or ClusterEngine, "
                f"got {type(target).__name__}"
            )
        self.build_config = build_config or MaxEmbedConfig()
        self.window = TrafficWindow(num_keys, self.config.window_size)
        self._watchers: Dict[int, DriftWatcher] = {
            i: DriftWatcher(
                self.config.trigger_share,
                self.config.clear_share,
                self.config.drop_fraction,
            )
            for i in range(self._num_targets)
        }
        self._rungs: Dict[int, int] = {
            i: RUNG_HEALTHY for i in range(self._num_targets)
        }
        self.counters: Dict[str, int] = {k: 0 for k in _COUNTER_KEYS}
        self.errors: List[str] = []
        self._degraded = False
        self._staging: Optional[str] = self.config.staging_dir
        self._shard_probe_cache: Dict[tuple, float] = {}
        self._step_lock = threading.Lock()
        self._pause = threading.Event()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> bool:
        """Spawn the background thread (no-op in manual/stepped mode)."""
        if self.config.interval_s is None:
            return False
        if self._thread is not None and self._thread.is_alive():
            return True
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="refresh-daemon", daemon=True
        )
        self._thread.start()
        return True

    def stop(self) -> None:
        """Stop the background thread (idempotent; safe in manual mode)."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)

    def pause(self) -> None:
        """Suspend repairs (drain-time: never swap under a draining
        gateway)."""
        self._pause.set()

    def resume(self) -> None:
        """Resume repairs after :meth:`pause`."""
        self._pause.clear()

    @property
    def running(self) -> bool:
        """True while the background thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    @property
    def paused(self) -> bool:
        """True while repairs are suspended."""
        return self._pause.is_set()

    @property
    def degraded(self) -> bool:
        """True once the watchdog gave up on repairs (serving goes on)."""
        return self._degraded

    def _run(self) -> None:
        interval = self.config.interval_s
        assert interval is not None
        while not self._stop.wait(interval):
            if self._pause.is_set():
                continue
            self.step()

    # -- observation -----------------------------------------------------------

    def observe(self, query) -> None:
        """Feed one served query into the drift window."""
        self.window.observe(query)

    def observe_many(self, queries) -> None:
        """Feed a batch of served queries into the drift window."""
        self.window.observe_many(queries)

    # -- one iteration ---------------------------------------------------------

    def step(self) -> Dict[str, object]:
        """Run one watch→repair iteration synchronously.

        Never raises: repair errors are counted, logged (bounded) and
        retried/abandoned per the config — the serving path must never
        die of its healer.  Returns a summary of what the step did.
        """
        with self._step_lock:
            self.counters["steps"] += 1
            if self._pause.is_set():
                return {"action": "paused"}
            if self._degraded:
                return {"action": "degraded"}
            if len(self.window) < self.config.min_window:
                return {
                    "action": "warming",
                    "window": len(self.window),
                    "needed": self.config.min_window,
                }
            snapshot = self.window.snapshot()
            try:
                if self.cluster:
                    return self._step_cluster(snapshot)
                return self._step_single(snapshot)
            except Exception as exc:  # noqa: BLE001 - watchdog boundary
                # Belt and braces: individual repairs handle their own
                # failures; anything escaping to here is a daemon bug,
                # and the daemon absorbs it rather than killing serving.
                self._note_error(exc)
                self._register_failure()
                return {"action": "error", "error": str(exc)}

    # -- single-engine mode ----------------------------------------------------

    def _active_record(self):
        manager = self.target
        for record in manager.versions():
            if record.version == manager.active_version:
                return record
        raise ServingError("active version missing from registry")

    def _step_single(self, snapshot: QueryTrace) -> Dict[str, object]:
        manager: LayoutManager = self.target
        scores = manager.staleness_probe(
            snapshot, max_queries=self.config.probe_max_queries
        )
        self.counters["probes"] += 1
        record = self._active_record()
        active_name = record.label or f"v{record.version}"
        active_bw = scores[active_name]
        share = scores["active_share_of_best"]
        watcher = self._watchers[0]
        if not watcher.assess(active_bw, share):
            self._rungs[0] = RUNG_HEALTHY
            return {
                "action": "healthy",
                "share_of_best": share,
                "active_bw": active_bw,
            }
        self.counters["drift_detections"] += 1
        engine = manager.engine
        if (
            self._rungs[0] == RUNG_HEALTHY
            and self.config.tier_first
            and engine.config.tier_mode != "lru"
        ):
            return self._tier_replan_single(snapshot)
        return self._rebuild_single(snapshot)

    def _tier_replan_single(self, snapshot: QueryTrace) -> Dict[str, object]:
        manager: LayoutManager = self.target
        engine = manager.engine
        ratio = engine.config.tier_ratio or (
            engine.tier_plan.tier_ratio if engine.tier_plan else 0.0
        )
        plan = replan_tier(
            engine.layout, snapshot, ratio, previous=engine.tier_plan
        )
        engine.apply_tier_plan(plan)
        self._rungs[0] = RUNG_TIER
        self.counters["tier_replans"] += 1
        return {"action": "tier-replan", "pinned_keys": plan.capacity}

    def _rebuild_single(self, snapshot: QueryTrace) -> Dict[str, object]:
        manager: LayoutManager = self.target
        cfg = self.config
        last_error: Optional[Exception] = None
        for attempt in range(cfg.max_retries):
            seq = self.counters["rebuild_attempts"]
            self.counters["rebuild_attempts"] += 1
            try:
                if self.faults is not None and self.faults.draw_rebuild_failure(
                    0, seq
                ):
                    raise RefreshError(
                        "injected rebuild failure", stage="rebuild"
                    )
                layout = build_offline_layout(
                    snapshot, self._scoped_build_config(1)
                )
                corrupt = (
                    self.faults is not None
                    and self.faults.draw_corrupt_artifact(0, seq)
                )
                staged = stage_layout(
                    layout, self._staging_dir(), f"single-{seq}",
                    corrupt=corrupt,
                )
                score = shadow_score(
                    staged,
                    manager.engine.layout,
                    snapshot,
                    manager.config.spec,
                    max_queries=cfg.probe_max_queries,
                    margin=cfg.shadow_margin,
                )
                if not score.passes:
                    self.counters["shadow_rejections"] += 1
                    # A rebuild from this window cannot beat the active
                    # layout; rebuilding again would spin.  Accept the
                    # current bandwidth as the new baseline and re-arm.
                    self._watchers[0].rebaseline(score.active_bw)
                    self._rungs[0] = RUNG_HEALTHY
                    return {
                        "action": "shadow-rejected",
                        "candidate_bw": score.candidate_bw,
                        "active_bw": score.active_bw,
                    }
                record = manager.register(staged, label=f"refresh-{seq}")
                previous = manager.active_version
                manager.swap(record.version, keep_cache=cfg.keep_cache)
                try:
                    if (
                        self.faults is not None
                        and self.faults.draw_swap_failure(0, seq)
                    ):
                        raise RefreshError(
                            "injected swap failure", stage="swap"
                        )
                except Exception:
                    # Any swap-time error rolls back to the previous
                    # version before propagating into the retry loop.
                    manager.swap(previous, keep_cache=cfg.keep_cache)
                    self.counters["rollbacks"] += 1
                    raise
                self.counters["swaps"] += 1
                self.counters["consecutive_failures"] = 0
                self._watchers[0].rebaseline(score.candidate_bw)
                self._rungs[0] = RUNG_REBUILT
                return {
                    "action": "swap",
                    "version": record.version,
                    "candidate_bw": score.candidate_bw,
                    "active_bw": score.active_bw,
                }
            except Exception as exc:  # noqa: BLE001 - retried below
                last_error = exc
                self._count_repair_error(exc)
                self._backoff(attempt)
        return self._abandon(last_error)

    # -- cluster mode ----------------------------------------------------------

    def _shard_bw(self, shard: int, window: QueryTrace) -> float:
        engine: ClusterEngine = self.target
        layout = engine.engines[shard].layout
        key = (
            shard,
            id(layout),
            window_fingerprint(window, self.config.probe_max_queries),
        )
        cached = self._shard_probe_cache.get(key)
        if cached is not None:
            return cached
        spec = engine.config.spec
        bw = evaluate_placement(
            layout,
            window,
            max_queries=self.config.probe_max_queries,
            embedding_bytes=spec.embedding_bytes,
            page_size=spec.page_size,
        ).effective_fraction()
        if len(self._shard_probe_cache) >= 256:
            self._shard_probe_cache.clear()
        self._shard_probe_cache[key] = bw
        return bw

    def _step_cluster(self, snapshot: QueryTrace) -> Dict[str, object]:
        engine: ClusterEngine = self.target
        cfg = self.config
        shard_windows: Dict[int, QueryTrace] = {}
        stale: List[int] = []
        for shard in range(engine.num_shards):
            window = project_trace(snapshot, engine.plan, shard)
            if not len(window.queries):
                continue
            shard_windows[shard] = window
            bw = self._shard_bw(shard, window)
            if self._watchers[shard].assess(bw):
                stale.append(shard)
            else:
                self._rungs[shard] = RUNG_HEALTHY
        self.counters["probes"] += 1
        if not stale:
            return {"action": "healthy", "shards_probed": len(shard_windows)}
        self.counters["drift_detections"] += 1
        tiered = engine.config.tier_mode != "lru"
        past_tier = [
            s
            for s in stale
            if self._rungs[s] >= RUNG_TIER or not (cfg.tier_first and tiered)
        ]
        if (
            len(past_tier) > 1
            and len(past_tier)
            >= cfg.full_replace_fraction * engine.num_shards
        ):
            return self._full_replace(snapshot, shard_windows)
        actions: Dict[str, object] = {"action": "repair", "shards": {}}
        for shard in stale:
            if (
                self._rungs[shard] == RUNG_HEALTHY
                and cfg.tier_first
                and tiered
            ):
                actions["shards"][shard] = self._tier_replan_shard(
                    shard, shard_windows[shard]
                )
            else:
                actions["shards"][shard] = self._rebuild_shard(
                    shard, shard_windows[shard]
                )
        return actions

    def _tier_replan_shard(
        self, shard: int, window: QueryTrace
    ) -> Dict[str, object]:
        engine: ClusterEngine = self.target
        shard_engine = engine.engines[shard]
        ratio = engine.config.tier_ratio or (
            shard_engine.tier_plan.tier_ratio
            if shard_engine.tier_plan
            else 0.0
        )
        plan = replan_tier(
            shard_engine.layout, window, ratio,
            previous=shard_engine.tier_plan,
        )
        shard_engine.apply_tier_plan(plan)
        self._rungs[shard] = RUNG_TIER
        self.counters["tier_replans"] += 1
        return {"action": "tier-replan", "pinned_keys": plan.capacity}

    def _rebuild_shard(
        self, shard: int, window: QueryTrace
    ) -> Dict[str, object]:
        engine: ClusterEngine = self.target
        cfg = self.config
        last_error: Optional[Exception] = None
        for attempt in range(cfg.max_retries):
            seq = self.counters["rebuild_attempts"]
            self.counters["rebuild_attempts"] += 1
            try:
                if self.faults is not None and self.faults.draw_rebuild_failure(
                    shard, seq
                ):
                    raise RefreshError(
                        "injected rebuild failure", stage="rebuild"
                    )
                layout = build_offline_layout(
                    window, self._scoped_build_config(1)
                )
                corrupt = (
                    self.faults is not None
                    and self.faults.draw_corrupt_artifact(shard, seq)
                )
                staged = stage_layout(
                    layout,
                    self._staging_dir(),
                    f"shard{shard}-{seq}",
                    corrupt=corrupt,
                )
                score = shadow_score(
                    staged,
                    engine.engines[shard].layout,
                    window,
                    engine.config.spec,
                    max_queries=cfg.probe_max_queries,
                    margin=cfg.shadow_margin,
                )
                if not score.passes:
                    self.counters["shadow_rejections"] += 1
                    self._watchers[shard].rebaseline(score.active_bw)
                    self._rungs[shard] = RUNG_HEALTHY
                    return {
                        "action": "shadow-rejected",
                        "candidate_bw": score.candidate_bw,
                        "active_bw": score.active_bw,
                    }
                self._guarded_cluster_swap({shard: staged}, seq)
                self.counters["swaps"] += 1
                self.counters["consecutive_failures"] = 0
                self._watchers[shard].rebaseline(score.candidate_bw)
                self._rungs[shard] = RUNG_REBUILT
                return {"action": "swap", "candidate_bw": score.candidate_bw}
            except Exception as exc:  # noqa: BLE001 - retried below
                last_error = exc
                self._count_repair_error(exc)
                self._backoff(attempt)
        return self._abandon(last_error)

    def _full_replace(
        self, snapshot: QueryTrace, shard_windows: Dict[int, QueryTrace]
    ) -> Dict[str, object]:
        engine: ClusterEngine = self.target
        cfg = self.config
        last_error: Optional[Exception] = None
        for attempt in range(cfg.max_retries):
            seq = self.counters["rebuild_attempts"]
            self.counters["rebuild_attempts"] += 1
            try:
                if self.faults is not None and self.faults.draw_rebuild_failure(
                    -1, seq
                ):
                    raise RefreshError(
                        "injected rebuild failure", stage="rebuild"
                    )
                # Re-place every shard over the *existing* shard plan —
                # the router's key→shard mapping is fixed for the life
                # of the cluster, only the per-shard page layouts move.
                sharded = build_sharded_layout(
                    snapshot,
                    self._scoped_build_config(engine.num_shards),
                    plan=engine.plan,
                )
                staged: Dict[int, object] = {}
                for shard, layout in enumerate(sharded.layouts):
                    corrupt = (
                        self.faults is not None
                        and self.faults.draw_corrupt_artifact(shard, seq)
                    )
                    staged[shard] = stage_layout(
                        layout,
                        self._staging_dir(),
                        f"full{seq}-shard{shard}",
                        corrupt=corrupt,
                    )
                candidate_bw, active_bw = self._aggregate_shadow(
                    staged, shard_windows
                )
                if candidate_bw < active_bw * cfg.shadow_margin:
                    self.counters["shadow_rejections"] += 1
                    for shard, window in shard_windows.items():
                        self._watchers[shard].rebaseline(
                            self._shard_bw(shard, window)
                        )
                        self._rungs[shard] = RUNG_HEALTHY
                    return {
                        "action": "shadow-rejected",
                        "candidate_bw": candidate_bw,
                        "active_bw": active_bw,
                    }
                self._guarded_cluster_swap(staged, seq)
                self.counters["swaps"] += 1
                self.counters["consecutive_failures"] = 0
                self._shard_probe_cache.clear()
                for shard, window in shard_windows.items():
                    self._watchers[shard].rebaseline(
                        self._shard_bw(shard, window)
                    )
                    self._rungs[shard] = RUNG_REPLACED
                return {
                    "action": "full-replace",
                    "shards": engine.num_shards,
                    "candidate_bw": candidate_bw,
                    "active_bw": active_bw,
                }
            except Exception as exc:  # noqa: BLE001 - retried below
                last_error = exc
                self._count_repair_error(exc)
                self._backoff(attempt)
        return self._abandon(last_error)

    def _aggregate_shadow(self, staged, shard_windows):
        """Mean candidate/active effective bandwidth over probed shards."""
        engine: ClusterEngine = self.target
        cfg = self.config
        candidate_scores: List[float] = []
        active_scores: List[float] = []
        for shard, window in shard_windows.items():
            score = shadow_score(
                staged[shard],
                engine.engines[shard].layout,
                window,
                engine.config.spec,
                max_queries=cfg.probe_max_queries,
            )
            candidate_scores.append(score.candidate_bw)
            active_scores.append(score.active_bw)
        if not candidate_scores:
            return 0.0, 0.0
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        return mean(candidate_scores), mean(active_scores)

    def _guarded_cluster_swap(self, staged, seq: int) -> None:
        """Rolling swap with injected mid-swap failures → rollback."""
        engine: ClusterEngine = self.target

        def after_install(shard: int) -> None:
            if self.faults is not None and self.faults.draw_swap_failure(
                shard, seq
            ):
                raise RefreshError(
                    f"injected swap failure after installing shard {shard}",
                    stage="swap",
                )

        try:
            engine.swap_shards(
                staged,
                keep_cache=self.config.keep_cache,
                after_install=after_install,
            )
        except Exception:
            # swap_shards already rolled the cluster back; account it.
            self.counters["rollbacks"] += 1
            raise

    # -- shared plumbing -------------------------------------------------------

    def _scoped_build_config(self, num_shards: int) -> MaxEmbedConfig:
        return replace(self.build_config, num_shards=num_shards)

    def _staging_dir(self) -> str:
        if self._staging is None:
            self._staging = tempfile.mkdtemp(prefix="repro-refresh-")
        return self._staging

    def _backoff(self, attempt: int) -> None:
        if self.config.backoff_s > 0:
            time.sleep(self.config.backoff_s * (2**attempt))

    def _count_repair_error(self, exc: Exception) -> None:
        if getattr(exc, "stage", "") == "swap":
            self.counters["swap_failures"] += 1
        else:
            self.counters["rebuild_failures"] += 1
        self._note_error(exc)

    def _note_error(self, exc: Exception) -> None:
        if len(self.errors) < _ERROR_LOG_LIMIT:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    def _register_failure(self) -> None:
        self.counters["abandoned_repairs"] += 1
        self.counters["consecutive_failures"] += 1
        if self.counters["consecutive_failures"] >= self.config.max_failures:
            self._degraded = True

    def _abandon(self, exc: Optional[Exception]) -> Dict[str, object]:
        self._register_failure()
        return {
            "action": "repair-failed",
            "error": str(exc) if exc is not None else "unknown",
            "degraded": self._degraded,
        }

    # -- introspection ---------------------------------------------------------

    @property
    def state(self) -> str:
        """``degraded`` > ``paused`` > ``watching``."""
        if self._degraded:
            return STATE_DEGRADED
        if self._pause.is_set():
            return STATE_PAUSED
        return STATE_WATCHING

    def status(self) -> Dict[str, object]:
        """Counters + state for ``/refresh`` and the metrics tree.

        Numeric leaves render straight into Prometheus gauges through
        the generic metrics flattener.
        """
        return {
            "state": self.state,
            "cluster": int(self.cluster),
            "running": int(self.running),
            "paused": int(self.paused),
            "degraded": int(self._degraded),
            "window": len(self.window),
            "observed": self.window.total_observed,
            "rungs": {str(k): v for k, v in sorted(self._rungs.items())},
            "errors": list(self.errors),
            **{k: v for k, v in self.counters.items()},
        }
