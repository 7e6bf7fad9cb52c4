"""The self-healing refresh daemon: watch drift, repair, hot-swap.

:class:`RefreshDaemon` closes the loop that ROADMAP items 2–3 left
open.  It runs one repair ladder over ``N`` targets:

* a :class:`~repro.core.deploy.LayoutManager` is one target — probed on
  the whole window by the manager's staleness probe (its bandwidth plus
  its share of the best retained version), repaired by registering the
  rebuilt layout and swapping to it;
* a :class:`~repro.cluster.ClusterEngine` has one target per shard —
  each probed on its projection of the window by bandwidth alone,
  repaired through the router's rolling ``swap_shards``.

A target's window, its probe and the install of a staged layout are the
only steps that differ; every step runs the same loop.  The ladder
escalates only on *persistent* evidence: a stale target first gets a
**tier re-plan** (cheap: re-pin the DRAM hot set from the live window,
no engine rebuild), then — if the next probe still says stale — a
**rebuild** of just that target with the offline pipeline, and finally
(when enough targets are past rung 1 at once) one **full re-placement**
over the existing shard plan.

Every rebuilt layout is staged through a CRC-validated artifact and
must pass the shadow-score gate before it may swap.  Both swap owners
share one rollback rule: a swap that fails after installing puts back
the very engines it displaced — with their caches, breakers and
re-pinned tier plans — and closes only the abandoned candidates.
Bounded retries with exponential backoff wrap every repair, and a
watchdog marks the daemon degraded-but-serving after ``max_failures``
consecutive abandoned repairs — the daemon can stop healing, but it can
never take serving down with it.

The daemon is stdlib-thread based (``start``/``stop``), but every test
and bench can drive it deterministically instead: construct it with
``interval_s=None`` and call :meth:`step` by hand.
"""

from __future__ import annotations

import tempfile
import threading
import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from ..cluster.pipeline import build_sharded_layout, project_trace
from ..cluster.router import ClusterEngine
from ..core.config import MaxEmbedConfig
from ..core.deploy import LayoutManager, window_fingerprint
from ..core.store import build_offline_layout
from ..errors import RefreshError, ServingError
from ..faults.refresh import RefreshFaultPlan
from ..metrics import evaluate_placement
from ..placement import PageLayout
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
        target: a :class:`LayoutManager` (one target) or
            :class:`ClusterEngine` (one target per shard).
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
            self._engine = lambda i: target.engine
            num_keys = target.engine.layout.num_keys
            self._num_targets = 1
        elif isinstance(target, ClusterEngine):
            self.cluster = True
            self._engine = lambda i: target.engines[i]
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
        self._probe_cache: Dict[tuple, float] = {}
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

    def observe(self, keys) -> None:
        """Feed one served query's keys into the drift window."""
        self.window.observe(keys)

    def observe_many(self, batch) -> None:
        """Feed a batch of served queries' keys into the drift window."""
        self.window.observe_many(batch)

    # -- one iteration ---------------------------------------------------------

    def step(self) -> Dict[str, object]:
        """Run one watch→repair iteration synchronously.

        Never raises: repair errors are counted, logged (bounded) and
        retried/abandoned per the config — the serving path must never
        die of its healer.  Returns a summary of what the step did: a
        one-target daemon returns its target's action; a cluster returns
        ``healthy`` with the shards probed, ``repair`` with each stale
        shard's action, or one ``full-replace``.
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
                return self._climb(snapshot)
            except Exception as exc:  # noqa: BLE001 - watchdog boundary
                # Belt and braces: individual repairs handle their own
                # failures; anything escaping to here is a daemon bug,
                # and the daemon absorbs it rather than killing serving.
                self._note_error(exc)
                self._register_failure()
                return {"action": "error", "error": str(exc)}

    def _climb(self, snapshot: QueryTrace) -> Dict[str, object]:
        cfg = self.config
        windows: Dict[int, QueryTrace] = {}
        actions: Dict[int, Dict[str, object]] = {}
        stale: List[int] = []
        for i in range(self._num_targets):
            window = self._window(i, snapshot)
            if not len(window.queries):
                continue
            windows[i] = window
            bw, share = self._probe(i, window)
            if self._watchers[i].assess(bw, share):
                stale.append(i)
            else:
                self._rungs[i] = RUNG_HEALTHY
                actions[i] = {
                    "action": "healthy",
                    "share_of_best": share,
                    "active_bw": bw,
                }
        self.counters["probes"] += 1
        if stale:
            self.counters["drift_detections"] += 1
            tier_first = (
                cfg.tier_first and self.target.config.tier_mode != "lru"
            )
            past_tier = [
                i
                for i in stale
                if self._rungs[i] >= RUNG_TIER or not tier_first
            ]
            if (
                len(past_tier) > 1
                and len(past_tier)
                >= cfg.full_replace_fraction * self._num_targets
            ):
                return self._full_replace(snapshot, windows)
            for i in stale:
                if self._rungs[i] == RUNG_HEALTHY and tier_first:
                    actions[i] = self._tier_replan(i, windows[i])
                else:
                    actions[i] = self._rebuild(i, windows[i])
        if self._num_targets == 1:
            return actions[0]
        if not stale:
            return {"action": "healthy", "shards_probed": len(windows)}
        return {"action": "repair", "shards": {i: actions[i] for i in stale}}

    # -- what differs between a manager and a cluster --------------------------

    def _window(self, i: int, snapshot: QueryTrace) -> QueryTrace:
        """Target ``i``'s traffic: the snapshot, or its shard's share."""
        if self.cluster:
            return project_trace(snapshot, self.target.plan, i)
        return snapshot

    def _probe(
        self, i: int, window: QueryTrace
    ) -> Tuple[float, Optional[float]]:
        """Target ``i``'s effective bandwidth on its window, and its
        share of the best retained version (None for a shard: a cluster
        keeps no versions to rank against)."""
        max_queries = self.config.probe_max_queries
        if not self.cluster:
            manager = self.target
            scores = manager.staleness_probe(window, max_queries=max_queries)
            active = next(
                record
                for record in manager.versions()
                if record.version == manager.active_version
            )
            return (
                scores[active.label or f"v{active.version}"],
                scores["active_share_of_best"],
            )
        layout = self.target.engines[i].layout
        key = (i, id(layout), window_fingerprint(window, max_queries))
        bw = self._probe_cache.get(key)
        if bw is None:
            spec = self.target.config.spec
            bw = evaluate_placement(
                layout,
                window,
                max_queries=max_queries,
                embedding_bytes=spec.embedding_bytes,
                page_size=spec.page_size,
            ).effective_fraction()
            if len(self._probe_cache) >= 256:
                self._probe_cache.clear()
            self._probe_cache[key] = bw
        return bw, None

    def _install(
        self, staged: Dict[int, PageLayout], seq: int
    ) -> Dict[str, object]:
        """Swap the staged layouts in, all or none.

        Returns what the action reports about the install (the new
        version, for a manager).  The fault plan's swap failures strike
        after each target is installed; either owner has put the
        displaced engines back by the time the error reaches here.
        """

        def after_install(i: int) -> None:
            if self.faults is not None and self.faults.draw_swap_failure(
                i, seq
            ):
                raise RefreshError(
                    f"injected swap failure after installing target {i}",
                    stage="swap",
                )

        keep_cache = self.config.keep_cache
        installed: Dict[str, object] = {}
        try:
            if self.cluster:
                self.target.swap_shards(staged, keep_cache, after_install)
            else:
                record = self.target.register(
                    staged[0], label=f"refresh-{seq}"
                )
                self.target.swap(
                    record.version, keep_cache, lambda _: after_install(0)
                )
                installed["version"] = record.version
        except Exception:
            self.counters["rollbacks"] += 1
            raise
        self.counters["swaps"] += 1
        self.counters["consecutive_failures"] = 0
        # A swapped-out layout may be freed and its id() reused by a
        # later one, so its cached scores must not outlive the swap.
        self._probe_cache = {
            key: bw
            for key, bw in self._probe_cache.items()
            if key[0] not in staged
        }
        return installed

    # -- the rungs -------------------------------------------------------------

    def _tier_replan(self, i: int, window: QueryTrace) -> Dict[str, object]:
        engine = self._engine(i)
        ratio = engine.config.tier_ratio or (
            engine.tier_plan.tier_ratio if engine.tier_plan else 0.0
        )
        plan = replan_tier(
            engine.layout, window, ratio, previous=engine.tier_plan
        )
        engine.apply_tier_plan(plan)
        self._rungs[i] = RUNG_TIER
        self.counters["tier_replans"] += 1
        return {"action": "tier-replan", "pinned_keys": plan.capacity}

    def _rebuild(self, i: int, window: QueryTrace) -> Dict[str, object]:
        cfg = self.config

        def attempt(seq: int) -> Dict[str, object]:
            layout = build_offline_layout(
                window, self._scoped_build_config(1)
            )
            staged = self._stage(layout, i, seq, f"target{i}-{seq}")
            score = shadow_score(
                staged,
                self._engine(i).layout,
                window,
                self.target.config.spec,
                max_queries=cfg.probe_max_queries,
                margin=cfg.shadow_margin,
            )
            if not score.passes:
                self.counters["shadow_rejections"] += 1
                # A rebuild from this window cannot beat the active
                # layout; rebuilding again would spin.  Accept the
                # current bandwidth as the new baseline and re-arm.
                self._watchers[i].rebaseline(score.active_bw)
                self._rungs[i] = RUNG_HEALTHY
                return {
                    "action": "shadow-rejected",
                    "candidate_bw": score.candidate_bw,
                    "active_bw": score.active_bw,
                }
            installed = self._install({i: staged}, seq)
            self._watchers[i].rebaseline(score.candidate_bw)
            self._rungs[i] = RUNG_REBUILT
            return {
                "action": "swap",
                **installed,
                "candidate_bw": score.candidate_bw,
                "active_bw": score.active_bw,
            }

        return self._retrying(i, attempt)

    def _full_replace(
        self, snapshot: QueryTrace, windows: Dict[int, QueryTrace]
    ) -> Dict[str, object]:
        cfg = self.config
        num_targets = self._num_targets

        def settle(rung: int) -> None:
            for i, window in windows.items():
                self._watchers[i].rebaseline(self._probe(i, window)[0])
                self._rungs[i] = rung

        def attempt(seq: int) -> Dict[str, object]:
            # Re-place every shard over the *existing* shard plan — the
            # router's key→shard mapping is fixed for the life of the
            # cluster, only the per-shard page layouts move.
            sharded = build_sharded_layout(
                snapshot,
                self._scoped_build_config(num_targets),
                plan=self.target.plan,
            )
            staged = {
                i: self._stage(layout, i, seq, f"full{seq}-target{i}")
                for i, layout in enumerate(sharded.layouts)
            }
            candidate_bw, active_bw = self._aggregate_shadow(staged, windows)
            if candidate_bw < active_bw * cfg.shadow_margin:
                self.counters["shadow_rejections"] += 1
                settle(RUNG_HEALTHY)
                return {
                    "action": "shadow-rejected",
                    "candidate_bw": candidate_bw,
                    "active_bw": active_bw,
                }
            self._install(staged, seq)
            settle(RUNG_REPLACED)
            return {
                "action": "full-replace",
                "shards": num_targets,
                "candidate_bw": candidate_bw,
                "active_bw": active_bw,
            }

        return self._retrying(-1, attempt)

    def _aggregate_shadow(self, staged, windows):
        """Mean candidate/active effective bandwidth over probed shards."""
        candidate_scores: List[float] = []
        active_scores: List[float] = []
        for i, window in windows.items():
            score = shadow_score(
                staged[i],
                self._engine(i).layout,
                window,
                self.target.config.spec,
                max_queries=self.config.probe_max_queries,
            )
            candidate_scores.append(score.candidate_bw)
            active_scores.append(score.active_bw)
        if not candidate_scores:
            return 0.0, 0.0
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        return mean(candidate_scores), mean(active_scores)

    # -- shared plumbing -------------------------------------------------------

    def _retrying(
        self, target: int, attempt: Callable[[int], Dict[str, object]]
    ) -> Dict[str, object]:
        """Run ``attempt(seq)`` until it returns, at most ``max_retries``
        times with backoff, then abandon the repair.  ``target`` (-1 for
        a full re-placement) is where injected rebuild failures land."""
        last_error: Optional[Exception] = None
        for retry in range(self.config.max_retries):
            seq = self.counters["rebuild_attempts"]
            self.counters["rebuild_attempts"] += 1
            try:
                if self.faults is not None and self.faults.draw_rebuild_failure(
                    target, seq
                ):
                    raise RefreshError(
                        "injected rebuild failure", stage="rebuild"
                    )
                return attempt(seq)
            except Exception as exc:  # noqa: BLE001 - retried below
                last_error = exc
                self._count_repair_error(exc)
                self._backoff(retry)
        return self._abandon(last_error)

    def _stage(
        self, layout: PageLayout, target: int, seq: int, tag: str
    ) -> PageLayout:
        corrupt = self.faults is not None and self.faults.draw_corrupt_artifact(
            target, seq
        )
        staging = self.config.staging_dir
        if staging is not None:
            return stage_layout(layout, staging, tag, corrupt=corrupt)
        # No configured directory: stage in one made for this artifact
        # and removed with it, so the daemon leaves nothing on disk.
        with tempfile.TemporaryDirectory(prefix="repro-refresh-") as scratch:
            return stage_layout(layout, scratch, tag, corrupt=corrupt)

    def _scoped_build_config(self, num_shards: int) -> MaxEmbedConfig:
        return replace(self.build_config, num_shards=num_shards)

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
