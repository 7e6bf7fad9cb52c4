"""Chaos suite for the refresh daemon's repair paths.

Injects deterministic faults (:class:`~repro.faults.RefreshFaultPlan`)
into each stage of the repair ladder — the offline rebuild, the staged
artifact, and the swap itself — and proves the crash-safety contract:

* a corrupt staged artifact never reaches an engine (CRC validation
  turns it into a retried :class:`~repro.errors.RefreshError`);
* a failed swap always rolls back to the previous version — the cluster
  is never left partially swapped, in any seed;
* repeated failures trip the watchdog into ``degraded`` while the
  serving path keeps answering every query completely.
"""

import os
import tempfile
import threading
import time

import pytest

from repro import (
    ConfigError,
    EngineConfig,
    MaxEmbedConfig,
    RefreshConfig,
    RefreshDaemon,
    RefreshError,
    RefreshFaultPlan,
    ShpConfig,
    build_offline_layout,
    build_sharded_layout,
)
from repro.cluster import ClusterEngine
from repro.core import LayoutManager, deploy
from repro.refresh import STATE_DEGRADED, STATE_WATCHING, stage_layout
from repro.workloads.drift import drifted_trace_for


def _build_config(num_shards: int = 1) -> MaxEmbedConfig:
    return MaxEmbedConfig(
        strategy="maxembed",
        replication_ratio=0.2,
        shp=ShpConfig(max_iterations=6, seed=7),
        num_shards=num_shards,
        seed=7,
    )


def _daemon_config(**overrides) -> RefreshConfig:
    defaults = dict(
        interval_s=None,
        window_size=256,
        min_window=64,
        probe_max_queries=200,
        backoff_s=0.0,
        drop_fraction=0.10,
        max_retries=2,
        tier_first=False,
    )
    defaults.update(overrides)
    return RefreshConfig(**defaults)


@pytest.fixture(scope="module")
def drift_pair(criteo_small):
    history, live = criteo_small
    drifted = drifted_trace_for("criteo", scale="small", base_seed=7,
                                drift_seed=11)
    _, drifted_live = drifted.split(0.5)
    return history, live, drifted_live


def _drifted_single_daemon(drift_pair, fault_plan, **config_overrides):
    """A single-mode daemon one step away from attempting a rebuild."""
    history, live, drifted_live = drift_pair
    layout = build_offline_layout(history, _build_config())
    manager = LayoutManager(layout, EngineConfig(tier_mode="lru"))
    daemon = RefreshDaemon(
        manager,
        _daemon_config(**config_overrides),
        build_config=_build_config(),
        fault_plan=fault_plan,
    )
    daemon.observe_many(q.keys for q in live.queries[:200])
    assert daemon.step()["action"] == "healthy"  # baseline on live traffic
    daemon.observe_many(q.keys for q in drifted_live.queries)
    return manager, daemon


class TestRefreshFaultPlan:
    def test_draws_are_deterministic(self):
        a = RefreshFaultPlan(seed=3, rebuild_failure_rate=0.5,
                             corrupt_artifact_rate=0.5,
                             swap_failure_rate=0.5)
        b = RefreshFaultPlan(seed=3, rebuild_failure_rate=0.5,
                             corrupt_artifact_rate=0.5,
                             swap_failure_rate=0.5)
        draws_a = [
            (a.draw_rebuild_failure(s, t), a.draw_corrupt_artifact(s, t),
             a.draw_swap_failure(s, t))
            for s in (-1, 0, 1) for t in range(16)
        ]
        draws_b = [
            (b.draw_rebuild_failure(s, t), b.draw_corrupt_artifact(s, t),
             b.draw_swap_failure(s, t))
            for s in (-1, 0, 1) for t in range(16)
        ]
        assert draws_a == draws_b
        assert any(any(row) for row in draws_a)
        assert not all(all(row) for row in draws_a)

    def test_zero_rates_never_fire(self):
        plan = RefreshFaultPlan(seed=1)
        assert not any(
            plan.draw_rebuild_failure(0, t)
            or plan.draw_corrupt_artifact(0, t)
            or plan.draw_swap_failure(0, t)
            for t in range(64)
        )

    @pytest.mark.parametrize(
        "field",
        ["rebuild_failure_rate", "corrupt_artifact_rate",
         "swap_failure_rate"],
    )
    def test_rates_validated(self, field):
        with pytest.raises(ConfigError):
            RefreshFaultPlan(**{field: 1.5})


class TestStagingValidation:
    def test_corrupt_artifact_never_loads(self, criteo_small, tmp_path):
        history, _ = criteo_small
        layout = build_offline_layout(history, _build_config())
        with pytest.raises(RefreshError) as excinfo:
            stage_layout(layout, str(tmp_path), "torn", corrupt=True)
        assert excinfo.value.stage == "stage"

    def test_clean_artifact_loads(self, criteo_small, tmp_path):
        history, _ = criteo_small
        layout = build_offline_layout(history, _build_config())
        staged = stage_layout(layout, str(tmp_path), "ok")
        assert staged.num_keys == layout.num_keys


class TestStagingCleanup:
    """A repair's staged file is removed once read back or refused; with
    no configured directory each artifact is staged in a temporary
    directory removed with it."""

    @pytest.mark.parametrize("corrupt_rate", [0.0, 1.0], ids=["kept", "torn"])
    def test_nothing_staged_is_left_on_disk(
        self, drift_pair, tmp_path, monkeypatch, corrupt_rate
    ):
        # The daemon's temporary directories are made under tmp_path.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        made = []
        mkdtemp = tempfile.mkdtemp

        def recording(*args, **kwargs):
            made.append(mkdtemp(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(tempfile, "mkdtemp", recording)
        _, daemon = _drifted_single_daemon(
            drift_pair,
            RefreshFaultPlan(seed=0, corrupt_artifact_rate=corrupt_rate),
        )
        out = daemon.step()
        assert out["action"] == (
            "repair-failed" if corrupt_rate else "swap"
        ), out
        assert daemon.counters["rebuild_attempts"] > 0
        # One directory per staged artifact, each named as the daemon's.
        assert len(made) == daemon.counters["rebuild_attempts"]
        assert all(
            os.path.basename(path).startswith("repro-refresh-")
            for path in made
        )
        assert list(tmp_path.iterdir()) == []
        daemon.stop()
        assert list(tmp_path.iterdir()) == []

    def test_a_configured_directory_is_kept(self, drift_pair, tmp_path):
        staging = tmp_path / "staging"
        _, daemon = _drifted_single_daemon(
            drift_pair, None, staging_dir=str(staging)
        )
        assert daemon.step()["action"] == "swap"
        daemon.stop()
        assert staging.is_dir()
        assert list(staging.iterdir()) == []

    def test_stop_does_not_wait_for_a_running_step(
        self, drift_pair, monkeypatch
    ):
        """``stop()`` is called on the gateway's event loop, so a repair
        in flight on another thread must not hold it up."""
        _, daemon = _drifted_single_daemon(drift_pair, None)
        entered, release = threading.Event(), threading.Event()

        def blocked(snapshot):
            entered.set()
            release.wait(30.0)
            return {"action": "healthy"}

        monkeypatch.setattr(daemon, "_climb", blocked)
        stepping = threading.Thread(target=daemon.step)
        stepping.start()
        try:
            assert entered.wait(30.0)
            began = time.monotonic()
            daemon.stop()
            assert time.monotonic() - began < 1.0
            assert stepping.is_alive()
        finally:
            release.set()
            stepping.join(30.0)
        assert not stepping.is_alive()


class TestSingleModeFaults:
    def test_swap_failure_rolls_back_every_attempt(self, drift_pair):
        _, live, _ = drift_pair
        manager, daemon = _drifted_single_daemon(
            drift_pair, RefreshFaultPlan(seed=0, swap_failure_rate=1.0)
        )
        out = daemon.step()
        assert out["action"] == "repair-failed"
        status = daemon.status()
        # Every attempt installed a candidate and rolled it back.
        assert status["rollbacks"] == daemon.config.max_retries
        assert status["swaps"] == 0
        assert manager.active_version == 0
        assert not manager.engine.closed
        # Serving is unaffected by the failed repair.
        for query in list(live)[:40]:
            assert manager.serve_query(query).missing_keys == 0

    def test_failed_swap_reinstalls_the_displaced_engine(
        self, drift_pair, monkeypatch
    ):
        """Rollback puts back the engine object, re-pinned tier and all."""
        history, live, drifted_live = drift_pair
        layout = build_offline_layout(history, _build_config())
        manager = LayoutManager(
            layout, EngineConfig(tier_mode="hybrid", tier_ratio=0.05)
        )
        daemon = RefreshDaemon(
            manager,
            _daemon_config(tier_first=True),
            build_config=_build_config(),
            fault_plan=RefreshFaultPlan(seed=0, swap_failure_rate=1.0),
        )
        daemon.observe_many(q.keys for q in live.queries[:200])
        assert daemon.step()["action"] == "healthy"
        daemon.observe_many(q.keys for q in drifted_live.queries)
        assert daemon.step()["action"] == "tier-replan"
        engine = manager.engine
        plan = engine.tier_plan
        candidates = []
        build_engine = deploy.ServingEngine

        def recording(*args, **kwargs):
            candidates.append(build_engine(*args, **kwargs))
            return candidates[-1]

        monkeypatch.setattr(deploy, "ServingEngine", recording)
        assert daemon.step()["action"] == "repair-failed"
        retries = daemon.config.max_retries
        assert manager.engine is engine
        assert manager.engine.tier_plan is plan
        assert not engine.closed
        assert len(candidates) == retries
        assert all(candidate.closed for candidate in candidates)
        assert manager.active_version == 0
        # One rolled-back record per attempt, after the first activation.
        assert len(manager.swap_events) == 1 + retries
        for event in manager.swap_events[1:]:
            assert event["from"] == 0 and event["rolled_back"]
            assert "injected swap failure" in event["error"]

    def test_corrupt_artifacts_never_reach_the_engine(self, drift_pair):
        _, live, _ = drift_pair
        manager, daemon = _drifted_single_daemon(
            drift_pair,
            RefreshFaultPlan(seed=0, corrupt_artifact_rate=1.0),
        )
        out = daemon.step()
        assert out["action"] == "repair-failed"
        status = daemon.status()
        assert status["rebuild_failures"] == daemon.config.max_retries
        assert status["swaps"] == 0
        # No corrupt candidate was even registered, let alone activated.
        assert [r.label for r in manager.versions()] == ["initial"]
        assert manager.active_version == 0

    def test_transient_rebuild_failures_are_retried(self, drift_pair):
        # Seed chosen so the first rebuild attempt dies and a retry
        # lands (the plan is deterministic, so this is stable).
        plan = RefreshFaultPlan(seed=3, rebuild_failure_rate=0.5)
        assert plan.draw_rebuild_failure(0, 0)
        assert not plan.draw_rebuild_failure(0, 1)
        manager, daemon = _drifted_single_daemon(
            drift_pair, plan, max_retries=3
        )
        out = daemon.step()
        assert out["action"] == "swap"
        status = daemon.status()
        assert status["rebuild_failures"] == 1
        assert status["swaps"] == 1
        assert status["state"] == STATE_WATCHING
        assert manager.active_version == 1

    def test_watchdog_degrades_but_serving_survives(self, drift_pair):
        _, live, _ = drift_pair
        manager, daemon = _drifted_single_daemon(
            drift_pair,
            RefreshFaultPlan(seed=0, rebuild_failure_rate=1.0),
            max_retries=1,
            max_failures=2,
        )
        assert daemon.step()["action"] == "repair-failed"
        assert not daemon.degraded
        assert daemon.step()["action"] == "repair-failed"
        assert daemon.degraded
        assert daemon.state == STATE_DEGRADED
        # Degraded means the healer stands down, not the service.
        assert daemon.step()["action"] == "degraded"
        assert daemon.status()["abandoned_repairs"] == 2
        for query in list(live)[:40]:
            assert manager.serve_query(query).missing_keys == 0


class TestClusterModeFaults:
    @staticmethod
    def _drifted_cluster_daemon(drift_pair, fault_plan, **config_overrides):
        history, live, drifted_live = drift_pair
        config = _build_config(num_shards=2)
        sharded = build_sharded_layout(history, config)
        engine = ClusterEngine(sharded, EngineConfig(cache_ratio=0.0))
        overrides = dict(full_replace_fraction=1.0)
        overrides.update(config_overrides)
        daemon = RefreshDaemon(
            engine,
            _daemon_config(**overrides),
            build_config=config,
            fault_plan=fault_plan,
        )
        daemon.observe_many(q.keys for q in live.queries[:200])
        daemon.step()  # baseline every shard watcher
        daemon.observe_many(q.keys for q in drifted_live.queries)
        return engine, daemon

    def test_mid_roll_failure_restores_originals(self, drift_pair):
        _, live, _ = drift_pair
        engine, daemon = self._drifted_cluster_daemon(
            drift_pair,
            RefreshFaultPlan(seed=0, swap_failure_rate=1.0),
            full_replace_fraction=0.5,  # force the rolling multi-swap
        )
        originals = list(engine.engines)
        baseline = [
            engine.serve_query(q).pages_read for q in list(live)[:30]
        ]
        daemon.step()
        status = daemon.status()
        assert status["rollbacks"] >= 1
        assert status["swaps"] == 0
        # The exact original engines are back — not rebuilt lookalikes.
        assert [e is o for e, o in zip(engine.engines, originals)] == [
            True, True,
        ]
        assert engine.swap_counts == [0, 0]
        assert engine.swap_rollbacks >= 1
        assert all(not e.closed for e in engine.engines)
        # Bit-for-bit serving parity with the pre-chaos cluster.
        after = [
            engine.serve_query(q).pages_read for q in list(live)[:30]
        ]
        assert after == baseline

    def test_no_partially_swapped_state_ever_serves(self, drift_pair):
        """Every rollback event covers all shards of its failed roll."""
        engine, daemon = self._drifted_cluster_daemon(
            drift_pair,
            RefreshFaultPlan(seed=0, swap_failure_rate=1.0),
            full_replace_fraction=0.5,
        )
        daemon.step()
        rollbacks = [e for e in engine.swap_events if e.get("rolled_back")]
        assert rollbacks
        assert all(e["shards"] == [0, 1] for e in rollbacks)
        commits = [e for e in engine.swap_events if not e.get("rolled_back")]
        assert commits == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chaos_matrix_never_drops_or_corrupts(drift_pair, seed):
    """Mixed fault rates, several repair rounds: full availability.

    Whatever the injected schedule does — rebuilds dying, artifacts
    tearing, swaps failing mid-roll — every live query keeps coming back
    complete and the cluster never exposes a closed or partially swapped
    engine.
    """
    history, live, drifted_live = drift_pair
    config = _build_config(num_shards=2)
    sharded = build_sharded_layout(history, config)
    engine = ClusterEngine(sharded, EngineConfig(cache_ratio=0.0))
    daemon = RefreshDaemon(
        engine,
        _daemon_config(max_retries=2, max_failures=50),
        build_config=config,
        fault_plan=RefreshFaultPlan(
            seed=seed,
            rebuild_failure_rate=0.3,
            corrupt_artifact_rate=0.3,
            swap_failure_rate=0.3,
        ),
    )
    daemon.observe_many(q.keys for q in live.queries[:200])
    daemon.step()
    daemon.observe_many(q.keys for q in drifted_live.queries)
    for _ in range(3):
        daemon.step()
        assert all(not e.closed for e in engine.engines)
        for query in list(live)[:25]:
            assert engine.serve_query(query).missing_keys == 0
        for query in list(drifted_live)[:25]:
            assert engine.serve_query(query).missing_keys == 0
    status = daemon.status()
    assert status["steps"] >= 4
    # Swaps that committed and swaps that rolled back must reconcile
    # with the cluster's own audit trail.
    assert sum(engine.swap_counts) >= status["swaps"]
    assert engine.swap_rollbacks == status["rollbacks"]
