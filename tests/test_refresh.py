"""Tests for repro.refresh: drift watch, repair ladder, hot swaps.

Covers the daemon's components in isolation (traffic window, hysteresis
watcher, CRC staging, shadow gate, config validation) and the assembled
watch→repair→swap loop on both targets — a LayoutManager and a
ClusterEngine — plus the gateway wiring (/refresh endpoints, metrics
section, pause-on-drain).
"""

import asyncio
import json

import pytest

from repro import (
    ConfigError,
    EngineConfig,
    MaxEmbedConfig,
    PageLayout,
    Query,
    QueryTrace,
    RefreshConfig,
    RefreshDaemon,
    ServingError,
    ShpConfig,
    build_offline_layout,
    build_sharded_layout,
)
from repro.cluster import ClusterEngine
from repro.core import LayoutManager
from repro.core import deploy as deploy_module
from repro.core.deploy import window_fingerprint
from repro.refresh import daemon as daemon_module
from repro.refresh import (
    DRIFTING,
    HEALTHY,
    STATE_DEGRADED,
    STATE_PAUSED,
    STATE_WATCHING,
    DriftWatcher,
    TrafficWindow,
    shadow_score,
    stage_layout,
)
from repro.tiering import replan_tier
from repro.workloads.drift import drifted_trace_for


def _build_config(num_shards: int = 1) -> MaxEmbedConfig:
    return MaxEmbedConfig(
        strategy="maxembed",
        replication_ratio=0.2,
        shp=ShpConfig(max_iterations=6, seed=7),
        num_shards=num_shards,
        seed=7,
    )


@pytest.fixture(scope="module")
def drift_pair(criteo_small):
    history, live = criteo_small
    drifted = drifted_trace_for("criteo", scale="small", base_seed=7,
                                drift_seed=11)
    _, drifted_live = drifted.split(0.5)
    return history, live, drifted_live


class TestRefreshConfig:
    def test_defaults_valid(self):
        config = RefreshConfig()
        assert config.clear_share >= config.trigger_share

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_size": 0},
            {"min_window": 0},
            {"min_window": 9999},
            {"interval_s": 0.0},
            {"trigger_share": 1.5},
            {"trigger_share": 0.95, "clear_share": 0.9},
            {"drop_fraction": 1.0},
            {"full_replace_fraction": 0.0},
            {"max_retries": 0},
            {"backoff_s": -1.0},
            {"shadow_margin": 0.0},
            {"max_failures": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            RefreshConfig(**kwargs)


class TestTrafficWindow:
    def test_bounded_and_ordered(self):
        window = TrafficWindow(num_keys=100, capacity=4)
        for i in range(10):
            window.observe((i,))
        assert len(window) == 4
        assert window.total_observed == 10
        snapshot = window.snapshot()
        assert isinstance(snapshot, QueryTrace)
        assert [q.keys[0] for q in snapshot.queries] == [6, 7, 8, 9]

    def test_observe_many(self):
        window = TrafficWindow(num_keys=10, capacity=8)
        window.observe_many((k,) for k in range(3))
        assert len(window) == 3

    def test_snapshot_is_a_copy(self):
        window = TrafficWindow(num_keys=10, capacity=8)
        window.observe((1,))
        snap = window.snapshot()
        window.observe((2,))
        assert len(snap.queries) == 1


class TestDriftWatcher:
    def test_share_trigger_and_hysteresis(self):
        watcher = DriftWatcher(
            trigger_share=0.9, clear_share=0.97, drop_fraction=0.5
        )
        assert not watcher.assess(0.5, share_of_best=1.0)
        assert watcher.state == HEALTHY
        assert watcher.assess(0.5, share_of_best=0.85)  # below trigger
        assert watcher.state == DRIFTING
        # Between trigger and clear: still drifting (hysteresis).
        assert watcher.assess(0.5, share_of_best=0.93)
        assert not watcher.assess(0.5, share_of_best=0.99)
        assert watcher.state == HEALTHY

    def test_bandwidth_drop_signal_without_share(self):
        watcher = DriftWatcher(
            trigger_share=0.9, clear_share=0.97, drop_fraction=0.2
        )
        assert not watcher.assess(0.50)  # establishes baseline
        assert not watcher.assess(0.45)  # -10% < drop threshold
        assert watcher.assess(0.35)  # -30% fires
        assert not watcher.assess(0.50)  # recovered, share is None

    def test_rebaseline_clears_state(self):
        watcher = DriftWatcher(0.9, 0.97, 0.2)
        watcher.assess(0.5)
        assert watcher.assess(0.1)
        watcher.rebaseline(0.1)
        assert watcher.state == HEALTHY
        assert not watcher.assess(0.1)


class TestWindowFingerprint:
    def test_stable_and_order_sensitive(self):
        a = [Query((1, 2)), Query((3,))]
        b = [Query((3,)), Query((1, 2))]
        assert window_fingerprint(a) == window_fingerprint(list(a))
        assert window_fingerprint(a) != window_fingerprint(b)

    def test_prefix_cap(self):
        a = [Query((1,)), Query((2,))]
        longer = a + [Query((3,))]
        assert window_fingerprint(a, 2) == window_fingerprint(longer, 2)
        assert window_fingerprint(a) != window_fingerprint(longer)


class TestRetention:
    def _layouts(self, count):
        base = [(0, 1, 2, 3), (4, 5, 6, 7)]
        return [
            PageLayout(8, 4, base + [(i % 8,)]) for i in range(count)
        ]

    def test_keeps_last_k_plus_active(self):
        layouts = self._layouts(10)
        manager = LayoutManager(
            PageLayout(8, 4, [(0, 1, 2, 3), (4, 5, 6, 7)]), retain=3
        )
        for layout in layouts:
            manager.register(layout)
        retained = [r.version for r in manager.versions()]
        # Last 3 registrations plus the active version 0.
        assert retained == [0, 8, 9, 10]
        assert manager.active_version == 0

    def test_active_survives_pruning_then_prunes_after_swap(self):
        layouts = self._layouts(6)
        manager = LayoutManager(
            PageLayout(8, 4, [(0, 1, 2, 3), (4, 5, 6, 7)]), retain=2
        )
        for layout in layouts:
            manager.register(layout)
        assert 0 in [r.version for r in manager.versions()]
        manager.swap(manager.versions()[-1].version)
        # The old active version is no longer protected.
        assert 0 not in [r.version for r in manager.versions()]

    def test_swapping_to_pruned_version_raises(self):
        layouts = self._layouts(6)
        manager = LayoutManager(
            PageLayout(8, 4, [(0, 1, 2, 3), (4, 5, 6, 7)]), retain=2
        )
        for layout in layouts:
            manager.register(layout)
        with pytest.raises(ServingError, match="unknown layout version"):
            manager.swap(1)

    def test_retain_must_be_positive(self):
        with pytest.raises(ServingError):
            LayoutManager(
                PageLayout(8, 4, [(0, 1, 2, 3), (4, 5, 6, 7)]), retain=0
            )

    def test_probe_skips_pruned_versions(self):
        layouts = self._layouts(6)
        manager = LayoutManager(
            PageLayout(8, 4, [(0, 1, 2, 3), (4, 5, 6, 7)]), retain=2
        )
        for layout in layouts:
            manager.register(layout)
        window = QueryTrace(8, [Query((0, 1)), Query((4, 5))])
        scores = manager.staleness_probe(window)
        names = set(scores) - {"active_share_of_best"}
        assert names == {"initial", "v5", "v6"}


@pytest.fixture
def evaluations(monkeypatch):
    """Layouts the probe evaluates, in order (a cache hit adds none)."""
    seen = []
    evaluate = deploy_module.evaluate_placement

    def counting(layout, *args, **kwargs):
        seen.append(layout)
        return evaluate(layout, *args, **kwargs)

    monkeypatch.setattr(deploy_module, "evaluate_placement", counting)
    return seen


class TestProbeCache:
    def test_same_window_probes_once(self, tiny_trace, evaluations):
        layout_a = PageLayout(16, 4, [tuple(range(i, i + 4))
                                      for i in range(0, 16, 4)])
        manager = LayoutManager(layout_a)
        first = manager.staleness_probe(tiny_trace)
        assert evaluations == [layout_a]
        assert manager.staleness_probe(tiny_trace) == first
        assert evaluations == [layout_a]

    def test_cache_keyed_by_window(self, tiny_trace, evaluations):
        layout_a = PageLayout(16, 4, [tuple(range(i, i + 4))
                                      for i in range(0, 16, 4)])
        manager = LayoutManager(layout_a)
        manager.staleness_probe(tiny_trace)
        other = QueryTrace(16, [Query((0, 5, 10))])
        manager.staleness_probe(other)
        assert evaluations == [layout_a, layout_a]

    def test_pruning_drops_cache_entries(self):
        base = PageLayout(8, 4, [(0, 1, 2, 3), (4, 5, 6, 7)])
        manager = LayoutManager(base, retain=1)
        window = QueryTrace(8, [Query((0, 1))])
        manager.staleness_probe(window)
        manager.register(PageLayout(8, 4, [(0, 1, 2, 3), (4, 5, 6, 7)]))
        manager.staleness_probe(window)
        # Only retained versions' entries remain.
        assert len(manager._probe_cache) == len(manager.versions())


class TestEngineClose:
    def test_close_is_idempotent_retirement(self, tiny_layouts=None):
        layout = PageLayout(8, 4, [(0, 1, 2, 3), (4, 5, 6, 7)])
        manager = LayoutManager(layout)
        engine = manager.engine
        assert not engine.closed
        manager.register(PageLayout(8, 4, [(0, 4, 1, 5), (2, 6, 3, 7)]))
        manager.swap(1)
        assert engine.closed  # displaced engine retired
        assert not manager.engine.closed  # never the active one
        engine.close()  # idempotent
        # A closed engine still completes in-flight work correctly.
        result = engine.serve_query(Query((0, 1)))
        assert result.missing_keys == 0

    def test_swap_events_audit_trail(self):
        layout = PageLayout(8, 4, [(0, 1, 2, 3), (4, 5, 6, 7)])
        manager = LayoutManager(layout)
        manager.register(layout, label="again")
        manager.swap(1, keep_cache=False)
        assert manager.swap_events[-1] == {
            "from": 0, "to": 1, "label": "again", "keep_cache": False,
        }


class TestReplanTier:
    def test_replan_carries_previous_pins(self, criteo_small):
        history, live = criteo_small
        layout = build_offline_layout(history, _build_config())
        first = replan_tier(layout, history, 0.05)
        carried = replan_tier(layout, live, 0.05, previous=first)
        fresh = replan_tier(layout, live, 0.05)
        assert carried.capacity == fresh.capacity
        overlap_carried = len(set(carried.pinned) & set(first.pinned))
        overlap_fresh = len(set(fresh.pinned) & set(first.pinned))
        # The carry bonus biases toward keeping previously pinned keys.
        assert overlap_carried >= overlap_fresh

    def test_apply_tier_plan_requires_tiered_engine(self, criteo_small):
        history, _ = criteo_small
        layout = build_offline_layout(history, _build_config())
        manager = LayoutManager(layout, EngineConfig(tier_mode="lru"))
        plan = replan_tier(layout, history, 0.05)
        with pytest.raises(ServingError):
            manager.engine.apply_tier_plan(plan)


class TestStageAndShadow:
    def test_stage_round_trips(self, criteo_small, tmp_path):
        history, _ = criteo_small
        layout = build_offline_layout(history, _build_config())
        staged = stage_layout(layout, str(tmp_path), "t0")
        assert staged is not layout
        assert staged.pages() == layout.pages()

    def test_shadow_score_prefers_matching_layout(self, drift_pair):
        history, _, drifted_live = drift_pair
        stale = build_offline_layout(history, _build_config())
        fresh = build_offline_layout(drifted_live, _build_config())
        spec = EngineConfig().spec
        score = shadow_score(
            fresh, stale, drifted_live, spec, max_queries=200
        )
        assert score.candidate_bw > score.active_bw
        assert score.passes
        strict = shadow_score(
            stale, fresh, drifted_live, spec, max_queries=200, margin=1.0
        )
        assert not strict.passes


def _daemon_config(**overrides):
    # window_size=256 < len(small-scale live trace), so feeding the full
    # drifted trace leaves the window holding *only* drifted traffic.
    defaults = dict(
        interval_s=None,
        window_size=256,
        min_window=64,
        probe_max_queries=200,
        backoff_s=0.0,
        drop_fraction=0.10,
    )
    defaults.update(overrides)
    return RefreshConfig(**defaults)


class TestDaemonSingle:
    def test_rejects_bad_target(self):
        with pytest.raises(ServingError):
            RefreshDaemon(object())

    def test_warming_below_min_window(self, criteo_small):
        history, _ = criteo_small
        layout = build_offline_layout(history, _build_config())
        daemon = RefreshDaemon(
            LayoutManager(layout), _daemon_config(), _build_config()
        )
        assert daemon.step()["action"] == "warming"

    def test_ladder_tier_then_rebuild_then_healthy(self, drift_pair):
        history, live, drifted_live = drift_pair
        layout = build_offline_layout(history, _build_config())
        manager = LayoutManager(
            layout, EngineConfig(tier_mode="hybrid", tier_ratio=0.05)
        )
        daemon = RefreshDaemon(
            manager, _daemon_config(), build_config=_build_config()
        )
        daemon.observe_many(q.keys for q in live.queries[:200])
        assert daemon.step()["action"] == "healthy"
        daemon.observe_many(q.keys for q in drifted_live.queries)
        assert daemon.step()["action"] == "tier-replan"
        swap = daemon.step()
        assert swap["action"] == "swap"
        assert swap["candidate_bw"] > swap["active_bw"]
        assert daemon.step()["action"] == "healthy"
        status = daemon.status()
        assert status["swaps"] == 1
        assert status["tier_replans"] == 1
        assert status["state"] == STATE_WATCHING
        assert manager.active_version == 1
        assert manager.versions()[-1].label == "refresh-0"

    def test_untiered_engine_goes_straight_to_rebuild(self, drift_pair):
        history, live, drifted_live = drift_pair
        layout = build_offline_layout(history, _build_config())
        manager = LayoutManager(layout, EngineConfig(tier_mode="lru"))
        daemon = RefreshDaemon(
            manager, _daemon_config(), build_config=_build_config()
        )
        daemon.observe_many(q.keys for q in live.queries[:200])
        assert daemon.step()["action"] == "healthy"  # sets the baseline
        daemon.observe_many(q.keys for q in drifted_live.queries)
        assert daemon.step()["action"] == "swap"

    def test_shadow_gate_rejects_non_improving_rebuild(self, drift_pair):
        history, live, drifted_live = drift_pair
        layout = build_offline_layout(history, _build_config())
        manager = LayoutManager(layout, EngineConfig(tier_mode="lru"))
        # An absurd margin makes every candidate fail the shadow gate, so
        # a genuine drift detection must end in rejection, not a swap.
        daemon = RefreshDaemon(
            manager,
            _daemon_config(shadow_margin=10.0),
            build_config=_build_config(),
        )
        daemon.observe_many(q.keys for q in live.queries[:200])
        assert daemon.step()["action"] == "healthy"
        daemon.observe_many(q.keys for q in drifted_live.queries)
        out = daemon.step()
        assert out["action"] == "shadow-rejected"
        assert manager.active_version == 0  # nothing swapped
        assert daemon.status()["shadow_rejections"] == 1
        # Rejection rebaselines the watcher: the next step settles.
        assert daemon.step()["action"] == "healthy"

    def test_pause_blocks_repairs(self, drift_pair):
        history, live, drifted_live = drift_pair
        layout = build_offline_layout(history, _build_config())
        manager = LayoutManager(layout, EngineConfig(tier_mode="lru"))
        daemon = RefreshDaemon(
            manager, _daemon_config(), build_config=_build_config()
        )
        daemon.observe_many(q.keys for q in live.queries[:200])
        assert daemon.step()["action"] == "healthy"
        daemon.observe_many(q.keys for q in drifted_live.queries)
        daemon.pause()
        assert daemon.state == STATE_PAUSED
        assert daemon.step()["action"] == "paused"
        assert manager.active_version == 0
        daemon.resume()
        assert daemon.step()["action"] in ("swap", "tier-replan")

    def test_thread_lifecycle(self, criteo_small):
        history, _ = criteo_small
        layout = build_offline_layout(history, _build_config())
        daemon = RefreshDaemon(
            LayoutManager(layout),
            _daemon_config(interval_s=30.0),
            _build_config(),
        )
        assert daemon.start()
        assert daemon.running
        assert daemon.start()  # idempotent
        daemon.stop()
        assert not daemon.running
        manual = RefreshDaemon(
            LayoutManager(layout), _daemon_config(), _build_config()
        )
        assert not manual.start()  # manual mode has no thread


class TestDaemonCluster:
    def test_shard_rebuild_and_full_replace(self, drift_pair):
        history, live, drifted_live = drift_pair
        config = _build_config(num_shards=2)
        sharded = build_sharded_layout(history, config)
        engine = ClusterEngine(sharded, EngineConfig())
        daemon = RefreshDaemon(
            engine,
            _daemon_config(tier_first=False, full_replace_fraction=1.0),
            build_config=config,
        )
        daemon.observe_many(q.keys for q in live.queries[:200])
        assert daemon.step()["action"] == "healthy"
        daemon.observe_many(q.keys for q in drifted_live.queries)
        out = daemon.step()
        assert out["action"] in ("repair", "full-replace")
        status = daemon.status()
        assert status["swaps"] + status["shadow_rejections"] >= 1
        if status["swaps"]:
            assert sum(engine.swap_counts) >= 1
            # Swap counters surface in the serving report.
            report = engine.serve_trace(list(live)[:40])
            assert report.as_dict()["shard_swaps"] >= 1
            assert report.as_dict()["swap_rollbacks"] == 0

    def test_swapped_shard_is_probed_again(self, drift_pair, monkeypatch):
        """A committed shard swap drops that shard's cached probe scores.

        Every ``id()`` reads 0 here: the worst case of CPython handing a
        freed layout's id to a later layout.
        """
        history, live, drifted_live = drift_pair
        config = _build_config(num_shards=2)
        engine = ClusterEngine(
            build_sharded_layout(history, config), EngineConfig()
        )
        assignment = engine.plan.assignment

        def shard0_only(trace):
            # Only shard 0 sees traffic, so only it can be repaired.
            fragments = (
                tuple(k for k in query.keys if assignment[k] == 0)
                for query in trace.queries
            )
            return [Query(keys) for keys in fragments if keys]

        monkeypatch.setattr(daemon_module, "id", lambda _: 0, raising=False)
        daemon = RefreshDaemon(
            engine, _daemon_config(tier_first=False), build_config=config
        )
        daemon.observe_many(q.keys for q in shard0_only(live)[:200])
        assert daemon.step()["action"] == "healthy"
        daemon.observe_many(q.keys for q in shard0_only(drifted_live))
        assert daemon.step()["shards"][0]["action"] == "swap"
        scored = []
        evaluate = daemon_module.evaluate_placement

        def counting(layout, *args, **kwargs):
            scored.append(layout)
            return evaluate(layout, *args, **kwargs)

        monkeypatch.setattr(daemon_module, "evaluate_placement", counting)
        daemon.step()  # the same window as the swap's
        assert scored == [engine.engines[0].layout]

    def test_full_replace_preserves_key_space(self, drift_pair):
        history, live, drifted_live = drift_pair
        config = _build_config(num_shards=2)
        sharded = build_sharded_layout(history, config)
        engine = ClusterEngine(sharded, EngineConfig())
        daemon = RefreshDaemon(
            engine,
            _daemon_config(tier_first=False, full_replace_fraction=0.5),
            build_config=config,
        )
        daemon.observe_many(q.keys for q in live.queries[:200])
        daemon.step()  # baselines every shard watcher on live traffic
        daemon.observe_many(q.keys for q in drifted_live.queries)
        daemon.step()
        # Whatever the ladder did, the cluster must still cover every key.
        for query in list(live)[:60]:
            assert engine.serve_query(query).missing_keys == 0


class TestGatewayIntegration:
    @staticmethod
    def _mounted_gateway(criteo_small):
        from repro.service import GatewayCore, ServiceConfig

        history, _ = criteo_small
        layout = build_offline_layout(history, _build_config())
        manager = LayoutManager(layout, EngineConfig(tier_mode="lru"))
        daemon = RefreshDaemon(
            manager, _daemon_config(), build_config=_build_config()
        )
        return GatewayCore(manager, ServiceConfig(), refresh=daemon), daemon

    def test_gateway_feeds_window_and_metrics(self, criteo_small):
        gateway, daemon = self._mounted_gateway(criteo_small)
        _, live = criteo_small

        async def scenario():
            async with gateway:
                for query in list(live)[:20]:
                    outcome = await gateway.submit(query.keys)
                    assert outcome.ok
                metrics = gateway.metrics()
                assert metrics["refresh"]["observed"] == 20
                assert metrics["refresh"]["state"] == STATE_WATCHING
            # Drain paused the daemon before shutdown.
            assert daemon.paused

        asyncio.run(scenario())

    def test_http_refresh_endpoints(self, criteo_small):
        from repro.service import HttpGateway

        gateway, daemon = self._mounted_gateway(criteo_small)
        _, live = criteo_small

        async def scenario():
            server = HttpGateway(gateway, port=0)
            async with server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.bound_port
                )

                async def request(raw: bytes) -> tuple:
                    writer.write(raw)
                    await writer.drain()
                    status_line = await reader.readline()
                    status = int(status_line.split()[1])
                    headers = {}
                    while True:
                        line = await reader.readline()
                        if line in (b"\r\n", b""):
                            break
                        name, _, value = line.decode().partition(":")
                        headers[name.strip().lower()] = value.strip()
                    body = await reader.readexactly(
                        int(headers.get("content-length", "0"))
                    )
                    return status, json.loads(body or b"{}")

                status, body = await request(
                    b"GET /refresh HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                assert status == 200
                assert body["state"] == STATE_WATCHING
                payload = json.dumps({"pause": True}).encode()
                status, body = await request(
                    b"POST /refresh HTTP/1.1\r\nHost: x\r\n"
                    + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                    + payload
                )
                assert status == 200 and body["state"] == STATE_PAUSED
                status, body = await request(
                    b"POST /refresh HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 2\r\n\r\n{}"
                )
                assert status == 200
                assert body["step"]["action"] == "paused"
                writer.close()
                await writer.wait_closed()

        asyncio.run(scenario())

    def test_http_refresh_404_without_daemon(self, criteo_small):
        from repro.service import GatewayCore, HttpGateway, ServiceConfig

        history, _ = criteo_small
        layout = build_offline_layout(history, _build_config())
        manager = LayoutManager(layout)
        gateway = GatewayCore(manager, ServiceConfig())

        async def scenario():
            server = HttpGateway(gateway, port=0)
            async with server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.bound_port
                )
                writer.write(b"GET /refresh HTTP/1.1\r\nHost: x\r\n\r\n")
                await writer.drain()
                status_line = await reader.readline()
                assert int(status_line.split()[1]) == 404
                writer.close()

        asyncio.run(scenario())

    def test_prometheus_renders_refresh_counters(self, criteo_small):
        from repro.service.prometheus import render_prometheus

        gateway, daemon = self._mounted_gateway(criteo_small)
        _, live = criteo_small

        async def scenario():
            async with gateway:
                await gateway.submit(live.queries[0].keys)
                text = render_prometheus(gateway.metrics())
                assert "maxembed_refresh_swaps 0" in text
                assert "maxembed_refresh_observed 1" in text

        asyncio.run(scenario())
