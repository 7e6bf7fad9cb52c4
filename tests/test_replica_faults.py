"""Replica groups: fault plans, health tracking, failover, hedging.

Contracts:

* :class:`ShardFaultPlan` draws are deterministic, serializable, and
  validated at construction;
* the health state machine walks healthy → suspect → dead →
  recovering → healthy exactly as documented, and dead replicas are
  never dispatched;
* a faulted or timed-out replica fails over inside the gather — the
  fragment is served by a survivor and cluster coverage holds;
* when every replica is down the router's shard-grain taxonomy applies
  (strict raise / resilient shard_errors);
* a crashed replica dies, resyncs after the delay, and rejoins via
  probe promotion — with full coverage throughout;
* hedging beats a gray-degraded primary and never exceeds its budget
  (``hedges <= hedge_budget * fragments`` at all times);
* ``replicas=1`` without a fault plan is bit-identical to the
  unreplicated engine and cluster (hypothesis parity).
"""

import dataclasses
import json

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import (
    BreakerConfig,
    ClusterEngine,
    ConfigError,
    EngineConfig,
    HealthConfig,
    MaxEmbedConfig,
    Query,
    QueryTrace,
    ReplicaHealthMonitor,
    ServingEngine,
    ShardFaultPlan,
    ShardUnavailableError,
    ShpConfig,
    build_sharded_layout,
)
from repro.cluster.replicas.health import (
    DEAD,
    HEALTHY,
    RECOVERING,
    SUSPECT,
)
from repro.refresh import rebuild
from repro.ssd import P5800X


@pytest.fixture
def two_community_trace() -> QueryTrace:
    queries = (
        [Query((0, 1, 2, 3))] * 6
        + [Query((4, 5, 6, 7))] * 4
        + [Query((0, 1, 4, 5))] * 4
        + [Query((2, 3, 6, 7))] * 2
    )
    return QueryTrace(8, queries)


def make_cluster(trace, health=None, **engine_kwargs) -> ClusterEngine:
    config = MaxEmbedConfig(
        num_shards=2,
        shard_strategy="modulo",
        shp=ShpConfig(max_iterations=4),
    )
    sharded = build_sharded_layout(trace, config)
    return ClusterEngine(
        sharded,
        EngineConfig(cache_ratio=0.0, **engine_kwargs),
        replica_health=health,
    )


def break_engine(engine, exc: Exception) -> None:
    """Make one replica engine raise on every query."""

    def raiser(query, start_us=0.0):
        raise exc

    engine.serve_query = raiser


def slow_down(engine, delay_us: float) -> None:
    """Stretch every result of one replica engine by ``delay_us``."""
    original = engine.serve_query

    def wrapper(query, start_us=0.0):
        result = original(query, start_us)
        return dataclasses.replace(
            result, finish_us=result.finish_us + delay_us
        )

    engine.serve_query = wrapper


def single_crash_plan(**kwargs) -> ShardFaultPlan:
    """A plan whose deterministic draws crash exactly one replica."""
    for seed in range(200):
        plan = ShardFaultPlan(seed=seed, **kwargs)
        crashed = [
            (s, r)
            for s in range(2)
            for r in range(2)
            if plan.crash_window(s, r) is not None
        ]
        if len(crashed) == 1:
            return plan
    raise AssertionError("no single-crash seed in range")


class TestShardFaultPlan:
    def test_draws_are_deterministic(self):
        plan = ShardFaultPlan(seed=7, crash_rate=0.5, flap_rate=0.5)
        assert plan.crash_window(0, 1) == plan.crash_window(0, 1)
        assert plan.draw_flap(1, 0, 3) == plan.draw_flap(1, 0, 3)
        # Different seeds decorrelate the membership draws somewhere.
        other = ShardFaultPlan(seed=8, crash_rate=0.5, flap_rate=0.5)
        windows = lambda p: [  # noqa: E731
            p.crash_window(s, r) for s in range(8) for r in range(4)
        ]
        assert windows(plan) != windows(other)

    def test_crash_window_bounds_and_membership(self):
        plan = ShardFaultPlan(
            seed=3,
            crash_rate=1.0,
            crash_after_us=100.0,
            horizon_us=1_000.0,
            crash_duration_us=50.0,
        )
        start, end = plan.crash_window(0, 0)
        assert 100.0 <= start < 1_000.0
        assert end == start + 50.0
        assert not plan.crashed(0, 0, start - 1.0)
        assert plan.crashed(0, 0, start)
        assert not plan.crashed(0, 0, end + 1.0)
        assert ShardFaultPlan(crash_rate=0.0).crash_window(0, 0) is None

    def test_dict_round_trip_including_infinite_duration(self):
        plan = ShardFaultPlan(seed=5, crash_rate=0.25, degrade_rate=0.5)
        data = json.loads(json.dumps(plan.to_dict()))
        assert ShardFaultPlan.from_dict(data) == plan

    def test_from_spec_aliases(self):
        plan = ShardFaultPlan.from_spec(
            "seed=7,crash=0.1,flap=0.2,degrade=0.3,horizon_us=500"
        )
        assert plan.seed == 7
        assert plan.crash_rate == 0.1
        assert plan.flap_rate == 0.2
        assert plan.degrade_rate == 0.3
        assert plan.horizon_us == 500.0

    def test_from_spec_json_file(self, tmp_path):
        plan = ShardFaultPlan(seed=9, crash_rate=0.5, horizon_us=250.0)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert ShardFaultPlan.from_spec(str(path)) == plan

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash_rate": 1.5},
            {"flap_rate": -0.1},
            {"horizon_us": 0.0},
            {"crash_after_us": 2_000_000.0},
            {"crash_duration_us": 0.0},
            {"degrade_factor": 0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            ShardFaultPlan(**kwargs)


class TestHealthStateMachine:
    def test_starts_healthy_and_dispatches_in_order(self):
        monitor = ReplicaHealthMonitor(3)
        assert monitor.states == [HEALTHY] * 3
        assert monitor.dispatch_order() == [0, 1, 2]

    def test_consecutive_failures_walk_to_dead(self):
        monitor = ReplicaHealthMonitor(2)
        monitor.record_failure(0, 10.0)
        assert monitor.states[0] == HEALTHY
        monitor.record_failure(0, 20.0)
        assert monitor.states[0] == SUSPECT
        monitor.record_failure(0, 30.0)
        monitor.record_failure(0, 40.0)
        assert monitor.states[0] == DEAD
        assert monitor.dead_since_us[0] == 40.0
        assert monitor.dispatch_order() == [1]

    def test_suspect_clears_after_score_decays(self):
        monitor = ReplicaHealthMonitor(1)
        monitor.record_failure(0, 1.0)
        monitor.record_failure(0, 2.0)
        assert monitor.states[0] == SUSPECT
        for t in (3.0, 4.0, 5.0):
            monitor.record_success(0, t)
        assert monitor.states[0] == HEALTHY

    def test_recovering_promotes_after_consecutive_successes(self):
        monitor = ReplicaHealthMonitor(1)
        for t in range(4):
            monitor.record_failure(0, float(t))
        assert monitor.states[0] == DEAD
        monitor.mark_recovering(0, 50.0)
        assert monitor.states[0] == RECOVERING
        monitor.record_probe(0, True, 60.0)
        assert monitor.states[0] == RECOVERING
        monitor.record_probe(0, True, 80.0)
        assert monitor.states[0] == HEALTHY

    def test_recovering_dies_on_single_failure(self):
        monitor = ReplicaHealthMonitor(1)
        for t in range(4):
            monitor.record_failure(0, float(t))
        monitor.mark_recovering(0, 50.0)
        monitor.record_probe(0, False, 60.0)
        assert monitor.states[0] == DEAD

    def test_mark_recovering_ignores_live_replicas(self):
        monitor = ReplicaHealthMonitor(1)
        monitor.mark_recovering(0, 1.0)
        assert monitor.states[0] == HEALTHY
        assert monitor.transitions == []

    def test_resync_and_probe_scheduling(self):
        config = HealthConfig(probe_interval_us=10.0, resync_delay_us=30.0)
        monitor = ReplicaHealthMonitor(2, config)
        for t in range(4):
            monitor.record_failure(0, float(t))
        assert not monitor.resync_due(0, 20.0)
        assert monitor.resync_due(0, 33.0)
        monitor.mark_recovering(0, 33.0)

        def probes_due(at):
            return [r for r in range(2) if monitor.probe_due(r, at)]

        assert probes_due(34.0) == [0]
        monitor.record_probe(0, True, 34.0)
        assert probes_due(40.0) == []
        assert probes_due(44.0) == [0]

    def test_state_counts_cover_all_states(self):
        monitor = ReplicaHealthMonitor(2)
        counts = monitor.state_counts()
        assert counts == {
            "healthy": 2, "suspect": 0, "recovering": 0, "dead": 0
        }

    def test_validation(self):
        with pytest.raises(ConfigError):
            ReplicaHealthMonitor(0)
        with pytest.raises(ConfigError):
            HealthConfig(clear_error_score=0.9, suspect_error_score=0.5)
        with pytest.raises(ConfigError):
            HealthConfig(ewma_alpha=0.0)
        with pytest.raises(ConfigError):
            HealthConfig(promote_successes=0)


class TestFailover:
    def test_broken_replica_fails_over_with_full_coverage(
        self, two_community_trace
    ):
        cluster = make_cluster(two_community_trace, replicas=2)
        break_engine(
            cluster.groups[0].engines[0], RuntimeError("replica down")
        )
        report = cluster.serve_trace(two_community_trace)
        assert report.coverage() == 1.0
        assert report.shard_errors == [0, 0]
        # The first dispatch fails over; after that the error score
        # routes primary traffic away from the broken replica entirely.
        assert report.shard_failovers[0] >= 1
        assert report.shard_failovers[1] == 0
        monitor = cluster.groups[0].monitor
        assert monitor.dispatch_order()[0] == 1
        assert monitor.failures[0] >= 1

    def test_timeout_failover_pays_the_deadline(self, two_community_trace):
        # One simulated worker: with concurrent closed-loop workers the
        # survivor's device queue (everyone failing over to it at once)
        # legitimately pushes later fragments past the deadline too.
        cluster = make_cluster(
            two_community_trace,
            replicas=2,
            shard_deadline_us=5_000.0,
            threads=1,
        )
        slow_down(cluster.groups[0].engines[0], 50_000.0)
        report = cluster.serve_trace(two_community_trace)
        assert report.coverage() == 1.0
        assert report.shard_timeouts == [0, 0]
        assert report.shard_failovers[0] > 0
        # The caller waited out the deadline before the failover, so
        # those queries observe at least one full deadline of latency.
        assert max(report.report.latencies_us) >= 5_000.0

    def test_all_replicas_down_strict_raises(self, two_community_trace):
        cluster = make_cluster(two_community_trace, replicas=2)
        for engine in cluster.groups[0].engines:
            break_engine(engine, RuntimeError("rack power loss"))
        with pytest.raises(ShardUnavailableError):
            cluster.serve_trace(two_community_trace)

    def test_all_replicas_down_resilient_degrades(self, two_community_trace):
        cluster = make_cluster(
            two_community_trace,
            replicas=2,
            breaker=BreakerConfig(failure_threshold=1_000),
        )
        for engine in cluster.groups[0].engines:
            break_engine(engine, RuntimeError("rack power loss"))
        report = cluster.serve_trace(two_community_trace)
        assert report.shard_errors[0] > 0
        assert report.shard_errors[1] == 0
        assert 0.0 < report.coverage() < 1.0

    def test_flapping_replica_is_masked(self, two_community_trace):
        # Deterministically pick a seed where exactly one replica flaps,
        # so every flapped dispatch has a clean survivor to fail over to.
        for seed in range(200):
            plan = ShardFaultPlan(
                seed=seed, flap_rate=0.5, flap_failure_rate=1.0
            )
            members = [
                (s, r)
                for s in range(2)
                for r in range(2)
                if plan.draw_flap(s, r, 0) or plan.draw_flap(s, r, 1)
            ]
            if len(set(m[0] for m in members)) == len(members) == 1:
                break
        cluster = make_cluster(
            two_community_trace, replicas=2, shard_fault_plan=plan
        )
        report = cluster.serve_trace(two_community_trace)
        assert report.coverage() == 1.0
        assert sum(report.shard_failovers) > 0


class TestCrashResync:
    # Windows sized to the trace: the x8 two-community trace spans
    # ~100 simulated microseconds, so a crash in [0, 8) lasting 12 us
    # dies mid-trace and has room to resync and be promoted back.
    def crash_plan(self) -> ShardFaultPlan:
        return single_crash_plan(
            crash_rate=0.5,
            horizon_us=8.0,
            crash_duration_us=12.0,
        )

    def long_trace(self, base: QueryTrace) -> QueryTrace:
        return QueryTrace(base.num_keys, list(base.queries) * 8)

    def test_crash_dies_resyncs_and_rejoins(self, two_community_trace):
        trace = self.long_trace(two_community_trace)
        health = HealthConfig(probe_interval_us=1.0, resync_delay_us=3.0)
        cluster = make_cluster(
            trace,
            health=health,
            replicas=2,
            shard_fault_plan=self.crash_plan(),
        )
        report = cluster.serve_trace(trace)
        # The crash is fully masked: a survivor serves every fragment.
        assert report.coverage() == 1.0
        assert report.shard_errors == [0, 0]
        assert sum(report.shard_failovers) > 0
        # The crashed replica died, was resynced, and was probed back:
        # healthy -> suspect -> dead -> recovering -> ... -> healthy.
        assert sum(report.replica_resyncs) > 0
        assert sum(report.replica_probes) > 0
        assert sum(report.replica_transitions) >= 4
        assert report.dead_replicas() == 0
        edges = [
            (t.from_state, t.to_state)
            for g in cluster.groups
            for t in g.monitor.transitions
        ]
        assert (SUSPECT, DEAD) in edges
        assert (DEAD, RECOVERING) in edges
        assert (RECOVERING, HEALTHY) in edges

    def test_resync_stages_artifacts_when_directory_given(
        self, two_community_trace, tmp_path, monkeypatch
    ):
        trace = self.long_trace(two_community_trace)
        plan = self.crash_plan()
        health = HealthConfig(probe_interval_us=1.0, resync_delay_us=3.0)
        config = MaxEmbedConfig(
            num_shards=2,
            shard_strategy="modulo",
            shp=ShpConfig(max_iterations=4),
        )
        sharded = build_sharded_layout(trace, config)
        cluster = ClusterEngine(
            sharded,
            EngineConfig(
                cache_ratio=0.0, replicas=2, shard_fault_plan=plan
            ),
            replica_health=health,
            replica_staging_dir=str(tmp_path),
        )
        staged = []
        stage = rebuild.stage_layout

        def spy(layout, staging_dir, tag, corrupt=False):
            staged.append(staging_dir)
            return stage(layout, staging_dir, tag, corrupt=corrupt)

        monkeypatch.setattr(rebuild, "stage_layout", spy)
        report = cluster.serve_trace(trace)
        assert sum(report.replica_resyncs) > 0
        # Every resync went through the staging round trip, in the
        # configured directory, and left no staged file behind.
        assert staged == [str(tmp_path)] * sum(report.replica_resyncs)
        assert list(tmp_path.iterdir()) == []


class TestHedging:
    def hedging_cluster(self, trace, **overrides):
        kwargs = dict(
            replicas=2,
            shard_fault_plan=ShardFaultPlan(
                seed=1, degrade_rate=0.5, degrade_factor=5.0
            ),
            hedge_quantile=0.7,
            hedge_budget=0.5,
        )
        kwargs.update(overrides)
        return make_cluster(trace, **kwargs)

    def long_trace(self, base: QueryTrace) -> QueryTrace:
        return QueryTrace(base.num_keys, list(base.queries) * 8)

    def test_hedges_beat_a_gray_degraded_primary(self, two_community_trace):
        trace = self.long_trace(two_community_trace)
        cluster = self.hedging_cluster(trace)
        report = cluster.serve_trace(trace)
        assert report.coverage() == 1.0
        assert sum(report.shard_hedges) > 0
        assert sum(report.shard_hedge_wins) > 0
        baseline = self.hedging_cluster(trace, hedge_quantile=None)
        plain = baseline.serve_trace(trace)
        assert sum(plain.shard_hedges) == 0

    def test_hedge_budget_is_a_hard_cap(self, two_community_trace):
        trace = self.long_trace(two_community_trace)
        cluster = self.hedging_cluster(trace, hedge_budget=0.05)
        report = cluster.serve_trace(trace)
        for group in cluster.groups:
            assert group.hedges <= 0.05 * group.fragments
        assert sum(report.shard_hedges_denied) > 0
        assert sum(report.shard_hedges) <= 0.05 * sum(report.shard_queries)

    def test_zero_budget_disables_hedging_entirely(
        self, two_community_trace
    ):
        trace = self.long_trace(two_community_trace)
        cluster = self.hedging_cluster(trace, hedge_budget=0.0)
        report = cluster.serve_trace(trace)
        assert sum(report.shard_hedges) == 0
        assert sum(report.shard_hedge_wins) == 0
        assert sum(report.shard_hedges_denied) > 0

    def test_hedge_rate_respects_budget(self, two_community_trace):
        trace = self.long_trace(two_community_trace)
        cluster = self.hedging_cluster(trace, hedge_budget=0.2)
        report = cluster.serve_trace(trace)
        assert report.hedge_rate() <= 0.2


class TestConfigWiring:
    def test_engine_config_validation(self):
        with pytest.raises(Exception):
            EngineConfig(replicas=0)
        with pytest.raises(Exception):
            EngineConfig(hedge_quantile=1.5)
        with pytest.raises(Exception):
            EngineConfig(hedge_budget=-0.1)

    def test_core_config_validation(self):
        with pytest.raises(ConfigError):
            MaxEmbedConfig(replicas=0)
        assert MaxEmbedConfig(replicas=2).replicas == 2
        # Hedging is an EngineConfig setting; the deployment config's
        # copies, which nothing read, are gone, not deprecated.
        with pytest.raises(TypeError):
            MaxEmbedConfig(hedge_quantile=0.95)
        with pytest.raises(TypeError):
            MaxEmbedConfig(hedge_budget=0.5)

    def test_groups_only_built_when_useful(self, two_community_trace):
        plain = make_cluster(two_community_trace)
        assert plain.groups is None
        assert plain.replica_info() is None
        replicated = make_cluster(two_community_trace, replicas=2)
        assert len(replicated.groups) == 2
        # R=1 plus a fault plan is the unprotected baseline: groups
        # exist (to inject against) but there is nowhere to fail over.
        exposed = make_cluster(
            two_community_trace,
            replicas=1,
            shard_fault_plan=ShardFaultPlan(crash_rate=0.1),
        )
        assert len(exposed.groups) == 2
        assert exposed.groups[0].num_replicas == 1


@st.composite
def sharded_traces(draw):
    """A small two-shard-buildable trace."""
    n = draw(st.integers(min_value=8, max_value=16))
    num_queries = draw(st.integers(min_value=2, max_value=8))
    queries = []
    for _ in range(num_queries):
        size = draw(st.integers(min_value=1, max_value=min(6, n)))
        keys = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        queries.append(Query(tuple(keys)))
    return QueryTrace(n, queries)


# "Feature off" must hold away from the preset's device parameters too:
# a submit overhead and a queue that actually fills.
PARITY_PROFILES = st.sampled_from(
    [
        P5800X,
        dataclasses.replace(P5800X, submit_overhead_us=1.0, queue_depth=2),
    ]
)


class TestReplicasOneParity:
    """``replicas=1`` with no fault plan must be invisible."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(trace=sharded_traces(), profile=PARITY_PROFILES)
    def test_cluster_report_is_bit_identical(self, trace, profile):
        config = MaxEmbedConfig(
            num_shards=2,
            shard_strategy="modulo",
            shp=ShpConfig(max_iterations=2),
        )
        sharded = build_sharded_layout(trace, config)
        baseline = ClusterEngine(
            sharded, EngineConfig(cache_ratio=0.0, profile=profile)
        ).serve_trace(trace)
        replicated = ClusterEngine(
            sharded,
            EngineConfig(cache_ratio=0.0, profile=profile, replicas=1),
        ).serve_trace(trace)
        assert baseline == replicated
        assert baseline.as_dict() == replicated.as_dict()

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(trace=sharded_traces(), profile=PARITY_PROFILES)
    def test_engine_report_is_bit_identical(self, trace, profile):
        config = MaxEmbedConfig(shp=ShpConfig(max_iterations=2))
        sharded = build_sharded_layout(
            trace,
            dataclasses.replace(config, num_shards=1,
                                shard_strategy="modulo"),
        )
        layout = sharded.layouts[0]
        baseline = ServingEngine(
            layout, EngineConfig(cache_ratio=0.0, profile=profile)
        ).serve_trace(trace)
        replicated = ServingEngine(
            layout,
            EngineConfig(cache_ratio=0.0, profile=profile, replicas=1),
        ).serve_trace(trace)
        assert baseline == replicated
