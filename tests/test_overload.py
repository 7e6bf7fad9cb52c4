"""Tests for repro.overload: admission control, degradation, brownout.

Covers the three overload primitives in isolation (bounded queue with
shed policies, degradation ladder, brownout state machine), their wiring
into the serving engine / cluster router, and the open-loop simulator's
goodput accounting — including the bit-identical parity of disabled
knobs with no knobs at all.
"""

from dataclasses import dataclass

import pytest

from repro import (
    ConfigError,
    EngineConfig,
    MaxEmbedConfig,
    PageLayout,
    Query,
    QueryTrace,
    ServingEngine,
    ServingError,
    build_sharded_layout,
)
from repro.cluster import ClusterEngine
from repro.core import LayoutManager
from repro.cluster.router import SHARD_SHED
from repro.overload import (
    AdmissionConfig,
    AdmissionQueue,
    BrownoutConfig,
    BrownoutController,
    DegradeConfig,
    DegradeLevel,
    QueueEntry,
    default_ladder,
    engine_hotness,
)
from repro.serving import OpenLoopSimulator, ServingReport


def entry(index, arrival=0.0, priority=0.0):
    return QueueEntry(
        arrival_us=arrival, index=index, query=Query((0,)), priority=priority
    )


@pytest.fixture
def hot_cold_layout():
    """Keys 0/1/4/5 carry a replica (hot); 2/3/6/7 are single-copy cold."""
    return PageLayout(
        num_keys=8,
        capacity=4,
        pages=[(0, 1, 2, 3), (4, 5, 6, 7), (0, 4, 1, 5)],
    )


@pytest.fixture
def engine(hot_cold_layout):
    return ServingEngine(
        hot_cold_layout, EngineConfig(cache_ratio=0.0, threads=2)
    )


@pytest.fixture
def stream():
    return [Query(((k % 7), (k + 1) % 7, (k + 3) % 8)) for k in range(200)]


class TestAdmissionConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            AdmissionConfig(capacity=0)
        with pytest.raises(ConfigError):
            AdmissionConfig(capacity=4, policy="lifo")
        with pytest.raises(ConfigError):
            AdmissionConfig(capacity=4, queue_deadline_us=0.0)
        with pytest.raises(ConfigError):
            AdmissionConfig(capacity=4, policy="deadline")  # needs deadline

    def test_maxembed_config_accessor(self):
        # Admission and brownout are simulator / gateway arguments; the
        # deployment config's copies, which nothing read, are gone, not
        # deprecated.
        assert not hasattr(MaxEmbedConfig, "admission_config")
        for removed in (
            {"admission_capacity": 16},
            {"admission_policy": "deadline"},
            {"admission_deadline_us": 500.0},
            {"brownout": True},
        ):
            with pytest.raises(TypeError):
                MaxEmbedConfig(**removed)


class TestAdmissionQueue:
    def test_unbounded_without_config(self):
        queue = AdmissionQueue(None)
        for i in range(1000):
            assert queue.offer(entry(i), now_us=0.0) == []
        assert queue.depth == 1000

    def test_tail_drop_sheds_newcomer(self):
        queue = AdmissionQueue(AdmissionConfig(capacity=2))
        queue.offer(entry(0), 0.0)
        queue.offer(entry(1), 0.0)
        shed = queue.offer(entry(2), 0.0)
        assert [(e.index, reason) for e, reason in shed] == [(2, "tail")]
        assert queue.depth == 2

    def test_deadline_policy_evicts_expired_waiters(self):
        queue = AdmissionQueue(
            AdmissionConfig(
                capacity=2, policy="deadline", queue_deadline_us=100.0
            )
        )
        queue.offer(entry(0, arrival=0.0), 0.0)
        queue.offer(entry(1, arrival=150.0), 150.0)
        # Entry 0 has waited 200 us > 100 at the time 2 arrives: it is
        # dead weight, evicted to make room.
        shed = queue.offer(entry(2, arrival=200.0), 200.0)
        assert [(e.index, r) for e, r in shed] == [(0, "deadline")]
        assert queue.depth == 2

    def test_deadline_policy_tail_drops_when_nothing_expired(self):
        queue = AdmissionQueue(
            AdmissionConfig(
                capacity=2, policy="deadline", queue_deadline_us=1000.0
            )
        )
        queue.offer(entry(0, arrival=0.0), 0.0)
        queue.offer(entry(1, arrival=1.0), 1.0)
        shed = queue.offer(entry(2, arrival=2.0), 2.0)
        assert [(e.index, r) for e, r in shed] == [(2, "tail")]

    def test_priority_policy_evicts_coldest_for_hotter(self):
        queue = AdmissionQueue(AdmissionConfig(capacity=2, policy="priority"))
        queue.offer(entry(0, priority=3.0), 0.0)
        queue.offer(entry(1, priority=1.0), 0.0)
        shed = queue.offer(entry(2, priority=2.0), 0.0)
        assert [(e.index, r) for e, r in shed] == [(1, "priority")]
        assert [e.index for e in queue._queue] == [0, 2]

    def test_priority_policy_sheds_cold_newcomer(self):
        queue = AdmissionQueue(AdmissionConfig(capacity=2, policy="priority"))
        queue.offer(entry(0, priority=3.0), 0.0)
        queue.offer(entry(1, priority=2.0), 0.0)
        shed = queue.offer(entry(2, priority=1.0), 0.0)
        assert [(e.index, r) for e, r in shed] == [(2, "priority")]

    def test_priority_tie_evicts_youngest(self):
        queue = AdmissionQueue(AdmissionConfig(capacity=2, policy="priority"))
        queue.offer(entry(0, priority=1.0), 0.0)
        queue.offer(entry(1, priority=1.0), 0.0)
        shed = queue.offer(entry(2, priority=2.0), 0.0)
        # Equal-priority waiters: the younger (1) loses its slot first.
        assert [(e.index, r) for e, r in shed] == [(1, "priority")]

    def test_take_skips_deadline_missed_waiters(self):
        queue = AdmissionQueue(
            AdmissionConfig(
                capacity=8, policy="tail", queue_deadline_us=50.0
            )
        )
        queue.offer(entry(0, arrival=0.0), 0.0)
        queue.offer(entry(1, arrival=90.0), 90.0)
        taken, missed = queue.take_run(100.0, 1)
        # Entry 0 would start 100 us after arrival — over its deadline.
        assert [e.index for e in missed] == [0]
        assert [e.index for e in taken] == [1]
        taken, missed = queue.take_run(100.0, 1)
        assert taken == [] and missed == []

    def test_take_fifo_without_deadline(self):
        queue = AdmissionQueue(AdmissionConfig(capacity=8))
        queue.offer(entry(0), 0.0)
        queue.offer(entry(1), 0.0)
        assert queue.take_run(1e9, 1)[0][0].index == 0
        assert queue.take_run(1e9, 1)[0][0].index == 1


@dataclass
class TenantEntry:
    """A waiting request with a tenant, as the gateway queues them."""

    index: int
    tenant: str
    arrival_us: float = 0.0
    priority: float = 0.0


def queue_of(*tenants, deadline=None, arrivals=None):
    queue = AdmissionQueue(
        AdmissionConfig(capacity=64, queue_deadline_us=deadline)
    )
    for index, tenant in enumerate(tenants):
        arrival = 0.0 if arrivals is None else arrivals[index]
        queue.offer(TenantEntry(index, tenant, arrival), arrival)
    return queue


def indexes(entries):
    return [e.index for e in entries]


class TestTakeRun:
    """``take_run`` pops a same-tenant run, as the gateway's flush
    batches one, with ``take``'s deadline accounting (limit 1 is the
    open loop's ``take``)."""

    def test_run_ends_at_another_tenant(self):
        queue = queue_of("a", "a", "b", "a")
        run, missed = queue.take_run(0.0, 8)
        assert indexes(run) == [0, 1] and missed == []
        run, missed = queue.take_run(0.0, 8)
        assert indexes(run) == [2]
        run, missed = queue.take_run(0.0, 8)
        assert indexes(run) == [3]
        assert queue.take_run(0.0, 8) == ([], [])

    def test_run_stops_at_the_limit(self):
        queue = queue_of("a", "a", "a", "a", "a")
        assert indexes(queue.take_run(0.0, 2)[0]) == [0, 1]
        assert indexes(queue.take_run(0.0, 2)[0]) == [2, 3]
        assert indexes(queue.take_run(0.0, 2)[0]) == [4]
        assert len(queue) == 0

    def test_limit_one_reads_no_tenant(self):
        # The open loop queues QueueEntry, which has no tenant.
        queue = AdmissionQueue(AdmissionConfig(capacity=8))
        queue.offer(entry(0), 0.0)
        queue.offer(entry(1), 0.0)
        assert indexes(queue.take_run(0.0, 1)[0]) == [0]
        assert len(queue) == 1

    def test_deadline_misses_inside_a_run(self):
        # Deadline 50 at dispatch time 100: arrivals before 50 missed.
        queue = queue_of(
            "a", "a", "a", "a", "b",
            deadline=50.0,
            arrivals=[10.0, 60.0, 40.0, 70.0, 80.0],
        )
        run, missed = queue.take_run(100.0, 8)
        assert indexes(run) == [1, 3]
        assert indexes(missed) == [0, 2]
        run, missed = queue.take_run(100.0, 8)
        assert indexes(run) == [4] and missed == []

    def test_a_missed_entry_counts_against_no_limit(self):
        queue = queue_of(
            "a", "a", "a", deadline=50.0, arrivals=[60.0, 10.0, 70.0]
        )
        run, missed = queue.take_run(100.0, 2)
        assert indexes(run) == [0, 2]
        assert indexes(missed) == [1]

    def test_a_missed_head_does_not_pick_the_tenant(self):
        queue = queue_of(
            "a", "b", "b", "a", deadline=50.0, arrivals=[0.0, 60.0, 70.0, 80.0]
        )
        run, missed = queue.take_run(100.0, 8)
        assert indexes(missed) == [0]
        assert indexes(run) == [1, 2]
        assert indexes(queue.drain()) == [3]

    def test_run_stops_before_another_tenants_miss(self):
        # Entry 1 (tenant b) is past its deadline but behind the run's
        # end: it stays queued for the next dispatch to account.
        queue = queue_of(
            "a", "b", "a", deadline=50.0, arrivals=[60.0, 10.0, 70.0]
        )
        run, missed = queue.take_run(100.0, 8)
        assert indexes(run) == [0] and missed == []
        run, missed = queue.take_run(100.0, 8)
        assert indexes(missed) == [1] and indexes(run) == [2]


class TestDegradeLadder:
    def test_level_validation(self):
        with pytest.raises(ConfigError):
            DegradeLevel(level=-1, name="bad")
        with pytest.raises(ConfigError):
            DegradeLevel(level=1, name="bad", max_pages_per_query=0)
        with pytest.raises(ConfigError):
            DegradeLevel(level=1, name="bad", fanout_cap=0)

    def test_ladder_validation(self):
        with pytest.raises(ConfigError):
            DegradeConfig(levels=())
        with pytest.raises(ConfigError):
            DegradeConfig(
                levels=(DegradeLevel(level=0, name="full", cache_only=True),)
            )  # rung 0 must be a no-op
        with pytest.raises(ConfigError):
            DegradeConfig(
                levels=(
                    DegradeLevel(level=0, name="full"),
                    DegradeLevel(level=5, name="mislabelled"),
                )
            )

    def test_default_ladder_shape(self):
        ladder = default_ladder()
        assert ladder.max_level == 3
        assert ladder.levels[0].is_noop
        assert ladder.levels[1].max_pages_per_query == 16
        assert ladder.levels[2].skip_cold_keys
        assert ladder.levels[3].cache_only
        # Clamped lookup.
        assert ladder.level(-3) is ladder.levels[0]
        assert ladder.level(99) is ladder.levels[3]
        custom = default_ladder(page_cap=10)
        assert custom.levels[1].max_pages_per_query == 10
        assert custom.levels[2].max_pages_per_query == 5
        with pytest.raises(ConfigError):
            default_ladder(page_cap=1)


class TestBrownoutController:
    def test_config_validated(self):
        with pytest.raises(ConfigError):
            BrownoutConfig(high_watermark_us=0.0)
        with pytest.raises(ConfigError):
            BrownoutConfig(high_watermark_us=100.0, low_watermark_us=100.0)
        with pytest.raises(ConfigError):
            BrownoutConfig(window=0)
        with pytest.raises(ConfigError):
            BrownoutConfig(quantile=0.0)
        with pytest.raises(ConfigError):
            BrownoutConfig(cool_down_observations=0)
        with pytest.raises(ConfigError):
            BrownoutController(BrownoutConfig(), max_level=-1)

    def test_signal_is_nearest_rank_quantile(self):
        controller = BrownoutController(
            BrownoutConfig(window=4, quantile=0.5), max_level=3
        )
        for latency in (40.0, 10.0, 30.0, 20.0):
            controller._window.append(latency)
        # ceil(0.5 * 4) - 1 = rank 1 of the sorted window.
        assert controller.signal_us() == 20.0

    def test_full_up_down_cycle_with_dwell_and_cooldown(self):
        config = BrownoutConfig(
            high_watermark_us=100.0,
            low_watermark_us=50.0,
            window=1,
            quantile=1.0,
            dwell_us=10.0,
            cool_down_observations=2,
        )
        controller = BrownoutController(config, max_level=2)
        assert controller.level == 0
        assert controller.observe(150.0, 0, now_us=0.0) == 1
        # Hot again inside the dwell window: no second step.
        assert controller.observe(150.0, 0, now_us=5.0) == 1
        assert controller.observe(150.0, 0, now_us=15.0) == 2
        # Already at the ladder top: stays put.
        assert controller.observe(150.0, 0, now_us=30.0) == 2
        # One calm completion is not enough (cool_down = 2)...
        assert controller.observe(40.0, 0, now_us=40.0) == 2
        assert controller.observe(40.0, 0, now_us=50.0) == 1
        # A between-watermarks completion resets the calm streak.
        assert controller.observe(70.0, 0, now_us=60.0) == 1
        assert controller.observe(40.0, 0, now_us=70.0) == 1
        assert controller.observe(40.0, 0, now_us=80.0) == 0
        assert controller.observe(40.0, 0, now_us=90.0) == 0  # floor
        moves = [
            (t.at_us, t.from_level, t.to_level)
            for t in controller.transitions
        ]
        assert moves == [
            (0.0, 0, 1),
            (15.0, 1, 2),
            (50.0, 2, 1),
            (80.0, 1, 0),
        ]
        assert all(t.signal_us > 0 for t in controller.transitions)

    def test_queue_depth_counts_as_pressure(self):
        config = BrownoutConfig(
            high_watermark_us=1000.0,
            low_watermark_us=500.0,
            window=1,
            quantile=1.0,
            queue_high=5,
            dwell_us=0.0,
            cool_down_observations=1,
        )
        controller = BrownoutController(config, max_level=2)
        # Latency is calm but the queue is deep: still steps up.
        assert controller.observe(10.0, 6, now_us=0.0) == 1
        # Calm latency alone cannot step down while the queue stays deep.
        assert controller.observe(10.0, 6, now_us=10.0) == 2
        assert controller.observe(10.0, 0, now_us=20.0) == 1


class TestEngineHotness:
    def test_single_engine_mean_replica_count(self, engine):
        hotness = engine_hotness(engine)
        assert hotness((0, 1)) == pytest.approx(2.0)
        assert hotness((2, 3)) == pytest.approx(1.0)
        assert hotness((0, 2)) == pytest.approx(1.5)
        # The scorer takes a request's checked keys, repeats included,
        # and scores their distinct keys.
        assert hotness((0, 2, 2, 0)) == pytest.approx(1.5)

    def test_cluster_engine_uses_shard_local_indexes(self):
        trace = QueryTrace(
            8,
            [Query((0, 1, 2, 3))] * 6 + [Query((4, 5, 6, 7))] * 4,
        )
        sharded = build_sharded_layout(
            trace,
            MaxEmbedConfig(
                num_shards=2,
                shard_strategy="modulo",
                replication_ratio=0.5,
                build_workers=1,
            ),
        )
        cluster = ClusterEngine(sharded, EngineConfig(cache_ratio=0.0))
        hotness = engine_hotness(cluster)
        assert hotness((0, 1, 2, 3)) >= 1.0
        assert hotness((0, 1, 2, 3, 3)) == hotness((0, 1, 2, 3))

    def test_scorer_reads_the_layout_serving_after_a_swap(
        self, hot_cold_layout
    ):
        manager = LayoutManager(
            hot_cold_layout, EngineConfig(cache_ratio=0.0)
        )
        hotness = engine_hotness(manager)
        assert hotness((0, 1)) == pytest.approx(2.0)
        # The rebuilt layout replicates the other half of each page.
        manager.register(
            PageLayout(8, 4, [(0, 1, 2, 3), (4, 5, 6, 7), (2, 6, 3, 7)])
        )
        manager.swap(1)
        assert hotness((0, 1)) == pytest.approx(1.0)
        assert hotness((2, 3)) == pytest.approx(2.0)

    def test_cluster_scorer_reads_the_shards_serving_after_a_swap(self):
        trace = QueryTrace(8, [Query((0, 1, 2, 3))] * 6)
        sharded = build_sharded_layout(
            trace,
            MaxEmbedConfig(
                num_shards=2,
                shard_strategy="modulo",
                replication_ratio=0.5,
                build_workers=1,
            ),
        )
        cluster = ClusterEngine(sharded, EngineConfig(cache_ratio=0.0))
        hotness = engine_hotness(cluster)
        assert hotness((0, 2)) == pytest.approx(1.0)
        # Shard 0 owns keys 0, 2, 4, 6 (local 0-3); its rebuilt layout
        # replicates the first two.
        assert cluster.plan.shard_keys(0) == (0, 2, 4, 6)
        cluster.swap_shards({0: PageLayout(4, 4, [(0, 1, 2, 3), (0, 1)])})
        assert hotness((0, 2)) == pytest.approx(2.0)
        assert hotness((0, 4)) == pytest.approx(1.5)


class TestEngineDegradedModes:
    QUERY = Query((0, 1, 2, 3, 4, 5, 6, 7))

    def test_noop_rung_is_bit_identical(self, hot_cold_layout):
        def fresh():
            return ServingEngine(
                hot_cold_layout, EngineConfig(cache_ratio=0.0)
            )

        plain = fresh().serve_query(self.QUERY, start_us=5.0)
        noop = fresh().serve_query(
            self.QUERY, start_us=5.0, degrade=default_ladder().level(0)
        )
        assert noop == plain
        assert noop.degrade_level == 0
        assert noop.degrade_shed_keys == 0

    def test_cache_only_never_touches_device(self, engine):
        rung = default_ladder().level(3)
        result = engine.serve_query(self.QUERY, degrade=rung)
        assert result.pages_read == 0
        assert result.ssd_keys == 0
        assert result.missing_keys == 8
        assert result.degrade_shed_keys == 8
        assert result.degrade_level == 3
        assert result.degraded

    def test_page_cap_truncates_selection(self, engine):
        rung = DegradeLevel(level=1, name="capped", max_pages_per_query=1)
        result = engine.serve_query(self.QUERY, degrade=rung)
        assert result.pages_read == 1
        assert 0 < result.ssd_keys <= 4
        assert result.missing_keys == 8 - result.ssd_keys
        assert result.degrade_shed_keys == result.missing_keys
        assert result.degrade_level == 1

    def test_skip_cold_keys_serves_replicated_only(self, engine):
        rung = DegradeLevel(level=2, name="hot-only", skip_cold_keys=True)
        result = engine.serve_query(self.QUERY, degrade=rung)
        # Keys 0/1/4/5 carry replicas; the four cold keys are shed.
        assert result.ssd_keys == 4
        assert result.missing_keys == 4
        assert result.degrade_shed_keys == 4

    @pytest.mark.parametrize(
        "rung",
        [
            DegradeLevel(level=2, name="hot-only", skip_cold_keys=True),
            default_ladder().level(3),
        ],
        ids=["skip_cold_keys", "cache_only"],
    )
    def test_key_past_the_table_is_refused_at_a_dropping_rung(
        self, engine, rung
    ):
        # A rung that drops keys before selection still refuses a key
        # past the table the way the full path does, not with a bare
        # IndexError (skip_cold_keys) or as a shed key (cache_only).
        with pytest.raises(
            ServingError, match="^key 9 is not in the embedding table$"
        ):
            engine.serve_query(Query((0, 9)), degrade=rung)

    def test_generous_cap_keeps_full_coverage(self, engine):
        rung = DegradeLevel(level=1, name="capped", max_pages_per_query=8)
        result = engine.serve_query(self.QUERY, degrade=rung)
        assert result.missing_keys == 0
        assert result.degrade_level == 1
        assert result.degrade_shed_keys == 0

    def test_degrade_counts_flow_into_report(self, hot_cold_layout):
        engine = ServingEngine(hot_cold_layout, EngineConfig(cache_ratio=0.0))
        results = [
            engine.serve_query(self.QUERY),
            engine.serve_query(
                self.QUERY,
                degrade=DegradeLevel(
                    level=2, name="hot-only", skip_cold_keys=True
                ),
            ),
        ]
        report = ServingReport()
        for result in results:
            report.add(result, result.start_us)
        assert report.total_degrade_shed_keys == 4
        assert report.degrade_level_hist == {2: 1}
        assert report.degraded_mode_queries() == 1
        assert report.coverage() == pytest.approx(1.0 - 4 / 16)


class TestClusterDegrade:
    @pytest.fixture
    def sharded(self):
        trace = QueryTrace(
            8,
            [Query((0, 1, 2, 3))] * 6
            + [Query((4, 5, 6, 7))] * 4
            + [Query((0, 1, 4))] * 2,
        )
        return build_sharded_layout(
            trace,
            MaxEmbedConfig(
                num_shards=2, shard_strategy="modulo", build_workers=1
            ),
        )

    @pytest.fixture
    def cluster(self, sharded):
        return ClusterEngine(sharded, EngineConfig(cache_ratio=0.0))

    def test_noop_rung_is_bit_identical(self, sharded):
        query = Query((0, 1, 2, 3, 4, 5))
        # Fresh engines: serving itself mutates cache state.
        plain = ClusterEngine(
            sharded, EngineConfig(cache_ratio=0.0)
        ).serve_query(query, start_us=3.0)
        noop = ClusterEngine(
            sharded, EngineConfig(cache_ratio=0.0)
        ).serve_query(query, start_us=3.0, degrade=default_ladder().level(0))
        assert noop == plain

    def test_fanout_cap_sheds_smallest_fragments(self, cluster):
        # Modulo over 2 shards: evens on one shard, odds on the other.
        query = Query((0, 1, 2, 3, 4, 5))  # 3 keys per shard — tie
        rung = DegradeLevel(level=3, name="capped-fanout", fanout_cap=1)
        result = cluster.serve_query(query, degrade=rung)
        assert result.requested_keys == 6
        # One whole fragment shed: its 3 keys are missing.
        assert result.missing_keys == 3
        assert result.degrade_shed_keys == 3
        assert result.degrade_level == 3

    def test_fanout_cap_keeps_largest_fragment(self, cluster):
        query = Query((0, 2, 4, 1))  # 3 even keys vs 1 odd key
        rung = DegradeLevel(level=3, name="capped-fanout", fanout_cap=1)
        result = cluster.serve_query(query, degrade=rung)
        # The 1-key fragment is shed, the 3-key fragment served.
        assert result.missing_keys == 1
        assert result.degrade_shed_keys == 1

    def test_serve_trace_counts_shard_sheds(self, cluster):
        queries = [Query((0, 1, 2, 3, 4, 5))] * 5
        rung = DegradeLevel(level=3, name="capped-fanout", fanout_cap=1)
        report = cluster.serve_trace(queries, degrade=rung)
        assert sum(report.shard_shed) == 5
        assert report.report.total_degrade_shed_keys == 15
        assert report.report.degraded_mode_queries() == 5
        summary = report.as_dict()
        assert summary["shard_shed"] == 5
        assert summary["degraded_mode_queries"] == 5
        assert summary["degrade_shed_keys"] == 15

    def test_shed_constant_registered(self):
        assert SHARD_SHED == "shed"


class TestOpenLoopParity:
    """Disabled overload knobs must not change a single bit of output."""

    def _legacy(self, stream, qps, engine):
        return OpenLoopSimulator(engine, seed=7).run(stream, offered_qps=qps)

    def test_unbounded_admission_matches_legacy(self, hot_cold_layout, stream):
        def fresh():
            return ServingEngine(
                hot_cold_layout, EngineConfig(cache_ratio=0.0, threads=2)
            )

        legacy = self._legacy(stream, 300_000.0, fresh())
        admitted = OpenLoopSimulator(
            fresh(),
            seed=7,
            admission=AdmissionConfig(capacity=10**9),
        ).run(stream, offered_qps=300_000.0)
        assert admitted == legacy
        assert admitted.shed == {}
        assert admitted.deadline_misses == 0

    def test_cool_brownout_matches_legacy(self, hot_cold_layout, stream):
        def fresh():
            return ServingEngine(
                hot_cold_layout, EngineConfig(cache_ratio=0.0, threads=2)
            )

        legacy = self._legacy(stream, 300_000.0, fresh())
        browned = OpenLoopSimulator(
            fresh(),
            seed=7,
            brownout=BrownoutConfig(
                high_watermark_us=1e12, low_watermark_us=1e11
            ),
        ).run(stream, offered_qps=300_000.0)
        assert browned == legacy
        assert browned.brownout_transitions == []
        assert browned.final_degrade_level == 0

    def test_cluster_unbounded_admission_matches_legacy(self):
        trace = QueryTrace(
            8, [Query((0, 1, 2, 3))] * 6 + [Query((4, 5, 6, 7))] * 4
        )
        sharded = build_sharded_layout(
            trace,
            MaxEmbedConfig(
                num_shards=2, shard_strategy="modulo", build_workers=1
            ),
        )
        stream = [Query((k % 8, (k + 4) % 8)) for k in range(100)]

        def fresh():
            return ClusterEngine(sharded, EngineConfig(cache_ratio=0.0))

        legacy = OpenLoopSimulator(fresh(), seed=3).run(
            stream, offered_qps=200_000.0
        )
        admitted = OpenLoopSimulator(
            fresh(), seed=3, admission=AdmissionConfig(capacity=10**9)
        ).run(stream, offered_qps=200_000.0)
        assert admitted == legacy


class TestOverloadedSimulation:
    def _saturating_sim(self, hot_cold_layout, admission, brownout=None):
        engine = ServingEngine(
            hot_cold_layout, EngineConfig(cache_ratio=0.0, threads=1)
        )
        return OpenLoopSimulator(
            engine, seed=11, admission=admission, brownout=brownout
        )

    def test_offered_equals_completions_plus_sheds_and_misses(
        self, hot_cold_layout, stream
    ):
        simulator = self._saturating_sim(
            hot_cold_layout,
            AdmissionConfig(
                capacity=4, policy="deadline", queue_deadline_us=40.0
            ),
        )
        report = simulator.run(stream, offered_qps=10_000_000.0)
        assert report.shed_count > 0
        assert (
            report.offered_count()
            == report.num_queries
            + report.shed_count
            + report.deadline_misses
        )
        assert report.completion_rate() < 1.0

    def test_tail_drop_bounds_queue_wait(self, hot_cold_layout, stream):
        bounded = self._saturating_sim(
            hot_cold_layout, AdmissionConfig(capacity=2)
        ).run(stream, offered_qps=10_000_000.0)
        unbounded = self._saturating_sim(hot_cold_layout, None).run(
            stream, offered_qps=10_000_000.0
        )
        assert bounded.shed.get("tail", 0) > 0
        assert (
            bounded.percentile_latency_us(99)
            < unbounded.percentile_latency_us(99)
        )

    def test_priority_policy_prefers_hot_queries(self, hot_cold_layout):
        # Alternate hot (replicated keys) and cold queries.
        stream = [
            Query((0, 1, 4, 5)) if k % 2 == 0 else Query((2, 3, 6, 7))
            for k in range(200)
        ]
        simulator = self._saturating_sim(
            hot_cold_layout,
            AdmissionConfig(capacity=2, policy="priority"),
        )
        report = simulator.run(stream, offered_qps=10_000_000.0)
        assert report.shed.get("priority", 0) > 0

    def test_brownout_degrades_and_recovers_counters(
        self, hot_cold_layout, stream
    ):
        simulator = self._saturating_sim(
            hot_cold_layout,
            AdmissionConfig(capacity=16),
            brownout=BrownoutConfig(
                high_watermark_us=50.0,
                low_watermark_us=20.0,
                window=8,
                dwell_us=100.0,
                cool_down_observations=4,
            ),
        )
        report = simulator.run(stream, offered_qps=10_000_000.0)
        assert len(report.brownout_transitions) >= 1
        assert report.final_degrade_level > 0
        assert report.degraded_mode_queries() > 0

    def test_deterministic_under_seed(self, hot_cold_layout, stream):
        def run():
            return self._saturating_sim(
                hot_cold_layout,
                AdmissionConfig(
                    capacity=4, policy="deadline", queue_deadline_us=40.0
                ),
                brownout=BrownoutConfig(
                    high_watermark_us=50.0, low_watermark_us=20.0
                ),
            ).run(stream, offered_qps=5_000_000.0)

        first, second = run(), run()
        assert first == second
        assert first.shed == second.shed
        assert first.deadline_misses == second.deadline_misses
        assert [
            (t.at_us, t.from_level, t.to_level)
            for t in first.brownout_transitions
        ] == [
            (t.at_us, t.from_level, t.to_level)
            for t in second.brownout_transitions
        ]


def completed(*rows, **fields) -> ServingReport:
    """A report of ``(arrival, start, finish, missing keys)`` completions."""
    report = ServingReport(**fields)
    for arrival, start, finish, missing in rows:
        report.add_request(arrival, start, finish, 4, missing, 0)
    return report


class TestReportAccounting:
    def test_single_completion_spans_its_latency(self):
        report = ServingReport(offered_qps=100.0)
        assert report.makespan_us == 0.0
        assert report.throughput_qps() == 0.0
        single = completed((0.0, 0.0, 50.0, 0))
        # One completion spans its own latency: arrival to finish.
        assert single.makespan_us == 50.0
        assert single.throughput_qps() == pytest.approx(1 / 50e-6)
        assert single.goodput_qps() == single.throughput_qps()

    def test_span_first_arrival_to_last_completion(self):
        report = completed((0.0, 0.0, 150.0, 0), (100.0, 100.0, 200.0, 0))
        assert report.makespan_us == pytest.approx(200.0)
        assert report.throughput_qps() == pytest.approx(2 / 200e-6)

    def test_goodput_excludes_partial_coverage_and_slo_misses(self):
        report = completed(
            (0.0, 0.0, 50.0, 0),  # good
            (10.0, 10.0, 60.0, 2),  # partial
            (20.0, 20.0, 400.0, 0),  # slow
        )
        span = report.makespan_us
        assert report.goodput_qps() == pytest.approx(2 / (span * 1e-6))
        assert report.goodput_qps(latency_slo_us=100.0) == pytest.approx(
            1 / (span * 1e-6)
        )

    def test_offered_falls_back_to_completions(self):
        report = completed(*[(0.0, 0.0, 1.0, 0)] * 3)
        assert report.offered_count() == 3
        assert report.completion_rate() == 1.0
