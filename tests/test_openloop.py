"""Tests for repro.serving.openloop: the driver and Poisson-arrival load."""

import pytest

from repro import (
    ClusterEngine,
    EngineConfig,
    MaxEmbedConfig,
    PageLayout,
    Query,
    QueryTrace,
    ServingEngine,
    ServingError,
    build_sharded_layout,
)
from repro.overload import BrownoutConfig
from repro.serving import (
    OpenLoopSimulator,
    QueryResult,
    ServingReport,
    simulate,
)


@pytest.fixture
def engine():
    layout = PageLayout(
        num_keys=8,
        capacity=4,
        pages=[(0, 1, 2, 3), (4, 5, 6, 7)],
    )
    return ServingEngine(layout, EngineConfig(cache_ratio=0.0, threads=2))


@pytest.fixture
def stream():
    return [Query((k % 8,)) for k in range(200)]


class TestServingReport:
    def test_latency_decomposition(self):
        report = ServingReport()
        report.add(
            QueryResult(
                requested_keys=1,
                cache_hits=0,
                ssd_keys=1,
                pages_read=1,
                valid_per_read=(1,),
                start_us=15.0,
                finish_us=40.0,
            ),
            arrival_us=10.0,
        )
        assert report.mean_queue_wait_us() == pytest.approx(5.0)
        assert report.mean_latency_us() == pytest.approx(30.0)

    def test_empty_report(self):
        report = ServingReport(offered_qps=100.0)
        assert report.mean_latency_us() == 0.0
        assert report.percentile_latency_us(99) == 0.0
        assert report.mean_queue_wait_us() == 0.0
        assert report.throughput_qps() == 0.0
        assert report.makespan_us == 0.0


def fresh_engine():
    layout = PageLayout(8, 4, [(0, 1, 2, 3), (4, 5, 6, 7)])
    return ServingEngine(layout, EngineConfig(cache_ratio=0.0, threads=2))


def small_cluster():
    trace = QueryTrace(
        8, [Query((0, 1, 2, 3))] * 6 + [Query((4, 5, 6, 7))] * 4
    )
    sharded = build_sharded_layout(
        trace,
        MaxEmbedConfig(num_shards=2, shard_strategy="modulo", build_workers=1),
    )
    return ClusterEngine(sharded, EngineConfig(cache_ratio=0.0))


class TestSimulate:
    @pytest.mark.parametrize("warmup", [-1, 200])
    def test_warmup_must_leave_a_measured_query(self, stream, warmup):
        with pytest.raises(ServingError):
            simulate(fresh_engine(), stream, warmup=warmup)
        with pytest.raises(ServingError):
            fresh_engine().serve_trace(stream, warmup_queries=warmup)
        with pytest.raises(ServingError):
            small_cluster().serve_trace(stream, warmup_queries=warmup)

    def test_closed_loop_is_an_open_loop_at_the_free_worker(self, stream):
        # A brownout that never fires takes the queue-and-controller loop
        # with each arrival at the earliest free worker: same report.
        cool = BrownoutConfig(high_watermark_us=1e12, low_watermark_us=1e11)
        closed = simulate(fresh_engine(), stream, warmup=20)
        looped = simulate(fresh_engine(), stream, warmup=20, brownout=cool)
        assert looped == closed
        assert closed.mean_queue_wait_us() == 0.0
        assert closed.offered_count() == closed.num_queries == 180


class TestSimulator:
    def test_low_load_has_no_queueing(self, engine, stream):
        simulator = OpenLoopSimulator(engine, seed=0)
        report = simulator.run(stream, offered_qps=1000.0)
        # At 1k qps against a >100k qps engine, queue waits are ~zero.
        assert report.mean_queue_wait_us() < 1.0
        assert report.mean_latency_us() > 0.0

    def test_latency_grows_with_load(self, stream):
        low = OpenLoopSimulator(fresh_engine(), seed=0).run(
            stream, offered_qps=5_000.0
        )
        high = OpenLoopSimulator(fresh_engine(), seed=0).run(
            stream, offered_qps=2_000_000.0
        )
        assert high.mean_latency_us() > low.mean_latency_us()
        assert high.mean_queue_wait_us() > low.mean_queue_wait_us()

    def test_achieved_tracks_offered_at_low_load(self, engine, stream):
        simulator = OpenLoopSimulator(engine, seed=1)
        report = simulator.run(stream, offered_qps=10_000.0)
        assert report.throughput_qps() == pytest.approx(10_000.0, rel=0.35)

    def test_warmup_excluded(self, engine, stream):
        simulator = OpenLoopSimulator(engine, seed=0)
        report = simulator.run(stream, offered_qps=1000.0, warmup_fraction=0.5)
        assert report.num_queries == len(stream) - len(stream) // 2

    def test_deterministic_under_seed(self, stream):
        def run(seed):
            layout = PageLayout(8, 4, [(0, 1, 2, 3), (4, 5, 6, 7)])
            engine = ServingEngine(layout, EngineConfig(cache_ratio=0.0))
            return OpenLoopSimulator(engine, seed=seed).run(
                stream, offered_qps=50_000.0
            )

        assert run(3).mean_latency_us() == run(3).mean_latency_us()

    def test_validation(self, engine, stream):
        simulator = OpenLoopSimulator(engine, seed=0)
        with pytest.raises(ServingError):
            simulator.run(stream, offered_qps=0.0)
        with pytest.raises(ServingError):
            simulator.run([], offered_qps=100.0)
        with pytest.raises(ServingError):
            simulator.run(stream, offered_qps=100.0, warmup_fraction=1.0)

    def test_maxembed_lowers_tail_latency_under_load(
        self, criteo_small, shp_layout_small, maxembed_layout_small
    ):
        _, live = criteo_small
        queries = list(live)[:250]
        p99 = {}
        for name, layout in (
            ("shp", shp_layout_small),
            ("me", maxembed_layout_small),
        ):
            engine = ServingEngine(
                layout, EngineConfig(cache_ratio=0.0, index_limit=5)
            )
            capacity = engine.serve_trace(queries).throughput_qps()
            engine2 = ServingEngine(
                layout, EngineConfig(cache_ratio=0.0, index_limit=5)
            )
            report = OpenLoopSimulator(engine2, seed=0).run(
                queries, offered_qps=capacity * 0.7
            )
            p99[name] = report.percentile_latency_us(99)
        assert p99["me"] <= p99["shp"] * 1.1
