"""Tests for repro.workloads.temporal + explicit-arrival open-loop runs."""

import pytest

from repro import (
    EngineConfig,
    PageLayout,
    Query,
    ServingEngine,
    ServingError,
    WorkloadError,
)
from repro.serving import OpenLoopSimulator
from repro.workloads import burst_rate, sample_arrivals


class TestRateProfiles:
    def test_burst_window(self):
        rate = burst_rate(
            100.0, burst_factor=4.0, burst_start_us=50.0,
            burst_duration_us=100.0,
        )
        assert rate(0.0) == 100.0
        assert rate(75.0) == 400.0
        assert rate(151.0) == 100.0

    def test_burst_validation(self):
        with pytest.raises(WorkloadError):
            burst_rate(0.0)
        with pytest.raises(WorkloadError):
            burst_rate(10.0, burst_factor=0.5)
        with pytest.raises(WorkloadError):
            burst_rate(10.0, burst_duration_us=0.0)


class TestSampleArrivals:
    def test_count_and_monotonicity(self):
        arrivals = sample_arrivals(lambda _t: 10_000.0, 100, 10_000.0, 0)
        assert len(arrivals) == 100
        assert arrivals == sorted(arrivals)

    def test_mean_rate_tracks_profile(self):
        arrivals = sample_arrivals(lambda _t: 10_000.0, 2000, 10_000.0, 0)
        span_s = (arrivals[-1] - arrivals[0]) * 1e-6
        assert 2000 / span_s == pytest.approx(10_000.0, rel=0.15)

    def test_thinning_concentrates_in_burst(self):
        rate = burst_rate(
            1000.0, burst_factor=10.0, burst_start_us=0.0,
            burst_duration_us=1e5,
        )
        arrivals = sample_arrivals(rate, 400, 10_000.0, seed=1)
        inside = sum(1 for t in arrivals if t < 1e5)
        # The burst window is 10x hotter: most early arrivals land there.
        assert inside > 100

    def test_deterministic(self):
        a = sample_arrivals(lambda _t: 5000.0, 50, 5000.0, seed=3)
        b = sample_arrivals(lambda _t: 5000.0, 50, 5000.0, seed=3)
        assert a == b

    def test_peak_violation_detected(self):
        with pytest.raises(WorkloadError):
            sample_arrivals(lambda _t: 10_000.0, 10, 5000.0, 0)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            sample_arrivals(lambda _t: 100.0, 0, 100.0)
        with pytest.raises(WorkloadError):
            sample_arrivals(lambda _t: 100.0, 10, 0.0)


class TestRunArrivals:
    @pytest.fixture
    def engine(self):
        layout = PageLayout(8, 4, [(0, 1, 2, 3), (4, 5, 6, 7)])
        return ServingEngine(
            layout, EngineConfig(cache_ratio=0.0, threads=2)
        )

    def test_explicit_schedule(self, engine):
        queries = [Query((k % 8,)) for k in range(20)]
        arrivals = [float(i * 100) for i in range(20)]
        report = OpenLoopSimulator(engine, seed=0).run_arrivals(
            queries, arrivals
        )
        assert report.num_queries == 18  # 10% warmup
        assert report.offered_qps == pytest.approx(10_000.0, rel=0.06)

    def test_burst_raises_tail_latency(self):
        def fresh():
            layout = PageLayout(8, 4, [(0, 1, 2, 3), (4, 5, 6, 7)])
            return ServingEngine(
                layout, EngineConfig(cache_ratio=0.0, threads=1)
            )

        queries = [Query((k % 8,)) for k in range(300)]
        flat = sample_arrivals(lambda _t: 40_000.0, 300, 40_000.0, 0)
        bursty_rate = burst_rate(
            30_000.0, burst_factor=8.0, burst_start_us=0.0,
            burst_duration_us=2e3,
        )
        bursty = sample_arrivals(bursty_rate, 300, 240_000.0, 0)
        flat_report = OpenLoopSimulator(fresh(), seed=0).run_arrivals(
            queries, flat
        )
        burst_report = OpenLoopSimulator(fresh(), seed=0).run_arrivals(
            queries, bursty
        )
        assert burst_report.percentile_latency_us(
            99
        ) > flat_report.percentile_latency_us(99)

    def test_validation(self, engine):
        simulator = OpenLoopSimulator(engine, seed=0)
        queries = [Query((0,)), Query((1,))]
        with pytest.raises(ServingError):
            simulator.run_arrivals(queries, [0.0])  # length mismatch
        with pytest.raises(ServingError):
            simulator.run_arrivals(queries, [5.0, 1.0])  # not sorted
        with pytest.raises(ServingError):
            simulator.run_arrivals([], [])
