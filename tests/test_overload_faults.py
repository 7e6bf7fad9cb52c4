"""Overload x faults interplay: both failure domains in one simulation.

A production-shaped scenario: bursty (non-homogeneous Poisson) arrivals
from :mod:`repro.workloads.temporal` offered to an engine whose device
injects transient read errors (:mod:`repro.faults`), behind admission
control and the brownout controller.  The two degradation sources must
coexist without stepping on each other's accounting: sheds and deadline
misses come from the traffic domain, retries/recoveries/fault losses
from the device domain, and every post-warmup arrival lands in exactly
one bucket.
"""

import pytest

from repro import (
    EngineConfig,
    FaultPlan,
    PageLayout,
    Query,
    ServingEngine,
)
from repro.overload import AdmissionConfig, BrownoutConfig
from repro.serving import OpenLoopSimulator, RetryPolicy
from repro.workloads.temporal import burst_rate, sample_arrivals


@pytest.fixture
def hot_cold_layout():
    """Keys 0/1/4/5 carry a replica (recoverable); 2/3/6/7 are cold."""
    return PageLayout(
        num_keys=8,
        capacity=4,
        pages=[(0, 1, 2, 3), (4, 5, 6, 7), (0, 4, 1, 5)],
    )


@pytest.fixture
def stream():
    return [Query((k % 8, (k + 1) % 8, (k + 5) % 8)) for k in range(300)]


@pytest.fixture
def bursty_arrivals():
    """A flash burst over a modest base rate, deterministic from seed.

    The base rate leaves the single worker comfortable (faulted serving
    included), so pre- and post-burst completions exercise the device
    domain at degrade level 0; the 50x burst in the middle overwhelms
    admission and drives the brownout controller up the ladder.
    """
    rate = burst_rate(
        10_000.0,
        burst_factor=50.0,
        burst_start_us=10_000.0,
        burst_duration_us=300.0,
    )
    return sample_arrivals(rate, count=300, peak_qps=500_000.0, seed=5)


def faulty_engine(layout) -> ServingEngine:
    return ServingEngine(
        layout,
        EngineConfig(
            cache_ratio=0.0,
            threads=1,
            fault_plan=FaultPlan(seed=9, read_error_rate=0.5),
            retry=RetryPolicy(max_retries=1),
        ),
    )


class TestOverloadWithFaults:
    def _run(self, layout, stream, arrivals, served=None):
        """The open-loop report; ``served`` collects every engine result."""
        engine = faulty_engine(layout)
        if served is not None:
            serve = engine.serve_query

            def record(*args, **kwargs):
                served.append(serve(*args, **kwargs))
                return served[-1]

            engine.serve_query = record
        simulator = OpenLoopSimulator(
            engine,
            seed=2,
            admission=AdmissionConfig(
                capacity=4, policy="deadline", queue_deadline_us=200.0
            ),
            brownout=BrownoutConfig(
                high_watermark_us=250.0,
                low_watermark_us=100.0,
                window=8,
                dwell_us=100.0,
                cool_down_observations=4,
            ),
        )
        return simulator.run_arrivals(
            stream, arrivals, warmup_fraction=0.1
        )

    def test_both_domains_counted(
        self, hot_cold_layout, stream, bursty_arrivals
    ):
        report = self._run(hot_cold_layout, stream, bursty_arrivals)
        # Traffic domain: the burst overwhelms a single worker.
        assert report.shed_count + report.deadline_misses > 0
        # Device domain: transient faults drive retries/recoveries on the
        # queries that were admitted and served.
        assert report.total_retries > 0
        assert report.total_recovered_keys > 0

    def test_every_arrival_lands_in_one_bucket(
        self, hot_cold_layout, stream, bursty_arrivals
    ):
        report = self._run(hot_cold_layout, stream, bursty_arrivals)
        assert (
            report.offered_count()
            == report.num_queries
            + report.shed_count
            + report.deadline_misses
        )

    def test_coverage_consistent_per_result(
        self, hot_cold_layout, stream, bursty_arrivals
    ):
        served = []
        report = self._run(hot_cold_layout, stream, bursty_arrivals, served)
        assert len(served) >= report.num_queries > 0
        for r in served:
            assert 0 <= r.missing_keys <= r.requested_keys
            # Recovered keys were served, so they can never exceed what
            # the query asked for minus what is still missing.
            assert r.recovered_keys <= r.requested_keys - r.missing_keys

    def test_brownout_engages_during_burst_faults_still_recover(
        self, hot_cold_layout, stream, bursty_arrivals
    ):
        served = []
        report = self._run(hot_cold_layout, stream, bursty_arrivals, served)
        degraded = [r for r in served if r.degrade_level > 0]
        assert degraded, "the burst should push the controller off level 0"
        assert report.degraded_mode_queries() > 0
        # Replica recovery keeps working inside degraded serving modes.
        assert sum(r.retries for r in degraded) > 0
        # The controller both escalates and (once pressure eases between
        # burst waves) steps back down — hysteresis in both directions.
        moves = [(t.from_level, t.to_level) for t in report.brownout_transitions]
        assert any(b > a for a, b in moves)
        assert any(b < a for a, b in moves)

    def test_deterministic_end_to_end(
        self, hot_cold_layout, stream, bursty_arrivals
    ):
        first = self._run(hot_cold_layout, stream, bursty_arrivals)
        second = self._run(hot_cold_layout, stream, bursty_arrivals)
        assert first == second
        assert first.shed == second.shed
        assert first.deadline_misses == second.deadline_misses

    def test_fault_free_overload_has_clean_device_counters(
        self, hot_cold_layout, stream, bursty_arrivals
    ):
        engine = ServingEngine(
            hot_cold_layout, EngineConfig(cache_ratio=0.0, threads=1)
        )
        simulator = OpenLoopSimulator(
            engine,
            seed=2,
            admission=AdmissionConfig(capacity=4),
        )
        report = simulator.run_arrivals(
            stream, bursty_arrivals, warmup_fraction=0.1
        )
        assert report.shed_count > 0
        assert report.total_retries == 0
        assert report.total_recovered_keys == 0
        # Overload shedding drops whole requests; admitted ones keep
        # full coverage when the device is healthy and nothing degrades.
        assert report.degraded_queries == 0
