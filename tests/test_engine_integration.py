"""Engine integration: device variants, tracing, page-grain admission."""

import pytest

from repro import (
    EngineConfig,
    PageLayout,
    Query,
    QueryTrace,
    ServingEngine,
)
from repro.ssd import TracingDevice


@pytest.fixture
def layout():
    return PageLayout(
        num_keys=12,
        capacity=4,
        pages=[(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11), (0, 4, 8)],
        num_base_pages=3,
    )


class TestDeviceVariants:
    def test_traced_engine_records_every_read(self, layout):
        engine = ServingEngine(layout, EngineConfig(cache_ratio=0.0))
        engine.device = TracingDevice(engine.device)
        trace = QueryTrace(12, [Query((0, 5)), Query((2, 6, 10))])
        report = engine.serve_trace(trace)
        assert len(engine.device.records) == report.total_pages_read


class TestPageGrainAdmission:
    def test_page_grain_admits_co_residents(self, layout):
        engine = ServingEngine(
            layout,
            EngineConfig(cache_ratio=1.0, page_grain_admission=True),
        )
        engine.serve_query(Query((0,)))  # reads page 0 holding 0..3
        result = engine.serve_query(Query((1, 2, 3)), start_us=100.0)
        assert result.cache_hits == 3
        assert result.pages_read == 0

    def test_key_grain_admits_only_requested(self, layout):
        engine = ServingEngine(
            layout,
            EngineConfig(cache_ratio=1.0, page_grain_admission=False),
        )
        engine.serve_query(Query((0,)))
        result = engine.serve_query(Query((1,)), start_us=100.0)
        assert result.cache_hits == 0
        assert result.pages_read == 1


class TestReportInternals:
    def test_cpu_fraction_bounded(self, layout):
        engine = ServingEngine(layout, EngineConfig(cache_ratio=0.0))
        trace = QueryTrace(12, [Query((0, 4, 8))] * 20)
        report = engine.serve_trace(trace)
        assert 0.0 < report.cpu_fraction() < 1.0

    def test_keys_per_second_scales_with_query_size(self, layout):
        engine = ServingEngine(layout, EngineConfig(cache_ratio=0.0))
        trace = QueryTrace(12, [Query((0, 1, 2, 3))] * 10)
        report = engine.serve_trace(trace)
        assert report.keys_per_second() == pytest.approx(
            4 * report.throughput_qps(), rel=1e-6
        )

    def test_device_stats_track_engine_reads(self, layout):
        engine = ServingEngine(layout, EngineConfig(cache_ratio=0.0))
        trace = QueryTrace(12, [Query((0, 5, 10))] * 5)
        report = engine.serve_trace(trace)
        assert engine.device.stats.reads == report.total_pages_read
        assert engine.device.stats.bytes_read == report.total_bytes_read()
