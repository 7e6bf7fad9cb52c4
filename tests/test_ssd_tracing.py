"""Tests for repro.ssd.tracing: the transparent I/O trace wrapper."""

from collections import Counter

import pytest

from repro import P5800X, Query, SimulatedSsd, StorageError
from repro.ssd import TracingDevice
from repro.ssd.tracing import IoRecord


@pytest.fixture
def traced():
    return TracingDevice(SimulatedSsd(P5800X))


class TestPassThrough:
    def test_submit_and_poll(self, traced):
        completion = traced.submit_read(3, 0.0)
        assert completion.page_id == 3
        assert traced.inflight == 1
        done = traced.poll(completion.completed_at_us)
        assert [c.page_id for c in done] == [3]
        assert traced.inflight == 0

    def test_stats_delegate(self, traced):
        traced.submit_read(0, 0.0)
        assert traced.stats.reads == 1

    def test_drain_and_next_completion(self, traced):
        assert traced.next_completion_time() is None
        c = traced.submit_read(1, 0.0)
        assert traced.next_completion_time() == pytest.approx(
            c.completed_at_us
        )
        assert traced.drain() == pytest.approx(c.completed_at_us)

    def test_engine_integration(self, shp_layout_small):
        from repro import EngineConfig, ServingEngine

        engine = ServingEngine(
            shp_layout_small, EngineConfig(cache_ratio=0.0)
        )
        engine.device = TracingDevice(engine.device)
        engine.serve_query(Query((0, 1, 2)))
        assert len(engine.device.records) >= 1


class TestRecording:
    def test_records_capture_timing(self, traced):
        traced.submit_read(7, 100.0)
        record = traced.records[0]
        assert record.page_id == 7
        assert record.submitted_at_us == 100.0
        assert record.latency_us >= P5800X.read_latency_us

    def test_max_records_cap(self):
        traced = TracingDevice(SimulatedSsd(P5800X), max_records=2)
        for page in range(5):
            traced.submit_read(page, float(page))
        assert len(traced.records) == 2
        assert traced.dropped == 3

    def test_rejects_bad_cap(self):
        with pytest.raises(StorageError):
            TracingDevice(SimulatedSsd(P5800X), max_records=0)


class TestAnalysis:
    def fill(self, traced, pattern):
        t = 0.0
        for page in pattern:
            traced.submit_read(page, t)
            t += 1.0

    def test_page_access_counts(self, traced):
        self.fill(traced, [0, 0, 0, 1, 2])
        counts = Counter(r.page_id for r in traced.records)
        assert counts == {0: 3, 1: 1, 2: 1}

    def test_io_record_latency(self):
        record = IoRecord(page_id=1, submitted_at_us=2.0, completed_at_us=9.0)
        assert record.latency_us == pytest.approx(7.0)
