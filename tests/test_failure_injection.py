"""Failure-injection tests: tight queues, malformed artifacts, bad inputs.

A production embedding store must degrade predictably, not crash: tiny
submission queues stall the CPU instead of erroring, corrupt artifacts
fail loudly at load time, and every invalid request is rejected at the
API boundary with a typed error.
"""

import pytest

from repro import (
    EngineConfig,
    PageLayout,
    PlacementError,
    Query,
    QueryTrace,
    ReproError,
    ServingEngine,
    ServingError,
    SimulatedSsd,
    StorageError,
    WorkloadError,
)
from repro.bundle import load_bundle
from repro.serving import PipelinedExecutor, SerialExecutor
from repro.serving.selection import SelectionOutcome, SelectionStep
from repro.ssd import SsdProfile
from repro.workloads import load_trace
from tests.test_placement import write_layout_record


def tiny_queue_device(queue_depth=2, latency=10.0):
    profile = SsdProfile(
        "tiny-queue",
        read_latency_us=latency,
        bandwidth_gb_s=0.004096,  # 1 page per 1000 us
        queue_depth=queue_depth,
    )
    return SimulatedSsd(profile, page_size=4096)


def many_step_outcome(steps=8):
    return SelectionOutcome.from_steps(
        [
            SelectionStep(page_id=p, covered=(p,), candidates_examined=1)
            for p in range(steps)
        ],
        sorted_keys=steps,
    )


class TestQueueBackpressure:
    @pytest.mark.parametrize("executor_cls", [PipelinedExecutor, SerialExecutor])
    def test_full_queue_stalls_instead_of_crashing(self, executor_cls):
        device = tiny_queue_device(queue_depth=2)
        outcome = many_step_outcome(steps=8)
        result = executor_cls().execute(outcome, device, 0.0)
        assert result.pages_read == 8
        # Backpressure serializes on the 1-page-per-1000us bandwidth:
        # the query finishes only after the last slot.
        assert result.latency_us > 6000.0

    def test_backpressure_advances_clock_to_completion(self):
        device = tiny_queue_device(queue_depth=1)
        outcome = many_step_outcome(steps=3)
        result = PipelinedExecutor().execute(outcome, device, 0.0)
        assert device.inflight == 0 or device.inflight <= 1
        assert result.finish_us >= 2000.0

    def test_engine_serves_with_tiny_queue(self):
        layout = PageLayout(
            8, 4, [(0, 1, 2, 3), (4, 5, 6, 7)]
        )
        engine = ServingEngine(layout, EngineConfig(cache_ratio=0.0))
        engine.device = tiny_queue_device(queue_depth=1)
        trace = QueryTrace(8, [Query((0, 4))] * 5)
        report = engine.serve_trace(trace)
        assert report.num_queries == 5

    def test_direct_submit_still_enforces_depth(self):
        # The raw device API (no executor) keeps its hard failure mode.
        device = tiny_queue_device(queue_depth=1)
        device.submit_read(0, 0.0)
        with pytest.raises(StorageError):
            device.submit_read(1, 0.0)


class TestCorruptArtifacts:
    def test_layout_json_with_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "layout.json"
        write_layout_record(
            path,
            '{"num_keys": 4, "capacity": 4, "num_base_pages": 1, '
            '"pages": [[0, 1]]}',
        )
        with pytest.raises(PlacementError, match="on no page"):
            load_bundle(path)

    def test_layout_json_with_oversized_page_rejected(self, tmp_path):
        path = tmp_path / "layout.json"
        write_layout_record(
            path,
            '{"num_keys": 3, "capacity": 2, "num_base_pages": 1, '
            '"pages": [[0, 1, 2]]}',
        )
        with pytest.raises(PlacementError):
            load_bundle(path)

    def test_truncated_trace_rejected(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("#keys 4\n0 1\n9 9\n")
        with pytest.raises((WorkloadError, ReproError)):
            load_trace(path)

    def test_binary_garbage_trace_rejected(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_bytes(b"\x00\x01binary\xff")
        with pytest.raises((WorkloadError, UnicodeDecodeError)):
            load_trace(path)


class TestApiBoundaries:
    def test_unknown_key_rejected_by_engine(self):
        layout = PageLayout(4, 4, [(0, 1, 2, 3)])
        engine = ServingEngine(layout, EngineConfig(cache_ratio=0.0))
        with pytest.raises(ServingError):
            engine.serve_query(Query((99,)))

    def test_all_errors_share_base_class(self):
        from repro import (
            CacheError,
            ConfigError,
            HypergraphError,
            PartitionError,
        )

        for error in (
            CacheError,
            ConfigError,
            HypergraphError,
            PartitionError,
            PlacementError,
            ServingError,
            StorageError,
            WorkloadError,
        ):
            assert issubclass(error, ReproError)
