"""Submission-queue backpressure: stalls, clock advance, full queues.

``submit_with_backpressure`` mirrors an SPDK submitter: when the queue
is full, the submitting CPU polls completions until a slot frees,
advancing its clock to that completion.  It is the stall-and-submit step
of the reference loop behind ``PacedReadCommand``
(``repro.ssd.device.run_paced_reads``): the executors no longer call it
page by page, but every wrapper device does, the NDP executor submits
its gather through it, and the fused loop of ``SimulatedSsd`` is tested
against it (``tests/test_paced_reads.py``).
Pinned here:

* the queue-depth bound is never violated, whatever the page stream;
* a stalled submission's clock advances exactly to the freed
  completion's time (never backwards, never short);
* a device that reports a full queue but no pending completion (a
  broken stub — impossible for the real model) does not hang the
  helper;
* the NDP executor's one gather, submitted on a full queue, waits for
  the freed slot like any read;
* end-to-end, a depth-2 device serves every query with full coverage
  under both the serial and the batched executor.
"""

import hypothesis.strategies as st
import dataclasses

import pytest
from hypothesis import given, settings

from repro import EngineConfig, PageLayout, Query, ServingEngine, SimulatedSsd
from repro.serving import CpuCostModel
from repro.serving.executor import NdpExecutor, build_gather_command
from repro.serving.selection import SelectionOutcome, SelectionStep
from repro.ssd import P5800X_NDP, Completion, SsdProfile
from repro.ssd.device import submit_with_backpressure

TINY = SsdProfile(
    "tiny-queue", read_latency_us=10.0, bandwidth_gb_s=4.096, queue_depth=2
)


def tiny_device(queue_depth=2):
    profile = SsdProfile(
        "tiny-queue",
        read_latency_us=10.0,
        bandwidth_gb_s=4.096,  # 1 µs per 4 KiB page
        queue_depth=queue_depth,
    )
    return SimulatedSsd(profile)


class TestSingleSubmitBackpressure:
    def test_stall_advances_clock_to_freed_completion(self):
        device = tiny_device(queue_depth=1)
        first, now = submit_with_backpressure(device, 0, 0.0)
        assert now == 0.0
        # The queue is full: the next submission must stall until the
        # first read completes, and submit at exactly that time.
        second, now = submit_with_backpressure(device, 1, 0.0)
        assert now == first.completed_at_us
        assert second.submitted_at_us == first.completed_at_us

    def test_no_stall_below_depth(self):
        device = tiny_device(queue_depth=4)
        for page in range(4):
            _, now = submit_with_backpressure(device, page, 5.0)
            assert now == 5.0

    @settings(max_examples=50, deadline=None)
    @given(
        pages=st.lists(
            st.integers(min_value=0, max_value=50), min_size=1, max_size=40
        ),
        queue_depth=st.integers(min_value=1, max_value=4),
    )
    def test_queue_bound_and_monotone_clock(self, pages, queue_depth):
        device = tiny_device(queue_depth=queue_depth)
        now = 0.0
        completions = []
        for page in pages:
            assert device.inflight <= queue_depth
            completion, next_now = submit_with_backpressure(
                device, page, now
            )
            assert next_now >= now  # the clock never runs backwards
            assert completion.submitted_at_us == next_now
            now = next_now
            completions.append(completion)
        assert len(completions) == len(pages)
        # Every accepted read eventually retires.
        device.drain()
        assert device.inflight == 0


class BrokenFullQueueDevice:
    """A stub reporting a full queue with nothing in flight.

    The real device model cannot reach this state (a full queue implies
    a pending completion), but the helpers must not hang on a wrapper
    that misreports it.
    """

    queue_depth = 0
    inflight = 0

    def __init__(self):
        self.submissions = []
        self._ticket = 0

    def next_completion_time(self):
        return None

    def poll(self, now_us):  # pragma: no cover - break precedes polling
        return []

    def submit_read(self, page_id, now_us):
        self._ticket += 1
        self.submissions.append((page_id, now_us))
        return Completion(self._ticket, page_id, now_us, now_us + 1.0)


class TestBrokenDeviceDoesNotHang:
    def test_single_submit_breaks_out(self):
        device = BrokenFullQueueDevice()
        completion, now = submit_with_backpressure(
            device, 7, 2.0
        )
        assert now == 2.0
        assert completion.page_id == 7
        assert device.submissions == [(7, 2.0)]


class TestNdpGatherStalls:
    def test_gather_on_a_full_queue_waits_for_the_freed_slot(self):
        outcome = SelectionOutcome.from_steps(
            [
                SelectionStep(page_id=p, covered=(p,), candidates_examined=1)
                for p in range(3)
            ],
            sorted_keys=3,
        )
        executor = NdpExecutor(
            CpuCostModel(
                sort_per_key_us=0.0,
                candidate_examine_us=0.0,
                step_base_us=0.0,
                query_base_us=0.0,
            )
        )
        device = SimulatedSsd(dataclasses.replace(P5800X_NDP, queue_depth=1))
        gather = build_gather_command(outcome, executor.spec)
        (blocker,) = device.submit_batch([gather], 0.0)
        result = executor.execute(outcome, device, 0.0)
        # Submitted at the blocker's completion, not at 0.
        submitted_at = result.finish_us - result.io_wait_us
        assert submitted_at == pytest.approx(blocker.completed_at_us)
        assert result.finish_us > blocker.completed_at_us
        assert device.inflight == 0


class TestEndToEndTinyQueue:
    @pytest.mark.parametrize("executor", ["serial", "batched"])
    def test_depth_two_device_serves_fully(self, executor):
        pages = [
            (0, 1, 2, 3),
            (4, 5, 6, 7),
            (8, 9, 10, 11),
            (12, 13, 14, 15),
        ]
        layout = PageLayout(16, 4, pages, num_base_pages=4)
        engine = ServingEngine(
            layout,
            EngineConfig(
                cache_ratio=0.0,
                profile=TINY,
                executor=executor,
                threads=1,
            ),
        )
        queries = [Query(tuple(range(16)))] * 20
        report = engine.serve_trace(queries)
        assert report.coverage() == 1.0
        assert report.total_pages_read == 4 * len(queries)

    def test_paged_equals_batched_through_stalls(self):
        """Zero overhead: stalled batched serving is still bit-identical."""
        pages = [
            (0, 1, 2, 3),
            (4, 5, 6, 7),
            (8, 9, 10, 11),
            (12, 13, 14, 15),
        ]
        layout = PageLayout(16, 4, pages, num_base_pages=4)

        def build(executor):
            return ServingEngine(
                layout,
                EngineConfig(
                    cache_ratio=0.0,
                    profile=TINY,
                    executor=executor,
                    threads=1,
                ),
            )

        queries = [Query(tuple(range(16)))] * 20
        assert build("serial").serve_trace(queries) == build(
            "batched"
        ).serve_trace(queries)
