"""The paced-read command: one device call per query, same numbers.

``PacedReadCommand`` carries a query's reads plus the host CPU gap before
each; its meaning is the per-page loop ``run_paced_reads`` (stall while
the queue is full, ``submit_read``, poll once at the end).  Pinned here:

* ``SimulatedSsd`` fuses that loop into one pass and must leave the same
  completion, counters, reservoir, in-flight set, tickets and service
  cursor as the reference loop on a twin drive;
* the serial / pipelined / batched executors — three gap vectors over
  one run function — report the same ``ExecutionResult`` as the per-page
  executors they replace (kept below as the oracle) on every device
  kind, queue depth and submit overhead, with reads already in flight;
* wrappers answer the command per page: a ``TracingDevice`` still
  records one row per page at that page's own submit time, and an
  injected fault still raises out of ``execute``;
* serial and pipelined accumulate ``selection_us`` identically.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import EngineConfig, PageLayout, Query, ServingEngine
from repro.errors import DeviceFault, StorageError
from repro.faults import FaultPlan, FaultySsd
from repro.serving import (
    BatchedExecutor,
    CpuCostModel,
    ExecutionResult,
    PipelinedExecutor,
    SerialExecutor,
)
from repro.serving.selection import SelectionOutcome, SelectionStep
from repro.ssd import (
    PacedReadCommand,
    Raid0Array,
    SimulatedSsd,
    SsdProfile,
    TracingDevice,
)
from repro.ssd.device import run_paced_reads, submit_with_backpressure

EXECUTORS = {
    "serial": SerialExecutor,
    "pipelined": PipelinedExecutor,
    "batched": BatchedExecutor,
}
SPIKES = FaultPlan(seed=3, latency_spike_rate=0.4, latency_spike_us=25.0)


def profile(queue_depth=128, overhead=0.0):
    return SsdProfile(
        "paced",
        read_latency_us=10.0,
        bandwidth_gb_s=4.096,  # 1 µs per 4 KiB page
        queue_depth=queue_depth,
        submit_overhead_us=overhead,
    )


def make_device(kind, queue_depth=128, overhead=0.0):
    prof = profile(queue_depth, overhead)
    if kind == "raid":
        return Raid0Array(prof, members=2)
    drive = SimulatedSsd(prof)
    if kind == "traced":
        return TracingDevice(drive)
    if kind == "faulty":
        return FaultySsd(drive, SPIKES)
    return drive


def reference_execute(kind, cost, outcome, device, start_us):
    """The per-page executors this PR fused, kept as the oracle."""
    sort_us = cost.sort_time_us(outcome.sorted_keys)
    now = start_us + (cost.query_base_us + sort_us)
    overhead = getattr(device, "submit_overhead_us", 0.0)
    selection_us = 0.0
    if kind != "pipelined":
        for candidates in outcome.candidate_counts:
            selection_us += cost.step_time_us(candidates)
        now += selection_us
    latest = now
    for index, (page_id, candidates) in enumerate(
        zip(outcome.pages, outcome.candidate_counts)
    ):
        if kind == "pipelined":
            cpu = cost.step_time_us(candidates)
            selection_us += cpu
            now += cpu + overhead
        elif kind == "serial" or index == 0:
            now += overhead
        completion, now = submit_with_backpressure(device, page_id, now)
        latest = max(latest, completion.completed_at_us)
    finish = max(now, latest)
    device.poll(finish)
    return ExecutionResult(
        start_us=start_us,
        finish_us=finish,
        sort_us=sort_us,
        selection_us=selection_us,
        io_wait_us=finish - now,
        pages_read=outcome.num_steps,
    )


def outcome_of(pages, candidates):
    steps = tuple(
        SelectionStep(page_id=p, covered=(i,), candidates_examined=c)
        for i, (p, c) in enumerate(zip(pages, candidates))
    )
    return SelectionOutcome(steps, sorted_keys=len(steps))


def device_state(device):
    """Everything a later query could observe of ``device``."""
    stats = device.stats
    return (
        stats.reads,
        stats.bytes_read,
        stats.total_latency_us,
        stats.busy_until_us,
        stats.latencies.observed,
        stats.latencies.values(),
        device.inflight,
        device.next_completion_time(),
    )


def striped(draws, offset=0):
    """Page ids alternating parity, so a 2-member array fills evenly."""
    return [2 * v + (offset + i) % 2 for i, v in enumerate(draws)]


page_draws = st.lists(st.integers(0, 40), min_size=1, max_size=12)


class TestFusedLoopEqualsReference:
    @settings(max_examples=200, deadline=None)
    @given(
        queue_depth=st.sampled_from([1, 2, 3, 128]),
        older=st.lists(st.integers(0, 40), max_size=3),
        pages=page_draws,
        gaps=st.lists(st.floats(0.0, 30.0), min_size=12, max_size=12),
        now=st.floats(0.0, 1e3),
    )
    def test_same_completion_and_device_state(
        self, queue_depth, older, pages, gaps, now
    ):
        fused, twin = make_device("ssd", queue_depth), make_device(
            "ssd", queue_depth
        )
        for device in (fused, twin):
            for page in older[:queue_depth]:
                device.submit_read(page, 0.5 * now)
        command = PacedReadCommand(pages, gaps[: len(pages)])
        (answer,) = fused.submit_batch([command], now)
        assert answer == run_paced_reads(twin, command, now)
        assert answer.pages == len(pages)
        assert device_state(fused) == device_state(twin)
        # The next read sees the same ticket counter and service cursor.
        later = answer.completed_at_us
        assert fused.submit_read(0, later) == twin.submit_read(0, later)

    def test_stall_advances_host_clock_past_own_reads(self):
        device = make_device("ssd", queue_depth=2)
        (answer,) = device.submit_batch(
            [PacedReadCommand([0, 1, 2, 3], [0.0] * 4)], 0.0
        )
        # The first two complete at 10 and 11 µs; the third submission
        # stalls until the first completes, the fourth until the second.
        assert answer.submitted_at_us == 11.0
        assert answer.completed_at_us == 21.0
        assert device.inflight == 0
        assert device.stats.reads == 4

    def test_reservoir_past_capacity(self):
        fused, twin = make_device("ssd"), make_device("ssd")
        rng = random.Random(5)
        now = 0.0
        for _ in range(600):  # 600 × 8 reads > the 4096-sample reservoir
            pages = [rng.randrange(100) for _ in range(8)]
            gaps = [rng.random() for _ in range(8)]
            command = PacedReadCommand(pages, gaps)
            (answer,) = fused.submit_batch([command], now)
            assert answer == run_paced_reads(twin, command, now)
            now = answer.completed_at_us - 5.0
        assert fused.stats.latencies.observed == 4800
        assert device_state(fused) == device_state(twin)

    def test_command_validation(self):
        with pytest.raises(StorageError, match="at least one page"):
            PacedReadCommand([], [])
        with pytest.raises(StorageError, match="gaps"):
            PacedReadCommand([1, 2], [0.0])
        with pytest.raises(StorageError, match="page id"):
            PacedReadCommand([1, -2], [0.0, 0.0])
        with pytest.raises(StorageError, match="time must be"):
            make_device("ssd").submit_batch(
                [PacedReadCommand([1], [0.0])], -1.0
            )


class TestExecutorsEqualPerPageOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(sorted(EXECUTORS)),
        device_kind=st.sampled_from(["ssd", "raid", "traced", "faulty"]),
        queue_depth=st.sampled_from([1, 2, 128]),
        overhead=st.sampled_from([0.0, 1.5]),
        older=st.lists(st.integers(0, 40), max_size=2),
        queries=st.lists(
            st.tuples(
                page_draws,
                st.lists(st.integers(0, 30), min_size=12, max_size=12),
                st.floats(0.0, 200.0),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_same_results_stats_and_inflight(
        self, kind, device_kind, queue_depth, overhead, older, queries
    ):
        new = make_device(device_kind, queue_depth, overhead)
        old = make_device(device_kind, queue_depth, overhead)
        older = striped(older[:queue_depth])
        for device in (new, old):
            for page in older:
                device.submit_read(page, 0.0)
        cost = CpuCostModel()
        executor = EXECUTORS[kind](cost)
        offset = len(older)
        finish_us = 0.0
        for draws, candidates, start_us in queries:
            if device_kind == "raid":
                # The array backpressures on the aggregate depth only
                # (see Raid0Array.queue_depth): a clock running backwards
                # over a shallow member overflows it on either path.
                start_us = max(start_us, finish_us)
            pages = striped(draws, offset)
            offset += len(pages)
            outcome = outcome_of(pages, candidates)
            result = executor.execute(outcome, new, start_us)
            assert result == reference_execute(
                kind, cost, outcome, old, start_us
            )
            assert device_state(new) == device_state(old)
            finish_us = result.finish_us
        if device_kind == "traced":
            assert new.records == old.records
            assert len(new.records) == new.stats.reads

    @pytest.mark.parametrize("kind", sorted(EXECUTORS))
    def test_no_pages_still_polls(self, kind):
        device = make_device("ssd")
        device.submit_read(0, 0.0)
        result = EXECUTORS[kind]().execute(
            SelectionOutcome((), sorted_keys=0), device, 50.0
        )
        assert result.pages_read == 0
        assert result.finish_us == 50.0 + CpuCostModel().query_base_us
        assert device.inflight == 0

    def test_serial_and_pipelined_agree_on_selection_us(self):
        # Step costs whose float sum depends on the order and on
        # compensation: left-to-right is the one definition.
        candidates = [7, 1, 30, 2, 19, 3, 11, 5, 23, 13, 29]
        outcome = outcome_of(list(range(len(candidates))), candidates)
        cost = CpuCostModel(candidate_examine_us=0.1, step_base_us=0.3)
        expected = 0.0
        for count in candidates:
            expected += cost.step_time_us(count)
        results = [
            EXECUTORS[kind](cost).execute(outcome, make_device("ssd"), 0.0)
            for kind in sorted(EXECUTORS)
        ]
        assert {r.selection_us for r in results} == {expected}
        assert cost.selection_time_us(outcome) == expected

    def test_injected_fault_raises_out_of_execute(self):
        plan = FaultPlan(seed=1, read_error_rate=1.0)
        device = FaultySsd(SimulatedSsd(profile()), plan)
        with pytest.raises(DeviceFault):
            PipelinedExecutor().execute(outcome_of([4, 5], [1, 1]), device, 0.0)


class TestEngineOverTracingDevice:
    def build(self, executor="pipelined"):
        pages = [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11), (2, 6, 10, 0)]
        layout = PageLayout(12, 4, pages, num_base_pages=3)
        return ServingEngine(
            layout,
            EngineConfig(
                cache_ratio=0.0,
                profile=profile(queue_depth=4),
                executor=executor,
                threads=2,
            ),
        )

    QUERIES = [
        Query((0, 4, 8)),
        Query((1, 5, 9, 11)),
        Query((2, 6, 10)),
        Query((3, 7)),
    ] * 25

    @pytest.mark.parametrize("executor", ["pipelined", "serial"])
    def test_report_equal_and_one_record_per_page(self, executor):
        bare = self.build(executor)
        traced = self.build(executor)
        traced.device = TracingDevice(traced.device)
        report = traced.serve_trace(self.QUERIES)
        assert report.as_dict() == bare.serve_trace(self.QUERIES).as_dict()
        records = traced.device.records
        assert len(records) == report.total_pages_read
        assert [r.page_id for r in records[:3]] == list(
            traced.selector.select((0, 4, 8)).pages
        )

    def test_each_page_keeps_its_own_submit_time(self):
        engine = self.build("pipelined")
        engine.device = TracingDevice(engine.device)
        query = Query((0, 4, 8))
        outcome = engine.selector.select(query.unique_keys())
        engine.serve_query(query, start_us=2.0)
        cost = engine.config.cost_model
        now = 2.0 + (
            cost.query_base_us + cost.sort_time_us(outcome.sorted_keys)
        )
        expected = []
        for candidates in outcome.candidate_counts:
            now += cost.step_time_us(candidates)
            expected.append(now)
        submitted = [r.submitted_at_us for r in engine.device.records]
        assert submitted == expected
        assert len(set(submitted)) == outcome.num_steps > 1
