"""Device command set vs timing model: batches, gathers, wrappers.

The contract pinned here:

* a batch of :class:`ReadCommand` is *bit-identical* to the same
  ``submit_read`` calls in a loop at the same timestamp — batching
  changes who pays the host-side submit overhead, never the device
  service model;
* a :class:`GatherCommand` occupies an NDP device for media + scan +
  bus time and answers one completion covering all its pages;
* the RAID-0 array stripes both command kinds per member and merges
  gathers at the slowest member's completion;
* the tracing and fault wrappers pass the batched interface through
  (faults inline, one trace row per command).
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import DeviceFault, FaultPlan, FaultySsd, SimulatedSsd, StorageError
from repro.errors import DeviceInterfaceError
from repro.serving import EXECUTORS
from repro.ssd import (
    GatherCommand,
    NdpSsdProfile,
    P5800X,
    P5800X_NDP,
    Raid0Array,
    ReadCommand,
    SsdProfile,
    TracingDevice,
)


def make_device(profile=None, page_size=4096):
    return SimulatedSsd(profile or P5800X, page_size=page_size)


def make_ndp_device(page_size=4096):
    return SimulatedSsd(P5800X_NDP, page_size=page_size)


GATHER = GatherCommand(
    page_ids=(0, 1, 2), wanted_keys=12, candidates=48, payload_bytes=3072
)


class TestCommandVocabulary:
    def test_executor_names(self):
        assert tuple(EXECUTORS) == ("pipelined", "serial", "batched", "ndp")

    def test_read_command_rejects_negative_page(self):
        with pytest.raises(StorageError):
            ReadCommand(-1)

    def test_read_command_is_hashable(self):
        assert ReadCommand(3) == ReadCommand(3)
        assert len({ReadCommand(3), ReadCommand(3), ReadCommand(4)}) == 2

    def test_gather_requires_pages(self):
        with pytest.raises(StorageError, match="at least one page"):
            GatherCommand((), 1, 1, 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"page_ids": (0, -2), "wanted_keys": 1, "candidates": 1,
             "payload_bytes": 1},
            {"page_ids": (0,), "wanted_keys": -1, "candidates": 1,
             "payload_bytes": 1},
            {"page_ids": (0,), "wanted_keys": 1, "candidates": -1,
             "payload_bytes": 1},
            {"page_ids": (0,), "wanted_keys": 1, "candidates": 1,
             "payload_bytes": -1},
        ],
    )
    def test_gather_rejects_negative_fields(self, kwargs):
        with pytest.raises(StorageError):
            GatherCommand(**kwargs)

    def test_num_pages(self):
        assert GATHER.num_pages == 3


class TestBatchEqualsLoop:
    def test_batch_matches_loop_exactly(self):
        batch_dev, loop_dev = make_device(), make_device()
        pages = [7, 3, 7, 11, 0]
        batched = batch_dev.submit_batch(
            [ReadCommand(p) for p in pages], now_us=10.0
        )
        looped = [loop_dev.submit_read(p, 10.0) for p in pages]
        assert batched == looped
        assert batch_dev.stats.reads == loop_dev.stats.reads
        assert batch_dev.stats.bytes_read == loop_dev.stats.bytes_read
        assert batch_dev.stats.total_latency_us == (
            loop_dev.stats.total_latency_us
        )
        assert list(batch_dev.stats.latencies) == list(
            loop_dev.stats.latencies
        )

    @settings(max_examples=50, deadline=None)
    @given(
        pages=st.lists(
            st.integers(min_value=0, max_value=200), min_size=1, max_size=32
        ),
        now=st.floats(min_value=0.0, max_value=1e6),
        latency=st.floats(min_value=0.5, max_value=200.0),
        bandwidth=st.floats(min_value=0.5, max_value=16.0),
    )
    def test_batch_loop_parity_property(self, pages, now, latency, bandwidth):
        profile = SsdProfile(
            "prop", read_latency_us=latency, bandwidth_gb_s=bandwidth,
            queue_depth=64,
        )
        batch_dev = SimulatedSsd(profile)
        loop_dev = SimulatedSsd(profile)
        batched = batch_dev.submit_batch(
            [ReadCommand(p) for p in pages], now
        )
        looped = [loop_dev.submit_read(p, now) for p in pages]
        assert batched == looped
        assert batch_dev.next_completion_time() == (
            loop_dev.next_completion_time()
        )

    def test_batch_respects_queue_depth(self):
        device = make_device(
            SsdProfile("tiny", read_latency_us=5.0, bandwidth_gb_s=7.2,
                       queue_depth=2)
        )
        with pytest.raises(StorageError, match="queue depth"):
            device.submit_batch([ReadCommand(p) for p in range(3)], 0.0)

    def test_unknown_command_rejected(self):
        with pytest.raises(StorageError, match="unknown device command"):
            make_device().submit_batch(["not-a-command"], 0.0)


class TestNdpGatherTiming:
    def test_plain_profile_has_no_gather_engine(self):
        assert not P5800X.supports_gather
        with pytest.raises(StorageError, match="no gather engine"):
            make_device().submit_gather(GATHER, 0.0)

    def test_gather_occupancy_matches_cost_model(self):
        device = make_ndp_device()
        profile = device.profile
        completion = device.submit_gather(GATHER, now_us=100.0)
        media = profile.internal_transfer_time_us(3 * 4096)
        scan = (
            profile.gather_setup_us
            + profile.scan_us_per_candidate * GATHER.candidates
        )
        bus = profile.transfer_time_us(GATHER.payload_bytes)
        expected = 100.0 + profile.read_latency_us + media + scan + bus
        assert completion.completed_at_us == pytest.approx(expected)
        assert completion.pages == 3
        assert completion.page_id == 0

    def test_gather_counts_flash_reads_but_bus_payload(self):
        device = make_ndp_device()
        device.submit_gather(GATHER, 0.0)
        assert device.stats.reads == GATHER.num_pages
        assert device.stats.bytes_read == GATHER.payload_bytes
        assert device.stats.gathers == 1

    def test_back_to_back_gathers_queue_on_occupancy(self):
        device = make_ndp_device()
        first = device.submit_gather(GATHER, 0.0)
        second = device.submit_gather(GATHER, 0.0)
        occupancy = (
            first.completed_at_us - device.profile.read_latency_us
        )
        assert second.completed_at_us == pytest.approx(
            first.completed_at_us + occupancy
        )

    def test_internal_bandwidth_beats_bus_for_amplified_reads(self):
        """Moving pages internally must cost less than over the bus."""
        ndp = P5800X_NDP
        raw = 8 * 4096
        assert ndp.internal_transfer_time_us(raw) < (
            ndp.transfer_time_us(raw)
        )

    def test_from_base_inherits_timing(self):
        derived = NdpSsdProfile.from_base(P5800X)
        assert derived.supports_gather
        assert derived.read_latency_us == P5800X.read_latency_us
        assert derived.bandwidth_gb_s == P5800X.bandwidth_gb_s
        assert derived.queue_depth == P5800X.queue_depth

    def test_ndp_validation(self):
        with pytest.raises(Exception):
            NdpSsdProfile.from_base(P5800X, gather_setup_us=-1.0)
        with pytest.raises(Exception):
            NdpSsdProfile.from_base(P5800X, internal_bandwidth_gb_s=0.0)


class TestScaledQueueDepth:
    def test_scaled_keeps_depth_by_default(self):
        scaled = P5800X.scaled("2x", bandwidth_factor=2.0)
        assert scaled.queue_depth == P5800X.queue_depth
        assert scaled.bandwidth_gb_s == pytest.approx(
            2.0 * P5800X.bandwidth_gb_s
        )

    def test_scaled_queue_depth_override(self):
        scaled = P5800X.scaled("2x", bandwidth_factor=2.0, queue_depth=256)
        assert scaled.queue_depth == 256

    def test_scaled_matches_real_array_depth_when_overridden(self):
        array = Raid0Array(P5800X, members=2)
        standin = P5800X.scaled(
            "2x", bandwidth_factor=2.0, queue_depth=array.queue_depth
        )
        assert standin.queue_depth == 2 * P5800X.queue_depth

    def test_scaled_preserves_ndp_fields(self):
        scaled = P5800X_NDP.scaled("ndp-2x", bandwidth_factor=2.0)
        assert scaled.supports_gather
        assert scaled.gather_setup_us == P5800X_NDP.gather_setup_us


class TestRaidBatch:
    def test_batch_parity_with_loop(self):
        batch_arr = Raid0Array(P5800X, members=2)
        loop_arr = Raid0Array(P5800X, members=2)
        pages = [0, 1, 2, 3, 4, 5, 6, 7]
        batched = batch_arr.submit_batch(
            [ReadCommand(p) for p in pages], 0.0
        )
        looped = [loop_arr.submit_read(p, 0.0) for p in pages]
        assert batched == looped

    def test_gather_splits_by_stripe(self):
        array = Raid0Array(P5800X_NDP, members=2)
        command = GatherCommand(
            page_ids=(0, 1, 2, 3), wanted_keys=16, candidates=64,
            payload_bytes=4096,
        )
        merged = array.submit_batch([command], 0.0)[0]
        assert merged.pages == 4
        stats = array.stats
        # Each member gathered its own two pages.
        assert stats.gathers == 2
        assert stats.reads == 4
        # Candidates/payload shares are conserved exactly.
        assert stats.bytes_read == command.payload_bytes
        # The merged completion is the slowest member's.
        assert merged.completed_at_us == array.drain()

    def test_single_member_gather_is_passthrough(self):
        array = Raid0Array(P5800X_NDP, members=2)
        command = GatherCommand(
            page_ids=(0, 2, 4), wanted_keys=6, candidates=12,
            payload_bytes=1536,
        )
        solo = SimulatedSsd(P5800X_NDP)
        expected = solo.submit_gather(command, 0.0)
        merged = array.submit_gather(command, 0.0)
        assert merged.completed_at_us == expected.completed_at_us
        assert merged.pages == expected.pages


class TestTracingBatch:
    def test_batch_records_one_row_per_command(self):
        traced = TracingDevice(make_device())
        traced.submit_batch([ReadCommand(p) for p in (5, 6, 5)], 0.0)
        assert [r.page_id for r in traced.records] == [5, 6, 5]
        assert traced.page_access_counts()[5] == 2

    def test_gather_records_on_first_page(self):
        traced = TracingDevice(make_ndp_device())
        traced.submit_batch([GATHER], 0.0)
        assert len(traced.records) == 1
        assert traced.records[0].page_id == GATHER.page_ids[0]

    def test_overhead_passthrough(self):
        profile = SsdProfile(
            "oh", read_latency_us=5.0, bandwidth_gb_s=7.2,
            submit_overhead_us=1.5,
        )
        traced = TracingDevice(make_device(profile))
        assert traced.submit_overhead_us == 1.5


class TestFaultyBatch:
    def test_mount_requires_batched_interface(self):
        class LegacyDevice:
            def submit_read(self, page_id, now_us):  # pragma: no cover
                raise AssertionError("never called")

        with pytest.raises(DeviceInterfaceError, match="submit_batch"):
            FaultySsd(LegacyDevice(), FaultPlan())

    def test_noop_plan_batch_is_passthrough(self):
        faulty = FaultySsd(make_device(), FaultPlan())
        plain = make_device()
        pages = [1, 2, 3]
        commands = [ReadCommand(p) for p in pages]
        assert faulty.submit_batch(commands, 0.0) == plain.submit_batch(
            commands, 0.0
        )

    def test_batch_returns_faults_inline(self):
        plan = FaultPlan(seed=3, read_error_rate=0.5)
        faulty = FaultySsd(make_device(), plan)
        results = faulty.submit_batch(
            [ReadCommand(p) for p in range(64)], 0.0
        )
        faults = [r for r in results if isinstance(r, DeviceFault)]
        completions = [r for r in results if not isinstance(r, DeviceFault)]
        assert len(results) == 64
        assert faults, "0.5 error rate over 64 reads must fault"
        assert completions, "and some reads must survive"
        # Successful reads are real completions on the inner device.
        assert faulty.stats.reads == len(completions)

    def test_gather_faults_whole_command(self):
        plan = FaultPlan(seed=1, dead_page_rate=1.0)
        faulty = FaultySsd(make_ndp_device(), plan)
        with pytest.raises(DeviceFault):
            faulty.submit_gather(GATHER, 0.0)
        assert faulty.stats.gathers == 0

    def test_gather_corrupt_poisons_merged_completion(self):
        plan = FaultPlan(seed=2, corrupt_rate=1.0)
        faulty = FaultySsd(make_ndp_device(), plan)
        completion = faulty.submit_gather(GATHER, 0.0)
        assert faulty.is_corrupt(completion)
        # The verdict is consumed.
        assert not faulty.is_corrupt(completion)

    def test_raid_inside_faulty_supports_batches(self):
        faulty = FaultySsd(Raid0Array(P5800X, members=2), FaultPlan())
        results = faulty.submit_batch(
            [ReadCommand(p) for p in range(4)], 0.0
        )
        assert len(results) == 4
        assert all(not isinstance(r, DeviceFault) for r in results)
