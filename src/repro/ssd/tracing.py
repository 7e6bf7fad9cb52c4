"""I/O tracing and device-level statistics.

Wraps any simulated device (single drive or RAID array) and records every
read — submission time, page, completion time — so experiments can answer
device-level questions the aggregate counters can't: page-access skew
(how hot are the hottest pages?), queue-depth over time, and utilization
windows.  The wrapper is transparent: it exposes the same submit/poll
interface, so it drops into a :class:`~repro.serving.ServingEngine` by
assignment.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import StorageError
from .commands import PacedReadCommand
from .device import Completion, run_paced_reads


@dataclass
class IoRecord:
    """One traced read."""

    page_id: int
    submitted_at_us: float
    completed_at_us: float

    @property
    def latency_us(self) -> float:
        """Device latency of this read."""
        return self.completed_at_us - self.submitted_at_us


class TracingDevice:
    """Transparent submit/poll wrapper that records every read."""

    def __init__(self, device, max_records: Optional[int] = None) -> None:
        if max_records is not None and max_records <= 0:
            raise StorageError(
                f"max_records must be positive or None, got {max_records}"
            )
        self._device = device
        self._max_records = max_records
        self.records: List[IoRecord] = []
        self.dropped = 0

    # -- pass-through interface ------------------------------------------------

    def submit_read(self, page_id: int, now_us: float) -> Completion:
        completion = self._device.submit_read(page_id, now_us)
        self._record(page_id, now_us, completion)
        return completion

    def submit_batch(self, commands, now_us: float):
        """Submit a command batch, recording one trace row per command.

        Gather commands trace as one record on their first page (the
        completion covers all of the gather's pages; ``Completion.pages``
        carries the count for anyone re-deriving amplification).  A
        paced read is the exception: each of its pages has its own
        submit time, so the wrapper runs the reference loop over its own
        ``submit_read`` and records one row per page.
        """
        completions = []
        for command in commands:
            if isinstance(command, PacedReadCommand):
                completions.append(run_paced_reads(self, command, now_us))
                continue
            (completion,) = self._device.submit_batch([command], now_us)
            if isinstance(completion, Completion):
                self._record(completion.page_id, now_us, completion)
            completions.append(completion)
        return completions

    def _record(
        self, page_id: int, now_us: float, completion: Completion
    ) -> None:
        if (
            self._max_records is None
            or len(self.records) < self._max_records
        ):
            self.records.append(
                IoRecord(
                    page_id=page_id,
                    submitted_at_us=now_us,
                    completed_at_us=completion.completed_at_us,
                )
            )
        else:
            self.dropped += 1

    def poll(self, now_us: float):
        return self._device.poll(now_us)

    def drain(self) -> float:
        return self._device.drain()

    def next_completion_time(self):
        return self._device.next_completion_time()

    @property
    def stats(self):
        return self._device.stats

    @property
    def profile(self):
        return self._device.profile

    @property
    def page_size(self):
        return self._device.page_size

    @property
    def inflight(self) -> int:
        return self._device.inflight

    @property
    def queue_depth(self) -> int:
        return self._device.queue_depth

    @property
    def submit_overhead_us(self) -> float:
        return getattr(self._device, "submit_overhead_us", 0.0)

    def reset_stats(self) -> None:
        self._device.reset_stats()

    # -- analysis -------------------------------------------------------------------

    def page_access_counts(self) -> Counter:
        """How many times each page was read."""
        return Counter(r.page_id for r in self.records)

    def hot_page_share(self, fraction: float = 0.1) -> float:
        """Share of reads hitting the hottest ``fraction`` of touched pages."""
        if not 0.0 < fraction <= 1.0:
            raise StorageError(f"fraction must be in (0, 1], got {fraction}")
        counts = self.page_access_counts()
        if not counts:
            return 0.0
        total = sum(counts.values())
        k = max(1, int(len(counts) * fraction))
        hottest = sorted(counts.values(), reverse=True)[:k]
        return sum(hottest) / total

    def latency_percentiles(
        self, percentiles: Tuple[float, ...] = (50.0, 99.0)
    ) -> Dict[float, float]:
        """Observed device-latency percentiles."""
        from ..utils.reservoir import percentile

        latencies = [r.latency_us for r in self.records]
        return {p: percentile(latencies, p) for p in percentiles}

    def queue_depth_timeline(self, bucket_us: float = 10.0) -> List[Tuple[float, int]]:
        """Mean in-flight reads per time bucket (from the trace)."""
        if bucket_us <= 0:
            raise StorageError(f"bucket_us must be positive, got {bucket_us}")
        if not self.records:
            return []
        events: List[Tuple[float, int]] = []
        for record in self.records:
            events.append((record.submitted_at_us, 1))
            events.append((record.completed_at_us, -1))
        events.sort()
        end = events[-1][0]
        timeline: List[Tuple[float, int]] = []
        depth = 0
        index = 0
        t = events[0][0]
        while t <= end:
            edge = t + bucket_us
            peak = depth
            while index < len(events) and events[index][0] < edge:
                depth += events[index][1]
                peak = max(peak, depth)
                index += 1
            timeline.append((t, peak))
            t = edge
        return timeline
