"""I/O tracing and device-level statistics.

Wraps any simulated device (a drive or a fault wrapper) and records every
read — submission time, page, completion time — so tests can check what
the aggregate counters can't: which commands reached the device, in what
shape, and how often each page was read.  The wrapper is transparent: it
exposes the same submit/poll interface, so it drops into a
:class:`~repro.serving.ServingEngine` by assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

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
