"""RAID-0 striping across simulated drives.

Figure 17b of the paper evaluates a RAID-0 of two P5800X drives.  Striping
by page id spreads reads round-robin over members, so aggregate bandwidth
scales with the member count while per-read latency stays that of a single
drive.  The array exposes the same submit/poll interface as a single
:class:`~repro.ssd.device.SimulatedSsd` — including the batched command
path — so serving code is agnostic.

``submit_batch`` routes each command to the member owning its stripe; a
:class:`~repro.ssd.commands.GatherCommand` is split into per-member
sub-gathers (each member parses its own pages with its own controller)
and answered with one merged completion at the slowest member's time.
A :class:`~repro.ssd.commands.PacedReadCommand` is striped read by read
through :func:`~repro.ssd.device.run_paced_reads`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..errors import StorageError
from .commands import (
    DeviceCommand,
    GatherCommand,
    PacedReadCommand,
    ReadCommand,
)
from .device import Completion, DeviceStats, SimulatedSsd, run_paced_reads
from .profiles import SsdProfile


class Raid0Array:
    """Page-granular RAID-0 over ``n`` identical simulated drives."""

    def __init__(
        self, profile: SsdProfile, members: int = 2, page_size: int = 4096
    ) -> None:
        if members <= 0:
            raise StorageError(f"members must be positive, got {members}")
        self.profile = profile
        self.page_size = page_size
        self._members: List[SimulatedSsd] = [
            SimulatedSsd(profile, page_size) for _ in range(members)
        ]

    @property
    def members(self) -> int:
        """Number of drives in the array."""
        return len(self._members)

    @property
    def inflight(self) -> int:
        """Reads in flight across all members."""
        return sum(m.inflight for m in self._members)

    @property
    def queue_depth(self) -> int:
        """Aggregate submission-queue capacity across members.

        Under round-robin striping the array accepts the per-member
        floor times the member count before any queue must overflow —
        ``min(member depth) * members``.  Caveat: this is exact only for
        evenly striped access; a page-id distribution skewed onto one
        member can still overflow that member's own queue below this
        aggregate.  Callers that need exactness should backpressure per
        member (the executors backpressure on the aggregate, which
        suffices for round-robin-ish access).  Note also that a profile
        pre-scaled to stand in for an array (``SsdProfile.scaled``)
        carries a *single* drive's depth unless overridden there.
        """
        return min(m.queue_depth for m in self._members) * len(self._members)

    @property
    def submit_overhead_us(self) -> float:
        """Host CPU per submitted command (same stack for every member)."""
        return self.profile.submit_overhead_us

    def _member_for(self, page_id: int) -> SimulatedSsd:
        return self._members[page_id % len(self._members)]

    def submit_read(self, page_id: int, now_us: float) -> Completion:
        """Submit a read to the member owning ``page_id``'s stripe."""
        return self._member_for(page_id).submit_read(page_id, now_us)

    def submit_gather(
        self, command: GatherCommand, now_us: float
    ) -> Completion:
        """Execute a gather striped over the owning members.

        Each member gathers its own pages (its controller scans a
        proportional share of the candidates and delivers a proportional
        share of the payload); the merged completion lands at the
        slowest member's time, which is what the host observes.
        """
        by_member: Dict[int, List[int]] = {}
        for page_id in command.page_ids:
            by_member.setdefault(
                page_id % len(self._members), []
            ).append(page_id)
        total_pages = command.num_pages
        sub_completions: List[Completion] = []
        candidates_left = command.candidates
        payload_left = command.payload_bytes
        wanted_left = command.wanted_keys
        items = sorted(by_member.items())
        for index, (member_index, pages) in enumerate(items):
            if index == len(items) - 1:
                candidates, payload, wanted = (
                    candidates_left, payload_left, wanted_left
                )
            else:
                share = len(pages) / total_pages
                candidates = int(command.candidates * share)
                payload = int(command.payload_bytes * share)
                wanted = int(command.wanted_keys * share)
                candidates_left -= candidates
                payload_left -= payload
                wanted_left -= wanted
            sub = GatherCommand(
                page_ids=tuple(pages),
                wanted_keys=wanted,
                candidates=candidates,
                payload_bytes=payload,
            )
            sub_completions.append(
                self._members[member_index].submit_gather(sub, now_us)
            )
        slowest = max(c.completed_at_us for c in sub_completions)
        first = sub_completions[0]
        if len(sub_completions) == 1:
            return first
        return Completion(
            ticket=first.ticket,
            page_id=command.page_ids[0],
            submitted_at_us=now_us,
            completed_at_us=slowest,
            pages=total_pages,
        )

    def submit_batch(
        self, commands: Sequence[DeviceCommand], now_us: float
    ) -> List[Completion]:
        """Submit a batch, striping each command; one completion each.

        A batch of read commands is bit-identical to the same
        ``submit_read`` calls in a loop.  A paced read stripes page by
        page, so the array runs the reference loop over itself.
        """
        completions: List[Completion] = []
        for command in commands:
            if isinstance(command, PacedReadCommand):
                completions.append(run_paced_reads(self, command, now_us))
            elif isinstance(command, ReadCommand):
                completions.append(self.submit_read(command.page_id, now_us))
            elif isinstance(command, GatherCommand):
                completions.append(self.submit_gather(command, now_us))
            else:
                raise StorageError(
                    f"unknown device command {type(command).__name__}"
                )
        return completions

    def poll(self, now_us: float) -> List[Completion]:
        """Retire completed reads from every member."""
        done: List[Completion] = []
        for member in self._members:
            done.extend(member.poll(now_us))
        done.sort(key=lambda c: c.completed_at_us)
        return done

    def drain(self) -> float:
        """Retire everything; return the last completion time."""
        return max(m.drain() for m in self._members)

    def next_completion_time(self) -> Optional[float]:
        """Earliest next completion across members, or None."""
        times = [
            t
            for t in (m.next_completion_time() for m in self._members)
            if t is not None
        ]
        return min(times) if times else None

    @property
    def stats(self) -> DeviceStats:
        """Aggregated counters across members (a fresh snapshot)."""
        total = DeviceStats()
        for member in self._members:
            total.reads += member.stats.reads
            total.bytes_read += member.stats.bytes_read
            total.total_latency_us += member.stats.total_latency_us
            total.busy_until_us = max(
                total.busy_until_us, member.stats.busy_until_us
            )
            total.gathers += member.stats.gathers
        return total
