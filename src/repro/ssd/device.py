"""Discrete-event SSD device model with an SPDK-style async queue pair.

Service model
-------------
A read submitted at simulated time ``t`` completes at::

    completion = max(t, device_ready) + read_latency

where ``device_ready`` is a per-device cursor that advances by the page's
transfer time (``page_size / bandwidth``) for every accepted read.  This
gives exactly the two behaviours the experiments need:

* an idle device serves a read in ``read_latency`` µs (latency floor), and
* a saturated device retires reads at ``bandwidth / page_size`` per second
  (bandwidth ceiling), regardless of how many are queued.

``queue_depth`` bounds in-flight reads the way an NVMe submission queue
does; submitting beyond it raises, mirroring SPDK's failed submission.

Command set vs timing model
---------------------------
``submit_read`` is the classic one-page command.  ``submit_batch``
accepts a sequence of :class:`~repro.ssd.commands.ReadCommand` /
:class:`~repro.ssd.commands.GatherCommand` and answers one
:class:`Completion` per command, in order.  A batch of read commands is
*bit-identical* to a loop of ``submit_read`` calls at the same time —
batching changes who pays the host-side submission overhead (see
``SsdProfile.submit_overhead_us``), never the device service model.

A :class:`~repro.ssd.commands.PacedReadCommand` carries one query's
reads and the host CPU gap before each; :func:`run_paced_reads` is its
meaning, written over ``submit_read``/``poll``.  :class:`SimulatedSsd`
answers it with one pass over local variables that leaves the same
clock, counters and in-flight set: read completions are strictly
increasing in submission order (each starts no earlier than the
previous one's start plus a transfer time), so the closing poll at the
latest completion reaps every read of the command — none of them needs
a heap entry or a :class:`Completion` of its own.

A gather (NDP profiles only) occupies the device for::

    media + controller-scan + bus

where media is the named pages moved at the *internal* bandwidth,
controller-scan is ``gather_setup + scan_per_candidate × candidates``
of in-device CPU, and bus is only the valid ``payload_bytes`` at the
host-link bandwidth.  The access-latency floor still applies once.

All methods take explicit timestamps rather than reading a global clock,
so callers (the pipelined executor in particular) can interleave CPU work
and I/O deterministically.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import StorageError
from .commands import (
    DeviceCommand,
    GatherCommand,
    PacedReadCommand,
    ReadCommand,
)
from .profiles import SsdProfile


@dataclass
class Completion:
    """A finished command: which page(s), when submitted, when done.

    ``pages`` is 1 for an ordinary read; a gather completion covers all
    the pages its command named (its ``page_id`` is the first of them).
    A per-command record, so a plain dataclass: one receiver, untouched
    by the device afterwards (DESIGN.md, "Values and records").
    """

    ticket: int
    page_id: int
    submitted_at_us: float
    completed_at_us: float
    pages: int = 1

    @property
    def latency_us(self) -> float:
        """Observed device latency of this command."""
        return self.completed_at_us - self.submitted_at_us


@dataclass
class DeviceStats:
    """Aggregate counters for one device.

    ``total_latency_us`` sums per-*command* latencies while ``reads``
    counts *pages*: a gather adds one latency and ``num_pages`` reads.
    Per-read latencies are not kept; a
    :class:`~repro.ssd.tracing.TracingDevice` records every command.
    """

    reads: int = 0
    bytes_read: int = 0
    total_latency_us: float = 0.0
    busy_until_us: float = 0.0
    gathers: int = 0


def submit_with_backpressure(device, page_id: int, now_us: float, submit=None):
    """Submit one read, stalling on a full submission queue.

    Mirrors an SPDK application's behaviour: when the queue is full
    the submitting CPU polls completions until a slot frees, so the
    submission time advances to that completion.  Returns
    ``(completion, now_us)`` with the possibly-advanced clock.

    ``submit(page_id, now_us)`` stands in for ``device.submit_read``:
    fault recovery passes an attempt-numbered call that hands faults
    back inline (and a command where a page id goes), so it stalls by
    this loop and not a copy of it.
    """
    while device.inflight >= device.queue_depth:
        next_done = device.next_completion_time()
        if next_done is None:  # pragma: no cover - inflight>0 implies one
            break
        now_us = max(now_us, next_done)
        device.poll(now_us)
    return (submit or device.submit_read)(page_id, now_us), now_us


def run_paced_reads(
    device, command: PacedReadCommand, now_us: float
) -> Completion:
    """What a :class:`~repro.ssd.commands.PacedReadCommand` means.

    The reference loop over ``device``'s own per-page interface: spend
    the gap, stall while the queue is full, submit; after the last read
    poll once at the later of the host clock and the latest completion.
    Wrappers that are per-page by nature (stripes, trace rows, fault
    draws) answer the command by calling this on themselves.  The
    completion is stamped with the host clock at the last submission and
    the latest read completion; ticket and page are the first read's.
    """
    now = now_us
    completions: List[Completion] = []
    for page_id, gap_us in zip(command.page_ids, command.gaps_us):
        now += gap_us
        completion, now = submit_with_backpressure(device, page_id, now)
        completions.append(completion)
    latest = max(c.completed_at_us for c in completions)
    device.poll(max(now, latest))
    first = completions[0]
    return Completion(
        first.ticket, first.page_id, now, latest, pages=len(completions)
    )


class SimulatedSsd:
    """One simulated drive with an async submit/poll interface."""

    def __init__(self, profile: SsdProfile, page_size: int = 4096) -> None:
        if page_size <= 0:
            raise StorageError(f"page_size must be positive, got {page_size}")
        self.profile = profile
        self.page_size = page_size
        self._transfer_us = profile.transfer_time_us(page_size)
        self._ready_at = 0.0
        self._inflight: List = []  # heap of (completed_at, ticket, Completion)
        self._next_ticket = 0
        self.stats = DeviceStats()

    # -- async interface -----------------------------------------------------

    @property
    def inflight(self) -> int:
        """Commands submitted but not yet polled."""
        return len(self._inflight)

    @property
    def queue_depth(self) -> int:
        """Submission-queue capacity (reads in flight before submit fails)."""
        return self.profile.queue_depth

    @property
    def submit_overhead_us(self) -> float:
        """Host CPU charged per submitted command (executors consult this)."""
        return self.profile.submit_overhead_us

    def submit_read(self, page_id: int, now_us: float) -> Completion:
        """Submit one page read at simulated time ``now_us``.

        Returns the :class:`Completion` immediately (its completion time is
        already determined by the service model); the read still counts as
        in-flight until polled.
        """
        if page_id < 0:
            raise StorageError(f"page id must be >= 0, got {page_id}")
        if now_us < 0:
            raise StorageError(f"time must be >= 0, got {now_us}")
        if len(self._inflight) >= self.profile.queue_depth:
            raise StorageError(
                f"queue depth {self.profile.queue_depth} exceeded on "
                f"{self.profile.name}"
            )
        start = max(now_us, self._ready_at)
        self._ready_at = start + self._transfer_us
        completed = start + self.profile.read_latency_us
        completion = self._retire(page_id, now_us, completed, pages=1)
        self.stats.bytes_read += self.page_size
        return completion

    def submit_gather(
        self, command: GatherCommand, now_us: float
    ) -> Completion:
        """Submit one in-device gather (NDP profiles only).

        The device is occupied for the internal page moves, the
        controller scan, and the payload's bus transfer; the completion
        arrives an access latency after the occupied window starts.
        """
        profile = self.profile
        if not profile.supports_gather:
            raise StorageError(
                f"profile {profile.name!r} has no gather engine; use an "
                f"NdpSsdProfile for --executor ndp"
            )
        if now_us < 0:
            raise StorageError(f"time must be >= 0, got {now_us}")
        if len(self._inflight) >= profile.queue_depth:
            raise StorageError(
                f"queue depth {profile.queue_depth} exceeded on "
                f"{profile.name}"
            )
        media_us = profile.internal_transfer_time_us(
            command.num_pages * self.page_size
        )
        scan_us = (
            profile.gather_setup_us
            + profile.scan_us_per_candidate * command.candidates
        )
        bus_us = profile.transfer_time_us(command.payload_bytes)
        occupancy_us = media_us + scan_us + bus_us
        start = max(now_us, self._ready_at)
        self._ready_at = start + occupancy_us
        completed = start + profile.read_latency_us + occupancy_us
        completion = self._retire(
            command.page_ids[0], now_us, completed, pages=command.num_pages
        )
        # Flash-side reads count per page; the bus only saw the payload.
        self.stats.reads += command.num_pages - 1
        self.stats.bytes_read += command.payload_bytes
        self.stats.gathers += 1
        return completion

    def submit_batch(
        self, commands: Sequence[DeviceCommand], now_us: float
    ) -> List[Completion]:
        """Submit a batch of commands at ``now_us``; one completion each.

        A batch of :class:`~repro.ssd.commands.ReadCommand` is
        bit-identical to the same ``submit_read`` calls in a loop —
        the device's service model is untouched by batching.  The
        caller must leave queue-depth headroom for the whole batch.
        """
        completions: List[Completion] = []
        for command in commands:
            if isinstance(command, PacedReadCommand):
                completions.append(self._paced_reads(command, now_us))
            elif isinstance(command, ReadCommand):
                completions.append(self.submit_read(command.page_id, now_us))
            elif isinstance(command, GatherCommand):
                completions.append(self.submit_gather(command, now_us))
            else:
                raise StorageError(
                    f"unknown device command {type(command).__name__}"
                )
        return completions

    def _paced_reads(
        self, command: PacedReadCommand, now_us: float
    ) -> Completion:
        """:func:`run_paced_reads` on this drive, fused into one pass.

        Same arithmetic in the same order as ``submit_read`` per page,
        on locals; the command's own reads live only as a list of
        completion times (increasing, so the earliest outstanding one is
        at ``reaped``), and the device state is written once at the end.
        """
        heap = self._inflight
        depth = self.profile.queue_depth
        read_latency = self.profile.read_latency_us
        transfer = self._transfer_us
        stats = self.stats
        ready = self._ready_at
        total_latency = stats.total_latency_us
        now = now_us
        done_at: List[float] = []
        reaped = 0
        outstanding = len(heap)
        for gap_us in command.gaps_us:
            now += gap_us
            while outstanding >= depth:
                # Queue full: the host polls until the earliest
                # outstanding read, its own or an older one, completes.
                if reaped == len(done_at) or (
                    heap and heap[0][0] < done_at[reaped]
                ):
                    next_done = heap[0][0]
                else:
                    next_done = done_at[reaped]
                if next_done > now:
                    now = next_done
                while heap and heap[0][0] <= now:
                    heapq.heappop(heap)
                while reaped < len(done_at) and done_at[reaped] <= now:
                    reaped += 1
                outstanding = len(heap) + len(done_at) - reaped
            if now < 0:
                raise StorageError(f"time must be >= 0, got {now}")
            start = ready if ready > now else now
            ready = start + transfer
            completed = start + read_latency
            done_at.append(completed)
            total_latency += completed - now
            outstanding += 1
        latest = done_at[-1]
        finish = latest if latest > now else now
        while heap and heap[0][0] <= finish:
            heapq.heappop(heap)
        pages = len(done_at)
        ticket = self._next_ticket
        self._next_ticket = ticket + pages
        self._ready_at = ready
        stats.reads += pages
        stats.bytes_read += pages * self.page_size
        stats.total_latency_us = total_latency
        if latest > stats.busy_until_us:
            stats.busy_until_us = latest
        return Completion(ticket, command.page_ids[0], now, latest, pages)

    def _retire(
        self, page_id: int, now_us: float, completed: float, pages: int
    ) -> Completion:
        """Book one accepted command into the in-flight heap and stats."""
        ticket = self._next_ticket
        self._next_ticket += 1
        completion = Completion(ticket, page_id, now_us, completed, pages)
        heapq.heappush(
            self._inflight, (completed, ticket, completion)
        )
        stats = self.stats
        stats.reads += 1
        stats.total_latency_us += completed - now_us
        stats.busy_until_us = max(stats.busy_until_us, completed)
        return completion

    def poll(self, now_us: float) -> List[Completion]:
        """Retire every in-flight read whose completion time has passed."""
        done: List[Completion] = []
        while self._inflight and self._inflight[0][0] <= now_us:
            done.append(heapq.heappop(self._inflight)[2])
        return done

    def drain(self) -> float:
        """Retire all in-flight reads; return the last completion time."""
        last = 0.0
        while self._inflight:
            last = heapq.heappop(self._inflight)[0]
        return last

    def next_completion_time(self) -> Optional[float]:
        """Completion time of the earliest in-flight read, or None."""
        return self._inflight[0][0] if self._inflight else None
