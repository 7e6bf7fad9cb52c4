"""A fault-injecting wrapper around the simulated SSD.

:class:`FaultySsd` exposes the exact submit/poll interface of
:class:`~repro.ssd.device.SimulatedSsd` (any page device works), so every
executor and engine runs against it unchanged.  Each submission is first
routed through a :class:`~repro.faults.injector.FaultInjector`:

* failed submissions (transient errors, dead pages, brown-outs) raise
  :class:`~repro.errors.DeviceFault` with the simulated time at which
  the failure was observed — the device-latency cost of discovering a
  failure is charged to the caller's clock, not silently dropped;
* corrupted reads complete normally (the transfer happened and consumed
  device bandwidth); :meth:`is_corrupt` exposes the integrity-check
  verdict the caller must consult before trusting the payload;
* latency spikes stretch the read's completion time; the wrapper holds
  spiked completions back from :meth:`poll` until their adjusted time.

With a no-op plan the wrapper is pass-through: every call delegates to
the inner device and timing is bit-identical to running without it.
"""

from __future__ import annotations

import heapq
from dataclasses import replace
from typing import Dict, List, Optional, Set

from ..errors import DeviceFault, DeviceInterfaceError
from ..ssd.commands import (
    DeviceCommand,
    GatherCommand,
    PacedReadCommand,
    ReadCommand,
)
from ..ssd.device import Completion, DeviceStats, run_paced_reads
from .injector import (
    BROWNOUT,
    CORRUPT,
    LATENCY_SPIKE,
    FaultInjector,
    SUBMIT_FAILURES,
)
from .plan import FaultPlan


class FaultySsd:
    """Fault-injecting façade over any simulated page device."""

    def __init__(self, inner, injector: "FaultInjector | FaultPlan") -> None:
        if not hasattr(inner, "submit_batch"):
            raise DeviceInterfaceError(
                f"FaultySsd requires a device exposing the batched command "
                f"interface (submit_batch); "
                f"{type(inner).__name__} does not — wrap a SimulatedSsd, "
                f"not a bare stub"
            )
        if isinstance(injector, FaultPlan):
            injector = FaultInjector(injector)
        self._inner = inner
        self.injector = injector
        self._corrupt_tickets: Set[int] = set()
        # Spiked completions: ticket -> adjusted Completion, plus a heap
        # of adjusted completions already retired by the inner device but
        # not yet due at their stretched time.
        self._spiked: Dict[int, Completion] = {}
        self._held: List = []

    # -- passthrough surface ---------------------------------------------------

    @property
    def profile(self):
        """The inner device's profile."""
        return self._inner.profile

    @property
    def page_size(self) -> int:
        """Bytes per page."""
        return self._inner.page_size

    @property
    def queue_depth(self) -> int:
        """Submission-queue capacity of the inner device."""
        return self._inner.queue_depth

    @property
    def inflight(self) -> int:
        """Reads submitted but not yet retired (held spikes included)."""
        return self._inner.inflight + len(self._held)

    @property
    def submit_overhead_us(self) -> float:
        """Host CPU per submitted command (inner device's figure)."""
        return getattr(self._inner, "submit_overhead_us", 0.0)

    @property
    def stats(self) -> DeviceStats:
        """The inner device's counters (successful transfers only)."""
        return self._inner.stats

    # -- fault bookkeeping -----------------------------------------------------

    @property
    def fault_counters(self) -> Dict[str, int]:
        """Per-kind injected fault counts."""
        return dict(self.injector.counters)

    def is_corrupt(self, completion: Completion) -> bool:
        """Integrity-check verdict for a returned completion.

        The check is consumed: a retried read of the same page is a new
        submission with its own draw.
        """
        if completion.ticket in self._corrupt_tickets:
            self._corrupt_tickets.discard(completion.ticket)
            return True
        return False

    # -- submit / poll ---------------------------------------------------------

    def submit_read(
        self, page_id: int, now_us: float, attempt: int = 0
    ) -> Completion:
        """Submit one read; raises :class:`DeviceFault` on injected failure.

        ``attempt`` is the caller's retry counter for this logical read;
        it feeds the per-attempt fault draws so retries of a transient
        failure can succeed while dead pages stay dead.
        """
        decision = self.injector.decide(page_id, now_us, attempt)
        if decision.kind in SUBMIT_FAILURES:
            if decision.kind == BROWNOUT:
                # The controller is unresponsive for the whole window; a
                # retry can only succeed once it ends.
                failed_at = max(now_us, decision.retry_at_us)
            else:
                # The command completed with an error status after the
                # device's ordinary latency.
                failed_at = now_us + self.profile.read_latency_us
            raise DeviceFault(
                f"injected {decision.kind} on page {page_id} "
                f"(attempt {attempt})",
                page_id=page_id,
                kind=decision.kind,
                failed_at_us=failed_at,
            )
        completion = self._inner.submit_read(page_id, now_us)
        if decision.kind == CORRUPT:
            self._corrupt_tickets.add(completion.ticket)
            return completion
        if decision.kind == LATENCY_SPIKE:
            adjusted = replace(
                completion,
                completed_at_us=completion.completed_at_us
                + decision.extra_latency_us,
            )
            self._spiked[completion.ticket] = adjusted
            return adjusted
        return completion

    def submit_gather(
        self, command: GatherCommand, now_us: float, attempt: int = 0
    ) -> Completion:
        """Submit an in-device gather with per-page fault draws.

        Each of the gather's pages gets its own injector draw (in page
        order), so fault exposure matches the per-page read path:

        * the first submit-failure draw aborts the *whole* gather — one
          command, one error status — and raises :class:`DeviceFault`
          for that page;
        * any corrupt draw poisons the merged completion (the integrity
          check covers the full gathered payload);
        * latency-spike draws stretch the completion by the largest
          spike among the pages.
        """
        failure = None
        corrupt = False
        extra_latency = 0.0
        for page_id in command.page_ids:
            decision = self.injector.decide(page_id, now_us, attempt)
            if decision.kind in SUBMIT_FAILURES:
                if decision.kind == BROWNOUT:
                    failed_at = max(now_us, decision.retry_at_us)
                else:
                    failed_at = now_us + self.profile.read_latency_us
                failure = DeviceFault(
                    f"injected {decision.kind} on page {page_id} "
                    f"(gather of {command.num_pages}, attempt {attempt})",
                    page_id=page_id,
                    kind=decision.kind,
                    failed_at_us=failed_at,
                )
                break
            if decision.kind == CORRUPT:
                corrupt = True
            elif decision.kind == LATENCY_SPIKE:
                extra_latency = max(
                    extra_latency, decision.extra_latency_us
                )
        if failure is not None:
            raise failure
        completion = self._inner.submit_gather(command, now_us)
        if corrupt:
            self._corrupt_tickets.add(completion.ticket)
        if extra_latency > 0.0:
            adjusted = replace(
                completion,
                completed_at_us=completion.completed_at_us + extra_latency,
            )
            self._spiked[completion.ticket] = adjusted
            return adjusted
        return completion

    def submit_batch(
        self,
        commands: "list[DeviceCommand]",
        now_us: float,
        attempt: int = 0,
    ) -> "List[Completion | DeviceFault]":
        """Submit a command batch; faults are *returned*, not raised.

        One entry per command, in order: a :class:`Completion` where the
        submission succeeded, the :class:`DeviceFault` itself where the
        injector failed it.  Returning faults inline keeps the rest of
        the batch flowing — the caller retries the failed commands
        individually (starting at ``attempt + 1``; this batch consumed
        the per-page draws for ``attempt``).

        A paced read is the exception: it is the per-page loop of the
        plain executors, so it draws per page through ``submit_read``
        (at attempt 0) and a failing page *raises*, as that loop did.
        """
        results: "List[Completion | DeviceFault]" = []
        for command in commands:
            if isinstance(command, PacedReadCommand):
                results.append(run_paced_reads(self, command, now_us))
                continue
            try:
                if isinstance(command, ReadCommand):
                    results.append(
                        self.submit_read(command.page_id, now_us, attempt)
                    )
                elif isinstance(command, GatherCommand):
                    results.append(
                        self.submit_gather(command, now_us, attempt)
                    )
                else:
                    raise DeviceInterfaceError(
                        f"unknown device command {type(command).__name__}"
                    )
            except DeviceFault as fault:
                results.append(fault)
        return results

    def poll(self, now_us: float) -> List[Completion]:
        """Retire completed reads, honouring spiked completion times."""
        done: List[Completion] = []
        for completion in self._inner.poll(now_us):
            adjusted = self._spiked.pop(completion.ticket, None)
            if adjusted is None:
                done.append(completion)
            elif adjusted.completed_at_us <= now_us:
                done.append(adjusted)
            else:
                heapq.heappush(
                    self._held,
                    (adjusted.completed_at_us, adjusted.ticket, adjusted),
                )
        while self._held and self._held[0][0] <= now_us:
            done.append(heapq.heappop(self._held)[2])
        done.sort(key=lambda c: (c.completed_at_us, c.ticket))
        return done

    def drain(self) -> float:
        """Retire everything; return the last (spike-adjusted) completion."""
        last = self._inner.drain()
        for adjusted in self._spiked.values():
            last = max(last, adjusted.completed_at_us)
        self._spiked.clear()
        while self._held:
            last = max(last, heapq.heappop(self._held)[0])
        return last

    def next_completion_time(self) -> Optional[float]:
        """Earliest pending completion (inner heap or held spikes)."""
        times = []
        inner_next = self._inner.next_completion_time()
        if inner_next is not None:
            times.append(inner_next)
        if self._held:
            times.append(self._held[0][0])
        return min(times) if times else None
