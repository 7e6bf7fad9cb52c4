"""Fault-tolerant query execution: retries, backoff, replica recovery.

:class:`RecoveringExecutor` wraps one of the plain executors of
:mod:`repro.serving.executor` and runs *its* host timeline — the same
front costs, the same pacing, the same
:func:`~repro.ssd.device.submit_with_backpressure` stall rule — one
command at a time, so with a no-fault device its timing is bit-identical
to the executor it wraps.  Every command passes through one bounded
retry ladder, and reads that ultimately fail trigger **replica-aware
recovery**:

1. Keys lost with a failed page are first checked against the pages that
   *did* transfer: a co-resident replica on any successfully read page
   serves the key at zero extra cost (the page is already in DRAM).
2. Still-lost keys are re-selected through the *full* (never-shrunk)
   forward index — exactly the alternate locations MaxEmbed's selective
   replication creates — skipping pages already known to have failed.
3. Keys with no surviving page are reported **missing** in the degraded
   result instead of raising; the caller accounts them and serves the
   rest of the trace.

All retry backoff is charged in simulated time, so fault handling shows
up in latency percentiles exactly like real tail amplification would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..errors import ConfigError, DeviceFault
from ..placement import ForwardIndex, InvertIndex
from ..ssd.commands import GatherCommand, ReadCommand
from ..ssd.device import submit_with_backpressure
from .executor import ExecutionResult, Executor


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff in simulated time.

    Attributes:
        max_retries: additional attempts after the first failure
            (0 = fail immediately).
        backoff_us: simulated wait before the first retry.
        backoff_multiplier: growth factor of successive backoffs.
    """

    max_retries: int = 2
    backoff_us: float = 50.0
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_us < 0:
            raise ConfigError(
                f"backoff_us must be >= 0, got {self.backoff_us}"
            )
        if self.backoff_multiplier < 1.0:
            raise ConfigError(
                f"backoff_multiplier must be >= 1, got "
                f"{self.backoff_multiplier}"
            )

    def backoff_for(self, attempt: int) -> float:
        """Backoff before retrying after failed attempt ``attempt``."""
        return self.backoff_us * self.backoff_multiplier**attempt


@dataclass
class DegradedExecution:
    """A fault-aware execution: timing plus recovery accounting.

    Attributes:
        execution: the ordinary timing breakdown (retry backoff and
            replacement reads included in its clock).
        valid_per_read: newly covered keys per *useful* page read, in
            read order (failed and corrupt reads contribute nothing).
        pages_ok: pages whose payload actually arrived intact, in read
            order (primary successes then replacements) — the set a
            page-grain cache admission may trust.
        retries: total re-submissions across all reads of the query.
        failed_reads: logical reads abandoned after exhausting retries.
        wasted_reads: transfers that completed but failed their
            integrity check (bandwidth consumed, no data delivered).
        replacement_reads: successful reads of alternate replica pages.
        recovered_keys: lost keys served via a replica (free co-resident
            or replacement read).
        missing_keys: keys with no surviving page, in process order.
    """

    execution: ExecutionResult
    valid_per_read: Tuple[int, ...]
    pages_ok: Tuple[int, ...]
    retries: int
    failed_reads: int
    wasted_reads: int
    replacement_reads: int
    recovered_keys: int
    missing_keys: Tuple[int, ...]

    @property
    def degraded(self) -> bool:
        """True when at least one key could not be served."""
        return bool(self.missing_keys)


class _Reads:
    """Clock and accounting of one query's reads on a faulty device."""

    def __init__(self, device, retry: RetryPolicy, now_us: float) -> None:
        self.device = device
        self.retry = retry
        self.now = now_us
        self.last_completion = now_us
        self.retries = 0
        self.failed_reads = 0
        self.wasted_reads = 0
        self.valid_counts: List[int] = []
        self.pages_ok: List[int] = []
        self.failed_pages = set()
        self.lost: List[int] = []

    def submit(self, command, gap_us: float, attempt: int = 0):
        """Submit ``command`` once, ``gap_us`` of host CPU from now.

        Same placement as :func:`~repro.ssd.device.run_paced_reads`:
        spend the gap, stall while the queue is full, submit.  Returns
        the completion, or the :class:`~repro.errors.DeviceFault` the
        device handed back inline.  ``attempt`` is the coordinate of
        the injector's per-attempt draws.
        """
        device = self.device

        def send(target, now_us):
            return device.submit_batch([target], now_us, attempt)[0]

        result, self.now = submit_with_backpressure(
            device, command, self.now + gap_us, send
        )
        return result

    def settle(self, command, result, attempt: int = 0, first: int = 0):
        """The retry ladder: submit fault → corrupt → backoff → resubmit.

        ``result`` is what attempt ``attempt`` of ``command`` returned;
        the command is resubmitted until a completion passes its
        integrity check (returned) or the page is dead or the budget is
        spent (None).  A corrupt completion is detected at its
        (simulated) arrival, so the clock first catches up with the
        wasted transfer.  The retry budget and the backoff schedule
        count from attempt ``first``: attempts below it were burnt by a
        command submitted elsewhere (a batch, a failed gather), and the
        read still gets a full set of retries.
        """
        device, retry = self.device, self.retry
        while True:
            if isinstance(result, DeviceFault):
                self.now = max(self.now, result.failed_at_us)
                if result.kind == "dead_page":
                    return None
            elif device.is_corrupt(result):
                self.wasted_reads += 1
                self.now = max(self.now, result.completed_at_us)
            else:
                self.last_completion = max(
                    self.last_completion, result.completed_at_us
                )
                return result
            used = max(0, attempt - first)
            if used >= retry.max_retries:
                return None
            self.now += retry.backoff_for(used)
            attempt += 1
            self.retries += 1
            result = self.submit(command, device.submit_overhead_us, attempt)

    def account(self, steps, completion) -> None:
        """Book ``steps``' pages as transferred, or their keys as lost."""
        for step in steps:
            if completion is None:
                self.failed_reads += 1
                self.failed_pages.add(step.page_id)
                self.lost.extend(step.covered)
            else:
                self.valid_counts.append(len(step.covered))
                self.pages_ok.append(step.page_id)

    def read(self, command, steps, gap_us: float, attempt: int = 0) -> None:
        """Submit, settle and account the ``command`` that reads ``steps``.

        A gather is all-or-nothing, so it is retried *whole*
        (``wasted_reads`` counts corrupt gathers at command grain); when
        it keeps failing — a dead page poisons every attempt — its pages
        are read one by one, past the attempts the gathers burnt.
        """
        burnt = self.retries
        completion = self.settle(
            command, self.submit(command, gap_us, attempt), attempt, attempt
        )
        if completion is None and isinstance(command, GatherCommand):
            attempt += self.retries - burnt + 1
            gap_us = self.device.submit_overhead_us
            for step in steps:
                self.read(ReadCommand(step.page_id), (step,), gap_us, attempt)
        else:
            self.account(steps, completion)


class RecoveringExecutor:
    """Runs a wrapped executor's query with retries and replica recovery.

    Args:
        executor: the engine's executor.  Its front costs, pacing and
            commands (:meth:`~repro.serving.executor.Executor._schedule`,
            ``_commands``) are the query's timeline; ``submits_wave``
            says whether faults show read by read or after the wave.
        full_forward: the **unshrunk** forward index (every page holding
            each key) — the replica map recovery re-selects from.
        invert: the layout's invert index (page → co-resident keys).
        retry: bounded-backoff retry policy.

    The device must hand faults back inline from ``submit_batch`` and
    expose ``is_corrupt`` — a :class:`~repro.faults.device.FaultySsd`.
    """

    def __init__(
        self,
        executor: Executor,
        full_forward: ForwardIndex,
        invert: InvertIndex,
        retry: "RetryPolicy | None" = None,
    ) -> None:
        self.executor = executor
        self.full_forward = full_forward
        self.invert = invert
        self.retry = retry or RetryPolicy()

    def execute(self, outcome, device, start_us: float) -> DegradedExecution:
        """Run ``outcome`` on ``device``; degrade instead of raising."""
        executor = self.executor
        front, sort_us, selection_us, lead_us, gaps_us = executor._schedule(
            outcome, device
        )
        reads = _Reads(device, self.retry, start_us + front + lead_us)
        steps = outcome.steps
        commands = executor._commands(outcome)
        # One read per step, or a single command for the whole query.
        covers = (
            [(step,) for step in steps]
            if len(commands) == len(steps)
            else [steps]
        )
        if executor.submits_wave:
            # The wave goes out whole; each straggler is then retried
            # from attempt 1 (the wave consumed its attempt-0 draw).
            sent = [
                reads.submit(command, gap_us)
                for command, gap_us in zip(commands, gaps_us)
            ]
            for command, cover, result in zip(commands, covers, sent):
                reads.account(cover, reads.settle(command, result, first=1))
        else:
            for command, cover, gap_us in zip(commands, covers, gaps_us):
                reads.read(command, cover, gap_us)
        recovered = 0
        missing: List[int] = []
        replacement_reads = 0
        if reads.lost:
            cost = executor.cost_model
            overhead = device.submit_overhead_us
            # Free recovery: a successfully transferred page holds every
            # co-resident key, not only the ones selection assigned it.
            available = set()
            for page in reads.pages_ok:
                available |= self.invert.key_set(page)
            lost = [k for k in reads.lost if k not in available]
            recovered += len(reads.lost) - len(lost)
            remaining = dict.fromkeys(lost)
            while remaining:
                key = next(iter(remaining))
                alternates = self.full_forward.pages_of(key)
                cpu = cost.step_time_us(len(alternates))
                selection_us += cpu
                reads.now += cpu
                served = False
                for alt in alternates:
                    if alt in reads.failed_pages:
                        continue
                    command = ReadCommand(alt)
                    completion = reads.settle(
                        command, reads.submit(command, overhead)
                    )
                    if completion is None:
                        reads.failed_reads += 1
                        reads.failed_pages.add(alt)
                        continue
                    replacement_reads += 1
                    reads.pages_ok.append(alt)
                    cover = [
                        k
                        for k in self.invert.sorted_keys_of(alt)
                        if k in remaining
                    ]
                    for k in cover:
                        del remaining[k]
                    recovered += len(cover)
                    reads.valid_counts.append(len(cover))
                    served = True
                    break
                if not served:
                    missing.append(key)
                    del remaining[key]
        finish = max(reads.now, reads.last_completion)
        device.poll(finish)
        execution = ExecutionResult(
            start_us=start_us,
            finish_us=finish,
            sort_us=sort_us,
            selection_us=selection_us,
            io_wait_us=finish - reads.now,
            pages_read=len(reads.pages_ok) + reads.wasted_reads,
        )
        return DegradedExecution(
            execution=execution,
            valid_per_read=tuple(reads.valid_counts),
            pages_ok=tuple(reads.pages_ok),
            retries=reads.retries,
            failed_reads=reads.failed_reads,
            wasted_reads=reads.wasted_reads,
            replacement_reads=replacement_reads,
            recovered_keys=recovered,
            missing_keys=tuple(missing),
        )
