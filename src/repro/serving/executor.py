"""Query executors: serial vs pipelined selection + SSD access (paper §6.2).

The executors walk a :class:`~repro.serving.selection.SelectionOutcome`
against a simulated device, charging CPU per the cost model, and return
when the query's last page read completes.

* :class:`SerialExecutor` — the "Raw" configuration of Figure 15: the
  page selection runs to completion first, and only then are the chosen
  reads submitted to the device.  CPU and I/O never overlap, so the query
  pays ``selection + reads`` end to end.
* :class:`PipelinedExecutor` — MaxEmbed's §6.2 optimization: each read is
  issued **asynchronously** right after its selection step; the CPU
  proceeds to the next step while earlier reads are in flight, and the
  query only waits at the end, polling all completions (mirrors SPDK
  submit/poll usage in the paper).  The win is the selection CPU hidden
  behind device time — the paper measures ~10 % (§8.4).
* :class:`BatchedExecutor` — the batched command path: selection runs to
  completion, then every chosen read goes down in **one** submission,
  so the host-side overhead (``SsdProfile.submit_overhead_us``) is paid
  once per query instead of once per page.  With zero overhead (the
  default profiles) timing is bit-identical to :class:`SerialExecutor`.
* :class:`NdpExecutor` — near-data-processing path: the selected pages
  go down as a single :class:`~repro.ssd.commands.GatherCommand`; the
  device parses pages in its controller and returns only the valid
  embeddings over the bus (requires a gather-capable profile).

The first three are one run function (:class:`PacedExecutor`) over three
gap vectors: each sends the query's reads as one
:class:`~repro.ssd.commands.PacedReadCommand` — the pages plus the host
CPU spent before each submission — so a query costs one device call,
not one per page.

Every executor charges ``device.submit_overhead_us`` of host CPU per
submitted command; the default profiles set it to ``0.0``, so existing
per-page timing is unchanged (``now + 0.0`` is float-exact).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..ssd.commands import DeviceCommand, GatherCommand, PacedReadCommand
from ..types import EmbeddingSpec
from .cost_model import CpuCostModel
from .selection import SelectionOutcome


@dataclass(frozen=True)
class ExecutionResult:
    """Timing of one executed query.

    All fields are simulated microseconds; ``finish_us`` is absolute,
    the breakdown components are durations.
    """

    start_us: float
    finish_us: float
    sort_us: float
    selection_us: float
    io_wait_us: float
    pages_read: int

    @property
    def latency_us(self) -> float:
        """End-to-end query latency."""
        return self.finish_us - self.start_us

    @property
    def cpu_us(self) -> float:
        """CPU component (sort + selection)."""
        return self.sort_us + self.selection_us


def build_gather_command(
    outcome: SelectionOutcome, spec: "EmbeddingSpec | None" = None
) -> GatherCommand:
    """Translate a selection outcome into one multi-key gather command.

    The controller scans every slot of every named page (``candidates``);
    only the wanted embeddings cross the bus (``payload_bytes``).  With
    no :class:`~repro.types.EmbeddingSpec` the selector's own candidate
    accounting and a 4-byte-per-key payload bound stand in.
    """
    wanted = sum(outcome.covered_counts)
    if spec is not None:
        candidates = outcome.num_steps * spec.slots_per_page
        payload = wanted * spec.embedding_bytes
    else:
        candidates = outcome.total_candidates
        payload = wanted * 4
    return GatherCommand(
        page_ids=tuple(outcome.pages),
        wanted_keys=wanted,
        candidates=candidates,
        payload_bytes=payload,
    )


class Executor(ABC):
    """Strategy interface for executing a selected query against a device."""

    def __init__(self, cost_model: "CpuCostModel | None" = None) -> None:
        self.cost_model = cost_model or CpuCostModel()

    @abstractmethod
    def execute(
        self, outcome: SelectionOutcome, device, start_us: float
    ) -> ExecutionResult:
        """Run ``outcome``'s reads on ``device`` starting at ``start_us``."""

    def _front_costs(self, outcome: SelectionOutcome) -> Tuple[float, float]:
        """(query base + sort) and zero selection accumulator."""
        sort = self.cost_model.sort_time_us(outcome.sorted_keys)
        return self.cost_model.query_base_us + sort, sort

    @staticmethod
    def _submit_overhead(device) -> float:
        """Host CPU charged per submitted command (0 for plain devices)."""
        return getattr(device, "submit_overhead_us", 0.0)

    @staticmethod
    def _submit_batch_with_backpressure(
        device, commands: Sequence[DeviceCommand], now_us: float
    ):
        """Submit a command batch, chunking on submission-queue headroom.

        The whole batch shares one submission timestamp unless the queue
        fills mid-way, in which case the submitting CPU polls until
        slots free (advancing the clock) and pushes the remainder —
        same stall rule as
        :func:`~repro.ssd.device.submit_with_backpressure`, amortized.
        Returns ``(completions, now_us)``.
        """
        completions: List = []
        index = 0
        while index < len(commands):
            free = device.queue_depth - device.inflight
            if free <= 0:
                next_done = device.next_completion_time()
                if next_done is None:  # pragma: no cover - queue full ⇒ set
                    break
                now_us = max(now_us, next_done)
                device.poll(now_us)
                continue
            chunk = list(commands[index : index + free])
            completions.extend(device.submit_batch(chunk, now_us))
            index += len(chunk)
        return completions, now_us


class PacedExecutor(Executor):
    """Host executors: one :class:`~repro.ssd.commands.PacedReadCommand`.

    Serial, pipelined and batched execution differ only in *when* the
    host submits each read, so each subclass is a gap-vector builder
    (:meth:`_pacing`) and this class runs the query: charge the front
    costs, send the paced reads as one command, and finish when the
    host clock and the latest completion have both passed.
    """

    @abstractmethod
    def _pacing(
        self, step_times: List[float], selection_us: float, overhead: float
    ) -> Tuple[float, List[float]]:
        """``(lead_us, gaps_us)``: CPU before the command, then per read."""

    def execute(
        self, outcome: SelectionOutcome, device, start_us: float
    ) -> ExecutionResult:
        front, sort_us = self._front_costs(outcome)
        step_times = self.cost_model.step_times_us(outcome)
        # Left to right, whichever executor: see selection_time_us.
        selection_us = 0.0
        for step_us in step_times:
            selection_us += step_us
        lead_us, gaps_us = self._pacing(
            step_times, selection_us, self._submit_overhead(device)
        )
        now = start_us + front + lead_us
        if step_times:
            (completion,) = device.submit_batch(
                [PacedReadCommand(outcome.pages, gaps_us)], now
            )
            now = completion.submitted_at_us
            finish = max(now, completion.completed_at_us)
        else:
            finish = now
            device.poll(finish)
        return ExecutionResult(
            start_us=start_us,
            finish_us=finish,
            sort_us=sort_us,
            selection_us=selection_us,
            io_wait_us=finish - now,
            pages_read=len(step_times),
        )


class SerialExecutor(PacedExecutor):
    """All selection first, then all reads — no CPU/I-O overlap."""

    def _pacing(self, step_times, selection_us, overhead):
        return selection_us, [overhead] * len(step_times)


class PipelinedExecutor(PacedExecutor):
    """Selection step → async read issue → next step; wait once at the end."""

    def _pacing(self, step_times, selection_us, overhead):
        return 0.0, [step_us + overhead for step_us in step_times]


class BatchedExecutor(PacedExecutor):
    """Selection first, then all reads as **one** submitted batch.

    The host pushes the whole read vector in one submission, paying
    ``submit_overhead_us`` once per query rather than once per page.
    The device's service model is untouched: with zero overhead this is
    bit-identical to :class:`SerialExecutor`.
    """

    def _pacing(self, step_times, selection_us, overhead):
        return selection_us, [overhead] + [0.0] * (len(step_times) - 1)


class NdpExecutor(Executor):
    """One multi-key gather command per query (extension: NDP device).

    Selection still runs on the host (it needs the inverted index and
    cache state), but instead of reading whole pages back, the chosen
    pages go down as a single :class:`~repro.ssd.commands.GatherCommand`:
    the device's controller parses every slot of the named pages
    (``candidates``) and only the wanted embeddings
    (``wanted × embedding_bytes``) cross the host bus.  Requires a
    gather-capable profile (:class:`~repro.ssd.profiles.NdpSsdProfile`).
    """

    def __init__(
        self,
        cost_model: "CpuCostModel | None" = None,
        spec: "EmbeddingSpec | None" = None,
    ) -> None:
        super().__init__(cost_model)
        self.spec = spec

    def _gather_command(self, outcome: SelectionOutcome) -> GatherCommand:
        """Translate a selection outcome into one gather command."""
        return build_gather_command(outcome, self.spec)

    def execute(
        self, outcome: SelectionOutcome, device, start_us: float
    ) -> ExecutionResult:
        front, sort_us = self._front_costs(outcome)
        selection_us = self.cost_model.selection_time_us(outcome)
        now = start_us + front + selection_us
        last_completion = now
        if outcome.num_steps:
            now += self._submit_overhead(device)
            completions, now = self._submit_batch_with_backpressure(
                device, [self._gather_command(outcome)], now
            )
            for completion in completions:
                last_completion = max(
                    last_completion, completion.completed_at_us
                )
        last_completion = max(last_completion, now)
        device.poll(last_completion)
        return ExecutionResult(
            start_us=start_us,
            finish_us=last_completion,
            sort_us=sort_us,
            selection_us=selection_us,
            io_wait_us=last_completion - now,
            pages_read=outcome.num_steps,
        )
