"""Query executors: when, and in what form, selected reads reach the device.

The executors walk a :class:`~repro.serving.selection.SelectionOutcome`
against a simulated device, charging CPU per the cost model, and return
when the query's last page read completes.  ``EngineConfig.executor``
names one of the four (:data:`EXECUTORS`); it is the only execution
choice the engine has.

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

Every executor is a *pacing* (:meth:`Executor._pacing`), computed from
the outcome's candidate counts and the cost model: the selection CPU,
the CPU spent after the sort and before the first submission
(``lead``), then the CPU spent before each submitted command (``gaps``).
The pipelined one gets all three in one pass over the counts; the others
take the total from :meth:`CpuCostModel.selection_time_us`, with the
same float operations in the same order.  The first three share
one run function (:meth:`Executor.execute`) that sends the query's reads
as one :class:`~repro.ssd.commands.PacedReadCommand` — the pages plus
their gaps — so a query costs one device call, not one per page.  Fault
recovery (:class:`~repro.serving.recovery.RecoveringExecutor`) wraps an
executor and walks the same pacing command by command.

Every executor charges ``device.submit_overhead_us`` of host CPU per
submitted command; the default profiles set it to ``0.0``, so existing
per-page timing is unchanged (``now + 0.0`` is float-exact).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Tuple, Type

from ..ssd.commands import (
    DeviceCommand,
    GatherCommand,
    PacedReadCommand,
    ReadCommand,
)
from ..ssd.device import submit_with_backpressure
from ..types import EmbeddingSpec
from .cost_model import CpuCostModel
from .selection import SelectionOutcome

_new_command = object.__new__


@dataclass
class ExecutionResult:
    """Timing of one executed query.

    All fields are simulated microseconds; ``finish_us`` is absolute,
    the breakdown components are durations.  A per-query record, so a
    plain dataclass (DESIGN.md, "Values and records").
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
    """Strategy interface for executing a selected query against a device.

    Args:
        cost_model: CPU charge table for the selection path.
        spec: embedding geometry; only a gather is sized by it.
    """

    #: The query's reads go down in one submission, so a faulted read
    #: shows only once the whole wave is out: fault recovery then
    #: retries the stragglers, instead of each read before the next.
    submits_wave = False

    def __init__(
        self,
        cost_model: "CpuCostModel | None" = None,
        spec: "EmbeddingSpec | None" = None,
    ) -> None:
        self.cost_model = cost_model or CpuCostModel()
        self.spec = spec

    def execute(
        self, outcome: SelectionOutcome, device, start_us: float
    ) -> ExecutionResult:
        """Run ``outcome``'s reads on ``device`` starting at ``start_us``.

        Serial, pipelined and batched execution differ only in *when*
        the host submits each read, so they share this run function:
        charge the front costs, send the paced reads as one
        :class:`~repro.ssd.commands.PacedReadCommand`, and finish when
        the host clock and the latest completion have both passed.
        """
        front, sort_us, selection_us, lead_us, gaps_us = self._schedule(
            outcome, device
        )
        now = start_us + front + lead_us
        if gaps_us:
            # Built unchecked: the selector chose the pages (one or
            # more, non-negative) and the pacing gave each its gap.
            command = _new_command(PacedReadCommand)
            command.page_ids = outcome.pages
            command.gaps_us = gaps_us
            (completion,) = device.submit_batch([command], now)
            now = completion.submitted_at_us
            finish = max(now, completion.completed_at_us)
        else:
            finish = now
            device.poll(finish)
        # Field order is ExecutionResult's.
        return ExecutionResult(
            start_us, finish, sort_us, selection_us, finish - now, len(gaps_us)
        )

    @abstractmethod
    def _pacing(
        self,
        candidate_counts: List[int],
        cost: CpuCostModel,
        overhead: float,
    ) -> Tuple[float, float, List[float]]:
        """``(selection_us, lead_us, gaps_us)`` for steps that examined
        ``candidate_counts``: the selection CPU, the CPU before the first
        gap, then the CPU before each submitted command (``overhead`` is
        the device's ``submit_overhead_us``)."""

    def _schedule(
        self, outcome: SelectionOutcome, device
    ) -> Tuple[float, float, float, float, List[float]]:
        """Host timeline of one query on ``device``.

        ``(front_us, sort_us, selection_us, lead_us, gaps_us)``: the
        query base plus the sort, its sort share, the selection CPU, and
        this executor's pacing.  The first submission is due at
        ``start_us + front_us + lead_us + gaps_us[0]``.
        """
        cost = self.cost_model
        sort_us = cost.sort_time_us(outcome.sorted_keys)
        selection_us, lead_us, gaps_us = self._pacing(
            outcome.candidate_counts,
            cost,
            getattr(device, "submit_overhead_us", 0.0),
        )
        front_us = cost.query_base_us + sort_us
        return front_us, sort_us, selection_us, lead_us, gaps_us

    def _commands(self, outcome: SelectionOutcome) -> List[DeviceCommand]:
        """The commands the gaps pace, one per gap.

        Fault recovery submits these one by one, so each can be retried
        on its own; the fault-free executors send them fused.
        """
        return [ReadCommand(page_id) for page_id in outcome.pages]


class SerialExecutor(Executor):
    """All selection first, then all reads — no CPU/I-O overlap."""

    def _pacing(self, candidate_counts, cost, overhead):
        selection_us = cost.selection_time_us(candidate_counts)
        return selection_us, selection_us, [overhead] * len(candidate_counts)


class PipelinedExecutor(Executor):
    """Selection step → async read issue → next step; wait once at the end."""

    def _pacing(self, candidate_counts, cost, overhead):
        # One pass: each step's CPU, the left-to-right total (the same
        # float operations as selection_time_us) and its gap.
        base, examine = cost.step_base_us, cost.candidate_examine_us
        selection_us = 0.0
        gaps_us = []
        for count in candidate_counts:
            step_us = base + examine * count
            selection_us += step_us
            gaps_us.append(step_us + overhead)
        return selection_us, 0.0, gaps_us


class BatchedExecutor(Executor):
    """Selection first, then all reads as **one** submitted batch.

    The host pushes the whole read vector in one submission, paying
    ``submit_overhead_us`` once per query rather than once per page.
    The device's service model is untouched: with zero overhead this is
    bit-identical to :class:`SerialExecutor`.
    """

    submits_wave = True

    def _pacing(self, candidate_counts, cost, overhead):
        selection_us = cost.selection_time_us(candidate_counts)
        gaps_us = [0.0] * len(candidate_counts)
        if gaps_us:
            gaps_us[0] = overhead
        return selection_us, selection_us, gaps_us


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

    def _pacing(self, candidate_counts, cost, overhead):
        selection_us = cost.selection_time_us(candidate_counts)
        gaps_us = [overhead] if candidate_counts else []
        return selection_us, selection_us, gaps_us

    def _commands(self, outcome: SelectionOutcome) -> List[DeviceCommand]:
        """The whole selection outcome as one gather command."""
        if not outcome.num_steps:
            return []
        return [build_gather_command(outcome, self.spec)]

    def execute(
        self, outcome: SelectionOutcome, device, start_us: float
    ) -> ExecutionResult:
        front, sort_us, selection_us, lead_us, gaps_us = self._schedule(
            outcome, device
        )
        now = finish = start_us + front + lead_us
        if gaps_us:
            (gather,) = self._commands(outcome)
            completion, now = submit_with_backpressure(
                device,
                gather,
                now + gaps_us[0],
                lambda command, at: device.submit_batch([command], at)[0],
            )
            finish = max(now, completion.completed_at_us)
        device.poll(finish)
        # Field order is ExecutionResult's.
        return ExecutionResult(
            start_us,
            finish,
            sort_us,
            selection_us,
            finish - now,
            outcome.num_steps,
        )


#: ``EngineConfig.executor`` value → executor class: the one execution
#: axis (config validation and the CLI take their choices from here).
EXECUTORS: Dict[str, Type[Executor]] = {
    "pipelined": PipelinedExecutor,
    "serial": SerialExecutor,
    "batched": BatchedExecutor,
    "ndp": NdpExecutor,
}
