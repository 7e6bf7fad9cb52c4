"""Online phase: query request processing (paper §6).

With replication, choosing the minimal page set covering a query is set
cover.  This package provides:

* :class:`GreedySetCoverSelector` — the near-optimal but expensive greedy
  baseline (O(|S|·|Q|) candidate examinations per query);
* :class:`OnePassSelector` — MaxEmbed's §6.1 algorithm: sort keys by
  ascending replica count, then for each uncovered key pick the best of
  its (index-limited) candidate pages — both on one query-side
  integer-mask kernel (:class:`MaskSelectionOutcome` is their lazy
  result), the two values of the selection axis, :data:`SELECTORS`;
  their set-algebra oracles live in :mod:`repro.reference`, which
  nothing here imports;
* :class:`SerialExecutor` / :class:`PipelinedExecutor` — §6.2: overlap
  page selection with asynchronous SSD reads or run them back-to-back
  (with :class:`BatchedExecutor` / :class:`NdpExecutor`, the four values
  of the one execution axis, :data:`EXECUTORS`);
* :class:`ServingEngine` — cache → selection → SSD, producing per-query
  timing breakdowns and trace-level throughput/latency reports.
"""

from .selection import (
    SELECTORS,
    GreedySetCoverSelector,
    MaskSelectionOutcome,
    OnePassSelector,
    SelectionOutcome,
    SelectionStep,
    Selector,
)
from .cost_model import CpuCostModel
from .executor import (
    EXECUTORS,
    BatchedExecutor,
    ExecutionResult,
    Executor,
    NdpExecutor,
    PipelinedExecutor,
    SerialExecutor,
    build_gather_command,
)
from .engine import EngineConfig, QueryResult, ServingEngine
from .recovery import DegradedExecution, RecoveringExecutor, RetryPolicy
from .stats import ServingReport, aggregate_results
from .batch import BatchResult, BatchServer, batching_summary
from .openloop import OpenLoopReport, OpenLoopResult, OpenLoopSimulator

__all__ = [
    "Selector",
    "SelectionStep",
    "SelectionOutcome",
    "MaskSelectionOutcome",
    "SELECTORS",
    "GreedySetCoverSelector",
    "OnePassSelector",
    "CpuCostModel",
    "Executor",
    "EXECUTORS",
    "SerialExecutor",
    "PipelinedExecutor",
    "BatchedExecutor",
    "NdpExecutor",
    "build_gather_command",
    "ExecutionResult",
    "RetryPolicy",
    "RecoveringExecutor",
    "DegradedExecution",
    "ServingEngine",
    "EngineConfig",
    "QueryResult",
    "ServingReport",
    "aggregate_results",
    "BatchServer",
    "BatchResult",
    "batching_summary",
    "OpenLoopSimulator",
    "OpenLoopReport",
    "OpenLoopResult",
]
