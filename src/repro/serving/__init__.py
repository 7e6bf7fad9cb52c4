"""Online phase: query request processing (paper §6).

With replication, choosing the minimal page set covering a query is set
cover.  This package provides:

* :class:`GreedySetCoverSelector` — the near-optimal but expensive greedy
  baseline (O(|S|·|Q|) set operations per query);
* :class:`OnePassSelector` — MaxEmbed's §6.1 algorithm: sort keys by
  ascending replica count, then for each uncovered key pick the best of
  its (index-limited) candidate pages;
* :class:`FastOnePassSelector` / :class:`FastGreedySelector` — the same
  two algorithms on one query-side integer-mask kernel, bit-identical in
  outcome and the engine default (:class:`FastSelectionOutcome` is their
  lazy result);
* :class:`SerialExecutor` / :class:`PipelinedExecutor` — §6.2: overlap
  page selection with asynchronous SSD reads or run them back-to-back
  (with :class:`BatchedExecutor` / :class:`NdpExecutor`, the four values
  of the one execution axis, :data:`EXECUTORS`);
* :class:`ServingEngine` — cache → selection → SSD, producing per-query
  timing breakdowns and trace-level throughput/latency reports.
"""

from .selection import (
    GreedySetCoverSelector,
    OnePassSelector,
    SelectionOutcome,
    SelectionStep,
    Selector,
)
from .fast_selection import (
    FastGreedySelector,
    FastOnePassSelector,
    FastSelectionOutcome,
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
    "GreedySetCoverSelector",
    "OnePassSelector",
    "FastOnePassSelector",
    "FastGreedySelector",
    "FastSelectionOutcome",
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
