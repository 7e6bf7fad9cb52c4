"""Online phase: query request processing (paper §6).

With replication, choosing the minimal page set covering a query is set
cover.  This package provides:

* :class:`GreedySetCoverSelector` — the near-optimal but expensive greedy
  baseline (O(|S|·|Q|) candidate examinations per query);
* :class:`OnePassSelector` — MaxEmbed's §6.1 algorithm: sort keys by
  ascending replica count, then for each uncovered key pick the best of
  its (index-limited) candidate pages, taking a key stored once by a
  lookup of its one page — both on one query-side integer-mask kernel
  and both returning one flat :class:`SelectionOutcome`, the two values
  of the selection axis, :data:`SELECTORS`; their set-algebra oracles
  live in :mod:`repro.reference`, which nothing here imports;
* :class:`SerialExecutor` / :class:`PipelinedExecutor` — §6.2: overlap
  page selection with asynchronous SSD reads or run them back-to-back
  (with :class:`BatchedExecutor` / :class:`NdpExecutor`, the four values
  of the one execution axis, :data:`EXECUTORS`);
* :class:`ServingEngine` — cache → selection → SSD, producing per-query
  timing breakdowns;
* :func:`simulate` — the one driver from a query stream (closed loop, or
  open loop at given arrival times) to one :class:`ServingReport`.
"""

from .selection import (
    SELECTORS,
    GreedySetCoverSelector,
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
from .stats import ServingReport
from .openloop import OpenLoopSimulator, simulate

__all__ = [
    "Selector",
    "SelectionStep",
    "SelectionOutcome",
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
    "simulate",
    "OpenLoopSimulator",
]
