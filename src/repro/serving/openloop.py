"""The simulation driver: one loop from a query stream to a report.

The paper's serving numbers come from one client model: ``threads``
simulated workers share one device, each serves one query at a time, and
a query starts at ``max(arrival, earliest free worker)`` (§7).
:func:`simulate` is that loop, and the only one: ``serve_trace`` on an
engine or a cluster, :class:`OpenLoopSimulator` and the experiments all
call it.

* **Closed loop** (``arrivals=None``) measures *capacity*: each query
  arrives when the earliest worker frees, so it starts at once and never
  waits in the queue.
* **Open loop** (explicit ``arrivals``, e.g. Poisson from
  :class:`OpenLoopSimulator`) measures latency under load: requests
  queue when every worker is busy, and latency explodes as the offered
  load approaches capacity.

Overload resilience (:mod:`repro.overload`) plugs in here: an
:class:`~repro.overload.AdmissionConfig` bounds the arrival queue and
sheds excess work, and a :class:`~repro.overload.BrownoutConfig` runs a
feedback controller that steps the engine through the degradation
ladder when the latency signal stays hot.  Left unset, the queue is
unbounded and the engine always serves at full service.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from ..errors import ServingError
from ..overload import (
    AdmissionConfig,
    AdmissionQueue,
    BrownoutConfig,
    BrownoutController,
    DegradeConfig,
    QueueEntry,
    default_ladder,
    engine_hotness,
)
from ..types import Query
from ..utils.rng import RngLike, make_rng
from .stats import ServingReport


def simulate(
    engine,
    queries: Sequence[Query],
    arrivals: "Sequence[float] | None" = None,
    *,
    warmup: int = 0,
    admission: "AdmissionConfig | None" = None,
    brownout: "BrownoutConfig | None" = None,
    ladder: "DegradeConfig | None" = None,
) -> ServingReport:
    """Serve ``queries`` on ``engine.config.threads`` simulated workers.

    Args:
        engine: a :class:`~repro.serving.ServingEngine` or anything
            duck-typed like one (``config.threads``, ``config.spec`` and
            ``serve_query(query, start_us, degrade)``), a
            :class:`~repro.cluster.ClusterEngine` included.
        queries: the request stream, dispatched in order.
        arrivals: non-decreasing arrival time of each query; None is a
            closed loop (each query arrives when the earliest worker
            frees).
        warmup: head queries served but left out of the report (cache
            warm-up and queue ramp); at least one query must be measured.
        admission: bounded-queue admission control (None = unbounded).
        brownout: degradation feedback controller (None = never degrade).
        ladder: the rungs the controller walks (default:
            :func:`~repro.overload.default_ladder`).
    """
    queries = list(queries)
    if not queries:
        raise ServingError("cannot simulate an empty stream")
    if not 0 <= warmup < len(queries):
        raise ServingError(
            f"warmup ({warmup}) must be in [0, {len(queries)}): at least "
            f"one of the {len(queries)} queries must be measured"
        )
    spec = engine.config.spec
    report = ServingReport(
        page_size=spec.page_size,
        embedding_bytes=spec.embedding_bytes,
        offered=len(queries) - warmup,
    )
    # The worker pool: a min-heap of next-free times.
    workers = [0.0] * engine.config.threads
    serve = engine.serve_query
    add = report.add
    if arrivals is None and brownout is None:
        # Nothing ever waits, so the queue and the controller drop out.
        # Each query starts (arrives) at the earliest free worker.  The
        # report is filled after the loop: interleaving its bookkeeping
        # with the engine calls cost 2-4 % of a DRAM-bound engine's host
        # time (EXPERIMENTS.md).
        results = []
        for query in queries:
            result = serve(query, workers[0])
            heapq.heapreplace(workers, result.finish_us)
            results.append(result)
        for result in results[warmup:]:
            add(result, result.start_us)
        return report
    if arrivals is not None:
        if len(arrivals) != len(queries):
            raise ServingError(
                f"{len(arrivals)} arrivals for {len(queries)} queries"
            )
        if list(arrivals) != sorted(arrivals):
            raise ServingError("arrival times must be non-decreasing")
        span = arrivals[-1] - arrivals[0]
        if span > 0:
            report.offered_qps = len(arrivals) / (span * 1e-6)
    ladder = ladder if ladder is not None else default_ladder()
    queue = AdmissionQueue(admission)
    controller = (
        BrownoutController(brownout, max_level=ladder.max_level)
        if brownout is not None
        else None
    )
    hotness = None
    if admission is not None and admission.policy == "priority":
        hotness = engine_hotness(engine)
    shed = report.shed

    def dispatch(entry: QueueEntry, start: float) -> None:
        degrade = None
        if controller is not None and controller.level > 0:
            degrade = ladder.level(controller.level)
        if degrade is None:
            result = serve(entry.query, start)
        else:
            result = serve(entry.query, start, degrade)
        heapq.heappush(workers, result.finish_us)
        if controller is not None:
            # Observed at dispatch time (monotone across dispatches);
            # the latency itself is known because service is simulated.
            controller.observe(
                result.finish_us - entry.arrival_us, queue.depth, start
            )
        if entry.index >= warmup:
            add(result, entry.arrival_us)

    def drain_until(now_us: float) -> None:
        """Dispatch queued work to every worker freeing by ``now_us``."""
        while len(queue) and workers[0] <= now_us:
            free_at = heapq.heappop(workers)
            run, missed = queue.take_run(free_at, 1)
            report.deadline_misses += sum(
                1 for late in missed if late.index >= warmup
            )
            if not run:
                heapq.heappush(workers, free_at)
                break
            (entry,) = run
            dispatch(entry, max(entry.arrival_us, free_at))

    for index, query in enumerate(queries):
        arrival = workers[0] if arrivals is None else float(arrivals[index])
        drain_until(arrival)
        entry = QueueEntry(
            arrival_us=arrival,
            index=index,
            query=query,
            priority=hotness(query.keys) if hotness is not None else 0.0,
        )
        if not len(queue) and workers[0] <= arrival:
            # A worker is idle and nobody is waiting: serve directly.
            heapq.heappop(workers)
            dispatch(entry, arrival)
        else:
            for victim, reason in queue.offer(entry, arrival):
                if victim.index >= warmup:
                    shed[reason] = shed.get(reason, 0) + 1
    drain_until(float("inf"))
    if controller is not None:
        report.brownout_transitions = list(controller.transitions)
        report.final_degrade_level = controller.level
    return report


class OpenLoopSimulator:
    """Poisson arrivals, FIFO queue, fixed worker pool, one engine.

    Args:
        engine: anything :func:`simulate` serves, a
            :class:`~repro.cluster.ClusterEngine` included.
        seed: arrival-process RNG seed.
        admission: bounded-queue admission control (None = unbounded
            queueing).
        brownout: degradation feedback controller config (None = never
            degrade).
        ladder: degradation ladder the controller walks (default:
            :func:`~repro.overload.default_ladder`).
    """

    def __init__(
        self,
        engine,
        seed: RngLike = 0,
        admission: "AdmissionConfig | None" = None,
        brownout: "BrownoutConfig | None" = None,
        ladder: "DegradeConfig | None" = None,
    ) -> None:
        self.engine = engine
        self._rng = make_rng(seed)
        self.admission = admission
        self.brownout = brownout
        self.ladder = ladder

    def run(
        self,
        queries: Sequence[Query],
        offered_qps: float,
        warmup_fraction: float = 0.1,
    ) -> ServingReport:
        """Offer ``queries`` at ``offered_qps`` and measure latency.

        Args:
            queries: the request stream (order preserved).
            offered_qps: mean arrival rate (Poisson process).
            warmup_fraction: head fraction excluded from the report
                (cache warm-up and queue ramp).
        """
        if offered_qps <= 0:
            raise ServingError(
                f"offered_qps must be positive, got {offered_qps}"
            )
        queries = list(queries)
        mean_gap_us = 1e6 / offered_qps
        gaps = self._rng.exponential(mean_gap_us, size=len(queries))
        arrivals = np.cumsum(gaps).tolist()
        return self.run_arrivals(
            queries,
            arrivals,
            offered_qps=offered_qps,
            warmup_fraction=warmup_fraction,
        )

    def run_arrivals(
        self,
        queries: Sequence[Query],
        arrivals: Sequence[float],
        offered_qps: "float | None" = None,
        warmup_fraction: float = 0.1,
    ) -> ServingReport:
        """Serve ``queries`` at explicit arrival times.

        Accepts arrival schedules from any process — in particular the
        non-homogeneous profiles of :mod:`repro.workloads.temporal`.
        ``offered_qps`` (default: measured over the arrivals) is what the
        report records as the offered rate.
        """
        if not 0.0 <= warmup_fraction < 1.0:
            raise ServingError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
            )
        report = simulate(
            self.engine,
            queries,
            arrivals,
            warmup=int(len(queries) * warmup_fraction),
            admission=self.admission,
            brownout=self.brownout,
            ladder=self.ladder,
        )
        if offered_qps is not None:
            report.offered_qps = offered_qps
        return report
