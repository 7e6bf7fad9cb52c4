"""Open-loop load simulation: Poisson arrivals against the serving engine.

``ServingEngine.serve_trace`` is closed-loop — a fixed worker pool always
has the next query ready, which measures *capacity*.  Production serving
is open-loop: requests arrive on their own schedule, queue when all
workers are busy, and latency explodes as the offered load approaches
capacity.  :class:`OpenLoopSimulator` models that: exponential
inter-arrival times at a configured QPS, FIFO dispatch onto ``threads``
simulated workers, and per-query queueing + service latency.

Overload resilience (:mod:`repro.overload`) plugs in here: an
:class:`~repro.overload.AdmissionConfig` bounds the arrival queue and
sheds excess work, and a :class:`~repro.overload.BrownoutConfig` runs a
feedback controller that steps the engine through the degradation
ladder when the latency signal stays hot.  With both left unset (the
default) the simulator runs the legacy queue-forever path, bit-identical
to builds without the overload subsystem.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ServingError
from ..overload import (
    AdmissionConfig,
    AdmissionQueue,
    BrownoutConfig,
    BrownoutController,
    BrownoutTransition,
    DegradeConfig,
    QueueEntry,
    default_ladder,
    engine_hotness,
)
from ..types import Query
from ..utils.reservoir import percentile
from ..utils.rng import RngLike, make_rng
from .engine import ServingEngine


@dataclass
class OpenLoopResult:
    """One served arrival."""

    arrival_us: float
    start_us: float
    finish_us: float
    requested_keys: int = 0
    missing_keys: int = 0
    degrade_level: int = 0
    retries: int = 0
    recovered_keys: int = 0

    @property
    def queue_wait_us(self) -> float:
        """Time spent waiting for a free worker."""
        return self.start_us - self.arrival_us

    @property
    def latency_us(self) -> float:
        """Arrival-to-completion latency (queueing + service)."""
        return self.finish_us - self.arrival_us

    @property
    def full_coverage(self) -> bool:
        """True when every requested key was served."""
        return self.missing_keys == 0


@dataclass
class OpenLoopReport:
    """Aggregate open-loop metrics.

    ``offered`` counts the post-warmup arrivals the stream presented
    (completions + sheds + deadline misses); 0 means unknown (hand-built
    reports) and falls back to the completion count.
    """

    offered_qps: float
    results: List[OpenLoopResult] = field(default_factory=list)
    offered: int = 0
    shed: Dict[str, int] = field(default_factory=dict)
    deadline_misses: int = 0
    brownout_transitions: List[BrownoutTransition] = field(
        default_factory=list
    )
    final_degrade_level: int = 0

    def mean_latency_us(self) -> float:
        """Mean arrival-to-completion latency."""
        if not self.results:
            return 0.0
        return float(np.mean([r.latency_us for r in self.results]))

    def percentile_latency_us(self, pct: float) -> float:
        """Latency percentile."""
        if not self.results:
            return 0.0
        return percentile([r.latency_us for r in self.results], pct)

    def mean_queue_wait_us(self) -> float:
        """Mean time spent queued before service."""
        if not self.results:
            return 0.0
        return float(np.mean([r.queue_wait_us for r in self.results]))

    # -- spans and rates -------------------------------------------------------

    def span_us(self) -> float:
        """Simulated span of the measured (post-warmup) completions.

        Measured from the first post-warmup arrival to the last
        completion.  Returns 0.0 with fewer than two results — a single
        completion has no measurable span.  Both :meth:`achieved_qps`
        and :meth:`goodput_qps` divide by this one accessor, so the two
        rates can never disagree about the time base.
        """
        if len(self.results) < 2:
            return 0.0
        return max(r.finish_us for r in self.results) - min(
            r.arrival_us for r in self.results
        )

    def achieved_qps(self) -> float:
        """Completions per second over :meth:`span_us`.

        Semantics: counts every completed request (shed requests never
        complete), over the span of post-warmup results only — warmup
        completions neither count nor stretch the span.  A report with
        fewer than two results returns 0.0 because its span is
        unmeasurable, *not* because nothing completed.
        """
        span = self.span_us()
        return len(self.results) / (span * 1e-6) if span > 0 else 0.0

    def goodput_qps(self, latency_slo_us: "float | None" = None) -> float:
        """On-time, full-coverage completions per second.

        The overload headline metric: a completion counts only when
        every requested key was served (no fault losses, no degradation
        shedding) *and*, when ``latency_slo_us`` is given, it finished
        within that arrival-to-completion budget.  Uses the same
        :meth:`span_us` time base as :meth:`achieved_qps`.
        """
        span = self.span_us()
        if span <= 0:
            return 0.0
        good = sum(
            1
            for r in self.results
            if r.full_coverage
            and (latency_slo_us is None or r.latency_us <= latency_slo_us)
        )
        return good / (span * 1e-6)

    # -- overload accounting ---------------------------------------------------

    @property
    def shed_count(self) -> int:
        """Arrivals rejected by admission control (all reasons)."""
        return sum(self.shed.values())

    def offered_count(self) -> int:
        """Post-warmup arrivals offered (falls back to completions)."""
        if self.offered:
            return self.offered
        return len(self.results)

    def completion_rate(self) -> float:
        """Fraction of offered arrivals that completed (1.0 = no shedding)."""
        offered = self.offered_count()
        return len(self.results) / offered if offered else 0.0

    def degraded_count(self) -> int:
        """Completions served at a degradation rung above full service."""
        return sum(1 for r in self.results if r.degrade_level > 0)

    # -- serialization ---------------------------------------------------------

    def as_dict(
        self, latency_slo_us: "float | None" = None
    ) -> Dict[str, object]:
        """Headline metrics as one flat JSON-ready mapping.

        Same shape discipline as
        :meth:`~repro.cluster.stats.ClusterReport.as_dict`: the service
        ``/metrics`` endpoint and the benches both emit this, so a live
        gateway's counters reconcile field-by-field with a simulator
        report.  ``latency_slo_us`` threads through to
        :meth:`goodput_qps`.
        """
        return {
            "offered_qps": round(self.offered_qps, 1),
            "offered": self.offered_count(),
            "completed": len(self.results),
            "achieved_qps": round(self.achieved_qps(), 1),
            "goodput_qps": round(self.goodput_qps(latency_slo_us), 1),
            "mean_latency_us": round(self.mean_latency_us(), 3),
            "p50_latency_us": round(self.percentile_latency_us(50.0), 3),
            "p99_latency_us": round(self.percentile_latency_us(99.0), 3),
            "mean_queue_wait_us": round(self.mean_queue_wait_us(), 3),
            "completion_rate": round(self.completion_rate(), 4),
            "shed": dict(self.shed),
            "shed_total": self.shed_count,
            "deadline_misses": self.deadline_misses,
            "degraded_completions": self.degraded_count(),
            "brownout_transitions": len(self.brownout_transitions),
            "final_degrade_level": self.final_degrade_level,
        }


class OpenLoopSimulator:
    """Poisson arrivals, FIFO queue, fixed worker pool, one engine.

    Args:
        engine: a :class:`~repro.serving.ServingEngine` or anything
            duck-typed like one (``config.threads`` + ``serve_query``),
            including a :class:`~repro.cluster.ClusterEngine`.
        seed: arrival-process RNG seed.
        admission: bounded-queue admission control (None = legacy
            unbounded queueing).
        brownout: degradation feedback controller config (None = never
            degrade).
        ladder: degradation ladder the controller walks (default:
            :func:`~repro.overload.default_ladder`).
    """

    def __init__(
        self,
        engine: ServingEngine,
        seed: RngLike = 0,
        admission: "AdmissionConfig | None" = None,
        brownout: "BrownoutConfig | None" = None,
        ladder: "DegradeConfig | None" = None,
    ) -> None:
        self.engine = engine
        self._rng = make_rng(seed)
        self.admission = admission
        self.brownout = brownout
        self.ladder = ladder if ladder is not None else default_ladder()

    def run(
        self,
        queries: Sequence[Query],
        offered_qps: float,
        warmup_fraction: float = 0.1,
    ) -> OpenLoopReport:
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
        if not queries:
            raise ServingError("cannot simulate an empty stream")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ServingError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
            )
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
    ) -> OpenLoopReport:
        """Serve ``queries`` at explicit arrival times.

        Accepts arrival schedules from any process — in particular the
        non-homogeneous profiles of :mod:`repro.workloads.temporal`.
        """
        queries = list(queries)
        if not queries:
            raise ServingError("cannot simulate an empty stream")
        if len(arrivals) != len(queries):
            raise ServingError(
                f"{len(arrivals)} arrivals for {len(queries)} queries"
            )
        if list(arrivals) != sorted(arrivals):
            raise ServingError("arrival times must be non-decreasing")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ServingError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
            )
        if offered_qps is None:
            span = arrivals[-1] - arrivals[0] if len(arrivals) > 1 else 0.0
            offered_qps = (
                len(arrivals) / (span * 1e-6) if span > 0 else 0.0
            )
        if self.admission is None and self.brownout is None:
            return self._run_legacy(
                queries, arrivals, offered_qps, warmup_fraction
            )
        return self._run_admitted(
            queries, arrivals, offered_qps, warmup_fraction
        )

    def _run_legacy(
        self,
        queries: List[Query],
        arrivals: Sequence[float],
        offered_qps: float,
        warmup_fraction: float,
    ) -> OpenLoopReport:
        """The original unbounded-queue loop (bit-identical serving)."""
        # Worker pool as a min-heap of next-free times.
        workers = [0.0] * self.engine.config.threads
        heapq.heapify(workers)
        results: List[OpenLoopResult] = []
        warmup = int(len(queries) * warmup_fraction)
        for index, (query, arrival) in enumerate(zip(queries, arrivals)):
            free_at = heapq.heappop(workers)
            start = max(float(arrival), free_at)
            outcome = self.engine.serve_query(query, start_us=start)
            heapq.heappush(workers, outcome.finish_us)
            if index >= warmup:
                results.append(
                    OpenLoopResult(
                        arrival_us=float(arrival),
                        start_us=start,
                        finish_us=outcome.finish_us,
                        requested_keys=outcome.requested_keys,
                        missing_keys=outcome.missing_keys,
                        degrade_level=outcome.degrade_level,
                        retries=outcome.retries,
                        recovered_keys=outcome.recovered_keys,
                    )
                )
        return OpenLoopReport(
            offered_qps=offered_qps,
            results=results,
            offered=len(queries) - warmup,
        )

    def _run_admitted(
        self,
        queries: List[Query],
        arrivals: Sequence[float],
        offered_qps: float,
        warmup_fraction: float,
    ) -> OpenLoopReport:
        """Event-driven loop with admission control and/or brownout.

        Semantics match :meth:`_run_legacy` exactly when the admission
        queue is unbounded and the controller never leaves level 0 (the
        parity tests pin this): requests dispatch in arrival order to
        the earliest-free worker, starting at
        ``max(arrival, worker_free)``.
        """
        queue = AdmissionQueue(self.admission)
        controller = (
            BrownoutController(self.brownout, max_level=self.ladder.max_level)
            if self.brownout is not None
            else None
        )
        hotness = None
        if self.admission is not None and self.admission.policy == "priority":
            hotness = engine_hotness(self.engine)
        workers = [0.0] * self.engine.config.threads
        heapq.heapify(workers)
        warmup = int(len(queries) * warmup_fraction)
        results: List[OpenLoopResult] = []
        shed: Dict[str, int] = {}
        deadline_misses = 0

        def count_shed(events) -> None:
            for entry, reason in events:
                if entry.index >= warmup:
                    shed[reason] = shed.get(reason, 0) + 1

        def count_missed(entries) -> None:
            nonlocal deadline_misses
            for entry in entries:
                if entry.index >= warmup:
                    deadline_misses += 1

        def serve(entry: QueueEntry, start: float) -> None:
            degrade = None
            if controller is not None and controller.level > 0:
                degrade = self.ladder.level(controller.level)
            outcome = self.engine.serve_query(
                entry.query, start_us=start, degrade=degrade
            )
            heapq.heappush(workers, outcome.finish_us)
            if controller is not None:
                # Observed at dispatch time (monotone across dispatches);
                # the latency itself is known because service is simulated.
                controller.observe(
                    outcome.finish_us - entry.arrival_us,
                    queue.depth,
                    start,
                )
            if entry.index >= warmup:
                results.append(
                    OpenLoopResult(
                        arrival_us=entry.arrival_us,
                        start_us=start,
                        finish_us=outcome.finish_us,
                        requested_keys=outcome.requested_keys,
                        missing_keys=outcome.missing_keys,
                        degrade_level=outcome.degrade_level,
                        retries=outcome.retries,
                        recovered_keys=outcome.recovered_keys,
                    )
                )

        def drain_until(now_us: float) -> None:
            """Dispatch queued work to every worker freeing by ``now_us``."""
            while len(queue) and workers[0] <= now_us:
                free_at = heapq.heappop(workers)
                entry, missed = queue.take(free_at)
                count_missed(missed)
                if entry is None:
                    heapq.heappush(workers, free_at)
                    break
                serve(entry, max(entry.arrival_us, free_at))

        for index, (query, raw_arrival) in enumerate(zip(queries, arrivals)):
            arrival = float(raw_arrival)
            drain_until(arrival)
            priority = hotness(query) if hotness is not None else 0.0
            entry = QueueEntry(
                arrival_us=arrival,
                index=index,
                query=query,
                priority=priority,
            )
            if not len(queue) and workers[0] <= arrival:
                # A worker is idle and nobody is waiting: serve directly.
                heapq.heappop(workers)
                serve(entry, arrival)
            else:
                count_shed(queue.offer(entry, arrival))
        drain_until(float("inf"))
        return OpenLoopReport(
            offered_qps=offered_qps,
            results=results,
            offered=len(queries) - warmup,
            shed=shed,
            deadline_misses=deadline_misses,
            brownout_transitions=(
                list(controller.transitions) if controller is not None else []
            ),
            final_degrade_level=(
                controller.level if controller is not None else 0
            ),
        )

    def latency_curve(
        self,
        queries: Sequence[Query],
        load_points: Sequence[float],
        capacity_qps: float,
        warmup_fraction: float = 0.1,
    ) -> List[OpenLoopReport]:
        """Sweep offered load as fractions of a measured capacity.

        Args:
            queries: request stream reused at every point.
            load_points: utilization fractions (e.g. ``(0.2, 0.5, 0.8)``).
            capacity_qps: closed-loop capacity to scale against.
            warmup_fraction: head fraction excluded at every point
                (threaded through to :meth:`run` so sweeps measure the
                same window they configure).
        """
        if capacity_qps <= 0:
            raise ServingError(
                f"capacity_qps must be positive, got {capacity_qps}"
            )
        reports = []
        for fraction in load_points:
            if fraction <= 0:
                raise ServingError(
                    f"load fractions must be positive, got {fraction}"
                )
            reports.append(
                self.run(
                    queries,
                    capacity_qps * fraction,
                    warmup_fraction=warmup_fraction,
                )
            )
        return reports
