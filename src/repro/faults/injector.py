"""Fault injection engine: turns a :class:`FaultPlan` into per-read decisions.

The :class:`FaultInjector` is the stateful side of the fault subsystem:
it owns the monotonically increasing submission sequence number that
decorrelates transient draws across a workload, and the counters the
observability layer reports.  Decisions themselves are pure functions of
the plan (see :mod:`repro.faults.plan`), so two injectors built from the
same plan and fed the same submission stream make identical calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .plan import FaultPlan

OK = "ok"
READ_ERROR = "read_error"
DEAD_PAGE = "dead_page"
BROWNOUT = "brownout"
CORRUPT = "corrupt"
LATENCY_SPIKE = "latency_spike"

#: Fault kinds that abort the submission (no completion is produced).
SUBMIT_FAILURES = frozenset({READ_ERROR, DEAD_PAGE, BROWNOUT})


@dataclass(frozen=True)
class FaultDecision:
    """Outcome of one submission attempt under the active plan.

    Attributes:
        kind: one of ``ok``/``read_error``/``dead_page``/``brownout``/
            ``corrupt``/``latency_spike``.
        extra_latency_us: additional completion latency (spikes only).
        retry_at_us: earliest simulated time a retry can succeed
            (brown-outs only; 0 otherwise).
    """

    kind: str
    extra_latency_us: float = 0.0
    retry_at_us: float = 0.0


class FaultInjector:
    """Stateful driver of a :class:`FaultPlan`.

    One injector per device: the submission sequence number advances on
    every decision, so repeated reads of the same page draw fresh
    transient faults while dead-page decisions stay fixed.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._seq = 0
        self.counters: Dict[str, int] = {
            READ_ERROR: 0,
            DEAD_PAGE: 0,
            BROWNOUT: 0,
            CORRUPT: 0,
            LATENCY_SPIKE: 0,
        }

    def decide(
        self, page_id: int, now_us: float, attempt: int = 0
    ) -> FaultDecision:
        """Decide the fate of one submission attempt.

        Precedence: dead page (persistent) > brown-out (time-driven) >
        transient read error > corrupted payload > latency spike > ok.
        """
        seq = self._seq
        self._seq += 1
        plan = self.plan
        if plan.page_is_dead(page_id):
            self.counters[DEAD_PAGE] += 1
            return FaultDecision(DEAD_PAGE)
        if plan.in_brownout(now_us):
            self.counters[BROWNOUT] += 1
            return FaultDecision(
                BROWNOUT, retry_at_us=plan.brownout_end(now_us)
            )
        if plan.draw_read_error(page_id, attempt, seq):
            self.counters[READ_ERROR] += 1
            return FaultDecision(READ_ERROR)
        if plan.draw_corrupt(page_id, attempt, seq):
            self.counters[CORRUPT] += 1
            return FaultDecision(CORRUPT)
        if plan.draw_spike(page_id, attempt, seq):
            self.counters[LATENCY_SPIKE] += 1
            return FaultDecision(
                LATENCY_SPIKE, extra_latency_us=plan.latency_spike_us
            )
        return FaultDecision(OK)
