"""The untraced run: set-ups, gate, timed rounds, one simulated pass.

Interference on a shared VM only ever adds time, so wall metrics come from
the fastest pass, taken segment by segment: a round is a fixed list of
operations run as a few segments of 5–7 ms, and the clean round is the sum
of each segment's fastest time over all rounds.  A 40 ms round is rarely
free of interference from end to end when the host is busy; a 5 ms segment
often is.  Simulated metrics come from exactly one ``serve_trace`` on a
fresh engine, because repeated calls on one engine carry the device clock
forward.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass
from typing import Dict, List

from . import host
from .deploy import Workload, check_report, deploy, make_inputs

WARMUP_ROUNDS = 2
#: ``peak_rss_mb`` is read after exactly this many timed rounds: the
#: gateway keeps every result, so RSS at "the end" would scale with speed.
RSS_ROUNDS = 20
SETUPS = 7


@dataclass
class Round:
    segments_ns: List[int]
    cpu_ns: int
    steal_ticks: int

    @property
    def wall_ns(self) -> int:
        return sum(self.segments_ns)


def split(items: list, segments: int) -> List[list]:
    """``items`` as ``segments`` consecutive slices (the last takes the rest)."""
    size = max(1, len(items) // segments)
    cuts = [i * size for i in range(segments)] + [len(items)]
    return [items[a:b] for a, b in zip(cuts, cuts[1:]) if a < b]


class RoundRunner:
    """Repeats one fixed list of operations; checks each after the clock."""

    def __init__(self, deployment, items: list, segments: int, cpu: int) -> None:
        self.deployment = deployment
        self.items = items
        self.segments = split(items, segments)
        self.cpu = cpu
        self.rounds: List[Round] = []
        self.attempted = 0
        self.failed = 0

    def run(self, record: bool = True):
        """One round; returns (start_ns, end_ns, per-segment results)."""
        run_round = self.deployment.run_round
        clock = time.perf_counter_ns
        results, stamps = [], []
        steal0, _ = host.cpu_ticks(self.cpu)
        cpu0 = time.process_time_ns()
        for segment in self.segments:
            start = clock()
            result = run_round(segment)
            stamps.append((start, clock()))
            results.append(result)
        cpu1 = time.process_time_ns()
        steal1, _ = host.cpu_ticks(self.cpu)
        for segment, result in zip(self.segments, results):
            self.attempted += len(segment)
            self.failed += self.deployment.check_round(segment, result)
        if record:
            self.rounds.append(
                Round([b - a for a, b in stamps], cpu1 - cpu0, steal1 - steal0)
            )
        return stamps[0][0], stamps[-1][1], results

    def best(self) -> Round:
        """The fastest whole round (a diagnostic; see :meth:`clean_ns`)."""
        return min(self.rounds, key=lambda r: r.wall_ns)

    def clean_ns(self) -> int:
        """Wall time of a round made of each segment's fastest pass."""
        return sum(
            min(r.segments_ns[i] for r in self.rounds)
            for i in range(len(self.segments))
        )

    def noise_frac(self) -> float:
        """1 − clean/median round: how far the typical round sat from clean."""
        median = statistics.median(r.wall_ns for r in self.rounds)
        return 1.0 - self.clean_ns() / median


def timed_setup(workload: Workload, history) -> float:
    start = time.perf_counter()
    deployment = deploy(workload, history)
    elapsed = time.perf_counter() - start
    deployment.close()
    return elapsed


def sim_metrics(report) -> Dict[str, float]:
    serving = getattr(report, "report", report)
    return {
        "sim_qps": serving.throughput_qps(),
        "sim_p99_us": serving.percentile_latency_us(99.0),
        "pages_per_query": serving.total_pages_read / serving.num_queries,
        "effective_bw_frac": serving.effective_bandwidth_fraction(),
    }


def steal_frac(before, after) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


def run_untraced(
    workload: Workload, seed: int, seconds: float, cpu: int, quick: bool
) -> dict:
    """Measure one workload; returns metrics, diagnostics and the tally."""
    ticks0 = host.cpu_ticks(cpu)
    history, draw = make_inputs(seed)
    count, segments = workload.round_shape(quick)
    setups_wanted = 2 if quick else SETUPS
    rss_rounds = 3 if quick else RSS_ROUNDS

    start = time.perf_counter()
    deployment = deploy(workload, history)
    setups = [time.perf_counter() - start]
    try:
        attempted, failed = deployment.gate(draw, seed)
        runner = RoundRunner(
            deployment, deployment.round_items(draw, count), segments, cpu
        )
        for _ in range(WARMUP_ROUNDS):
            runner.run(record=False)
        window = time.perf_counter()
        for _ in range(rss_rounds):
            runner.run()
        peak_rss_kb = host.peak_rss_kb()
        # The other set-ups are spread over the window so that one slow
        # stretch of the host cannot cover them all.
        due = [
            window + seconds * k / setups_wanted
            for k in range(1, setups_wanted)
        ]
        while time.perf_counter() < window + seconds:
            if due and time.perf_counter() >= due[0]:
                due.pop(0)
                setups.append(timed_setup(workload, history))
            runner.run()
        while len(setups) < setups_wanted:
            setups.append(timed_setup(workload, history))
        failed += deployment.final_check()
        report, _ = deployment.sim_pass(draw)
    finally:
        deployment.close()
    attempted += runner.attempted + len(draw)
    failed += runner.failed + check_report(report, len(draw))

    best, clean_ns = runner.best(), runner.clean_ns()
    if best.steal_ticks:
        print(
            f"warning: the fastest round overlapped {best.steal_ticks} "
            f"steal tick(s) on cpu{cpu}; wall_qps may be pessimistic",
            file=sys.stderr,
        )
    metrics = {
        "wall_qps": count / (clean_ns * 1e-9),
        "setup_s": min(setups),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        **sim_metrics(report),
    }
    diagnostics = {
        "host.noise_frac": runner.noise_frac(),
        "host.steal_frac": steal_frac(ticks0, host.cpu_ticks(cpu)),
        "rounds": len(runner.rounds),
        "round_queries": count,
        "clean_round_ms": clean_ns * 1e-6,
        "best_round_ms": best.wall_ns * 1e-6,
        "cpu_us_per_query": min(r.cpu_ns for r in runner.rounds) * 1e-3 / count,
        "setups_s": setups,
    }
    return {
        "metrics": metrics,
        "diagnostics": diagnostics,
        "attempted": attempted,
        "failed": failed,
    }
