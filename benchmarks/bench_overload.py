"""Overload resilience bench: goodput with and without the controllers.

Measures the closed-loop capacity of a criteo engine, then sweeps
open-loop offered load past saturation — {0.5, 1.0, 1.5, 2.0} x capacity
— twice per point:

* **off** — the legacy unbounded queue: every arrival is eventually
  served, so past capacity the backlog grows without bound, latency
  explodes, and goodput (on-time, full-coverage completions per second)
  collapses;
* **on** — deadline-drop admission control plus the brownout controller:
  excess arrivals are shed early, waits stay bounded, and the requests
  that are served finish inside the SLO.

Emits machine-readable ``benchmarks/results/overload.json``: capacity,
the derived latency SLO, and per-point achieved/goodput qps, p99, shed
and deadline-miss counts, degraded completions, and brownout
transitions.

Contract checks: below capacity the two modes are comparable (admission
control must not tax an unloaded engine); at >= 1.5x capacity the
controllers must deliver at least 2x the goodput of the unbounded queue
while keeping p99 bounded near the SLO; and the controller-on sweep is
bit-reproducible from its seeds.

Run standalone with ``python benchmarks/bench_overload.py``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from conftest import RESULTS_DIR, bench_max_queries, bench_scale

from repro.experiments.common import get_split_trace, layout_for
from repro.overload import AdmissionConfig, BrownoutConfig, default_ladder
from repro.serving import EngineConfig, OpenLoopSimulator, ServingEngine
from repro.types import QueryTrace

REPLICATION_RATIO = 0.4
LOAD_POINTS = (0.5, 1.0, 1.5, 2.0)
BENCH_SEED = int(os.environ.get("REPRO_OVERLOAD_SEED", "0"))
WARMUP_FRACTION = 0.1


def _overload_knobs(slo_us: float, page_cap: int) -> dict:
    """Controller-on simulator kwargs derived from the measured SLO.

    ``page_cap`` (rung 1 of the ladder) comes from the workload — about
    twice the closed-loop mean pages-per-query — so degradation trims
    the expensive tail rather than amputating typical queries.
    """
    return {
        "admission": AdmissionConfig(
            capacity=32,
            policy="deadline",
            queue_deadline_us=slo_us / 2.0,
        ),
        "brownout": BrownoutConfig(
            high_watermark_us=0.8 * slo_us,
            low_watermark_us=0.3 * slo_us,
            queue_high=24,
            dwell_us=20 * slo_us,
        ),
        "ladder": default_ladder(page_cap),
    }


def _row(fraction: float, offered_qps: float, report, slo_us: float) -> dict:
    return {
        "load_fraction": fraction,
        "offered_qps": round(offered_qps, 1),
        "achieved_qps": round(report.throughput_qps(), 1),
        "goodput_qps": round(report.goodput_qps(slo_us), 1),
        "mean_latency_us": round(report.mean_latency_us(), 3),
        "p99_latency_us": round(report.percentile_latency_us(99.0), 3),
        "completion_rate": round(report.completion_rate(), 4),
        "shed": dict(report.shed),
        "deadline_misses": report.deadline_misses,
        "degraded_completions": report.degraded_mode_queries(),
        "brownout_transitions": len(report.brownout_transitions),
        "final_degrade_level": report.final_degrade_level,
    }


def run_overload_bench(scale: str) -> dict:
    """Sweep offered load past capacity, controllers off then on."""
    _, live = get_split_trace("criteo", scale)
    layout = layout_for("criteo", "maxembed", REPLICATION_RATIO, scale)
    cap = bench_max_queries()
    queries = list(live.queries[:cap] if cap else live.queries)

    def engine() -> ServingEngine:
        return ServingEngine(layout, EngineConfig())

    closed = engine().serve_trace(
        QueryTrace(live.num_keys, list(queries)),
        warmup_queries=len(queries) // 10,
    )
    # Rounded once here so the published values are exactly the ones the
    # sweep used (the determinism check replays from the JSON document).
    capacity_qps = round(closed.throughput_qps(), 1)
    # SLO: generous headroom over the closed-loop p99 service latency —
    # met easily below capacity, unreachable once the queue grows.
    slo_us = round(4.0 * closed.percentile_latency_us(99.0), 3)
    page_cap = max(8, round(2.0 * closed.total_pages_read / len(queries)))

    def sweep(knobs: dict) -> list:
        rows = []
        for fraction in LOAD_POINTS:
            simulator = OpenLoopSimulator(engine(), seed=BENCH_SEED, **knobs)
            report = simulator.run(
                queries,
                capacity_qps * fraction,
                warmup_fraction=WARMUP_FRACTION,
            )
            rows.append(
                _row(fraction, capacity_qps * fraction, report, slo_us)
            )
        return rows

    rows_off = sweep({})
    rows_on = sweep(_overload_knobs(slo_us, page_cap))
    return {
        "bench": "overload",
        "dataset": "criteo",
        "scale": scale,
        "seed": BENCH_SEED,
        "replication_ratio": REPLICATION_RATIO,
        "num_queries": len(queries),
        "capacity_qps": capacity_qps,
        "latency_slo_us": slo_us,
        "degrade_page_cap": page_cap,
        "controller_off": rows_off,
        "controller_on": rows_on,
    }


def publish_json(document: dict) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "overload.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def test_goodput_under_saturation(scale):
    document = run_overload_bench(scale)
    path = publish_json(document)
    slo = document["latency_slo_us"]
    lines = [
        f"overload bench ({document['num_queries']} queries, capacity "
        f"{document['capacity_qps']:.0f} qps, slo {slo:.0f} us) -> {path}"
    ]
    for off, on in zip(document["controller_off"], document["controller_on"]):
        lines.append(
            f"  {off['load_fraction']:>4.2f}x  "
            f"goodput off {off['goodput_qps']:>9.0f} / on "
            f"{on['goodput_qps']:>9.0f} qps  "
            f"p99 off {off['p99_latency_us']:>12.0f} / on "
            f"{on['p99_latency_us']:>9.0f} us  "
            f"shed {sum(on['shed'].values()):>5d}  "
            f"degraded {on['degraded_completions']}"
        )
    print("\n" + "\n".join(lines))
    for off, on in zip(document["controller_off"], document["controller_on"]):
        if off["load_fraction"] < 1.0:
            # Uncongested: the controllers must be close to invisible.
            assert on["goodput_qps"] >= 0.8 * off["goodput_qps"]
        if off["load_fraction"] >= 1.5:
            # Saturated: shedding must rescue goodput from collapse...
            assert on["goodput_qps"] >= 2.0 * off["goodput_qps"], (
                f"controllers did not pay off at "
                f"{off['load_fraction']}x: {on['goodput_qps']} vs "
                f"{off['goodput_qps']}"
            )
            # ...while keeping the served requests' p99 bounded near the
            # SLO (the unbounded queue blows through it).
            assert on["p99_latency_us"] <= 2.0 * slo
            assert sum(on["shed"].values()) + on["deadline_misses"] > 0
    # Seeded determinism: replaying the saturated controller-on point
    # reproduces the sweep's row bit-for-bit.
    replay = OpenLoopSimulator(
        ServingEngine(
            layout_for("criteo", "maxembed", REPLICATION_RATIO, scale),
            EngineConfig(),
        ),
        seed=BENCH_SEED,
        **_overload_knobs(slo, document["degrade_page_cap"]),
    )
    cap = bench_max_queries()
    _, live = get_split_trace("criteo", scale)
    queries = list(live.queries[:cap] if cap else live.queries)
    report = replay.run(
        queries,
        document["capacity_qps"] * 1.5,
        warmup_fraction=WARMUP_FRACTION,
    )
    original = next(
        r for r in document["controller_on"] if r["load_fraction"] == 1.5
    )
    assert round(report.goodput_qps(slo), 1) == original["goodput_qps"]
    assert dict(report.shed) == original["shed"]


if __name__ == "__main__":
    result = run_overload_bench(bench_scale())
    print(json.dumps(result, indent=2))
    publish_json(result)
