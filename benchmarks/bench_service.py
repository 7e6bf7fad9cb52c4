"""Service bench: the live async gateway versus the open-loop simulator.

The open-loop simulator predicts what the engine does under a scheduled
arrival process in *simulated* time; the gateway serves real concurrent
clients in *wall* time.  This bench closes the loop between the two:

1. measure the engine's closed-loop capacity and derive a latency SLO
   (same recipe as ``bench_overload.py``);
2. run a paced :class:`~repro.service.GatewayCore` (``pace_service``
   sleeps each batch's simulated service time, scaled by
   ``time_scale`` so asyncio timer granularity stays negligible) under
   a saturating closed-loop :class:`~repro.service.CoreLoadGenerator`
   with coalescing *disabled*, so both systems serve queries one by
   one;
3. replay the *measured* offered load through the
   :class:`~repro.serving.OpenLoopSimulator` with the same admission
   policy, and compare goodput in the simulator's time domain;
4. re-run the gateway with coalescing *enabled* to record the batching
   benefit (mean batch size, duplicate key reads merged away).

Emits machine-readable ``benchmarks/results/service.json``.

Contract checks: the gateway's accounting invariant holds exactly
(offered == completed + shed + deadline misses, client-side and
server-side); the load generator saturates the gateway (offered load
past capacity); and gateway goodput lands inside a band around the
simulator's prediction.  The band is loose by default — wall-clock
scheduling on shared CI runners is noisy — and tightened via
``REPRO_SERVICE_RATIO_LOW`` / ``REPRO_SERVICE_RATIO_HIGH`` for
paper-grade runs.

Run standalone with ``python benchmarks/bench_service.py``.
"""

from __future__ import annotations

import asyncio
import json
import os
from pathlib import Path

from conftest import RESULTS_DIR, bench_max_queries, bench_scale

from repro.experiments.common import get_split_trace, layout_for
from repro.overload import AdmissionConfig
from repro.service import CoalescerConfig, CoreLoadGenerator, GatewayCore, ServiceConfig
from repro.serving import EngineConfig, OpenLoopSimulator, ServingEngine
from repro.types import QueryTrace

REPLICATION_RATIO = 0.4
BENCH_SEED = int(os.environ.get("REPRO_SERVICE_SEED", "0"))
WARMUP_FRACTION = 0.1
#: Wall seconds each load-generation window runs for.
DURATION_S = float(os.environ.get("REPRO_SERVICE_BENCH_SECONDS", "2.0"))
#: Gateway goodput / simulator goodput acceptance band.
RATIO_LOW = float(os.environ.get("REPRO_SERVICE_RATIO_LOW", "0.35"))
RATIO_HIGH = float(os.environ.get("REPRO_SERVICE_RATIO_HIGH", "2.75"))
ADMISSION_CAPACITY = 32
#: Think-time ceiling on offered load, as a multiple of capacity.  Pure
#: closed-loop clients would spin on instant sheds and push offered load
#: an order of magnitude past capacity; with think time the offered rate
#: is bounded by concurrency/think and self-limits below the ceiling as
#: latency grows, realizing roughly 1.2-1.8x capacity.
OFFERED_CEILING_FRACTION = 2.0


def _time_scale(mean_service_us: float) -> float:
    """Wall microseconds slept per simulated microsecond when pacing.

    Scaled so a typical query occupies ~1.5 ms of wall time — large
    against asyncio's timer granularity, small enough that a two-second
    window still completes thousands of requests.
    """
    return round(min(100.0, max(2.0, 1_500.0 / max(mean_service_us, 1.0))), 2)


def _gateway_config(slo_us: float, scale_factor: float, coalesce: bool) -> ServiceConfig:
    """Paced gateway with the bench's deadline admission policy.

    The admission deadline lives in the gateway's wall-clock domain, so
    the simulator's simulated-microsecond deadline is multiplied by the
    pacing scale; everything else matches :func:`_simulator_knobs`.
    """
    return ServiceConfig(
        coalescer=CoalescerConfig(enabled=coalesce),
        admission=AdmissionConfig(
            capacity=ADMISSION_CAPACITY,
            policy="deadline",
            queue_deadline_us=(slo_us / 2.0) * scale_factor,
        ),
        max_concurrent_batches=EngineConfig().threads,
        pace_service=True,
        time_scale=scale_factor,
    )


def _simulator_knobs(slo_us: float) -> dict:
    return {
        "admission": AdmissionConfig(
            capacity=ADMISSION_CAPACITY,
            policy="deadline",
            queue_deadline_us=slo_us / 2.0,
        ),
    }


def _drive_gateway(
    engine,
    config: ServiceConfig,
    queries,
    concurrency: int,
    think_time_s: float = 0.0,
):
    """Closed-loop loadgen against a started core -> (LoadReport, metrics)."""

    async def runner():
        core = GatewayCore(engine, config)
        await core.start()
        try:
            generator = CoreLoadGenerator(
                core,
                queries,
                concurrency=concurrency,
                think_time_s=think_time_s,
                duration_s=DURATION_S,
            )
            report = await generator.run()
        finally:
            await core.stop()
        return report, core.metrics()

    return asyncio.run(runner())


def run_service_bench(scale: str) -> dict:
    """Saturate the live gateway and compare it against the simulator."""
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
    capacity_qps = round(closed.throughput_qps(), 1)
    slo_us = round(4.0 * closed.percentile_latency_us(99.0), 3)
    tau = _time_scale(closed.mean_latency_us())
    slo_wall_us = slo_us * tau
    # Enough clients that even latency-limited cycles keep offered load
    # past capacity; the think time then caps offered load at
    # concurrency/think = OFFERED_CEILING_FRACTION x capacity.
    concurrency = 4 * EngineConfig().threads + 2 * ADMISSION_CAPACITY
    think_s = (concurrency * tau) / (
        OFFERED_CEILING_FRACTION * capacity_qps
    )

    # -- live gateway, coalescing off (one query per flush) ----------------
    report, metrics = _drive_gateway(
        engine(),
        _gateway_config(slo_us, tau, coalesce=False),
        queries,
        concurrency,
        think_time_s=think_s,
    )
    svc = metrics["service"]
    # Wall-time rates convert to the simulator's time domain by the
    # pacing factor: tau wall seconds pass per simulated second.
    offered_sim_qps = (report.offered / report.wall_s) * tau
    gateway_row = report.as_dict(slo_wall_us)
    gateway_row.update(
        {
            "offered_qps": round(offered_sim_qps, 1),
            "achieved_qps": round(report.achieved_qps() * tau, 1),
            "goodput_qps": round(report.goodput_qps(slo_wall_us) * tau, 1),
            "load_fraction": round(offered_sim_qps / capacity_qps, 3),
            "mean_latency_us": round(
                gateway_row["mean_latency_us"] / tau, 3
            ),
            "p50_latency_us": round(gateway_row["p50_latency_us"] / tau, 3),
            "p99_latency_us": round(gateway_row["p99_latency_us"] / tau, 3),
            "accounting_exact": svc["offered"] == svc["accounted"],
            "server_offered": svc["offered"],
        }
    )

    # -- simulator at the gateway's measured offered load ------------------
    simulator = OpenLoopSimulator(
        engine(), seed=BENCH_SEED, **_simulator_knobs(slo_us)
    )
    sim_report = simulator.run(
        queries, offered_sim_qps, warmup_fraction=WARMUP_FRACTION
    )
    sim_row = {
        "offered_qps": round(offered_sim_qps, 1),
        "achieved_qps": round(sim_report.throughput_qps(), 1),
        "goodput_qps": round(sim_report.goodput_qps(slo_us), 1),
        "mean_latency_us": round(sim_report.mean_latency_us(), 3),
        "p99_latency_us": round(sim_report.percentile_latency_us(99.0), 3),
        "completion_rate": round(sim_report.completion_rate(), 4),
        "shed": dict(sim_report.shed),
        "deadline_misses": sim_report.deadline_misses,
    }
    ratio = (
        gateway_row["goodput_qps"] / sim_row["goodput_qps"]
        if sim_row["goodput_qps"]
        else 0.0
    )

    # -- live gateway, coalescing on (shared page reads) -------------------
    co_report, co_metrics = _drive_gateway(
        engine(), _gateway_config(slo_us, tau, coalesce=True), queries, concurrency
    )
    co_svc = co_metrics["service"]
    coalescing = dict(co_svc["coalescer"])
    coalescing.update(
        {
            "completed": co_report.completed,
            "achieved_qps": round(co_report.achieved_qps() * tau, 1),
            "accounting_exact": co_svc["offered"] == co_svc["accounted"],
        }
    )

    return {
        "bench": "service",
        "dataset": "criteo",
        "scale": scale,
        "seed": BENCH_SEED,
        "replication_ratio": REPLICATION_RATIO,
        "num_queries": len(queries),
        "capacity_qps": capacity_qps,
        "latency_slo_us": slo_us,
        "time_scale": tau,
        "duration_s": DURATION_S,
        "concurrency": concurrency,
        "gateway": gateway_row,
        "simulator": sim_row,
        "goodput_ratio": round(ratio, 3),
        "coalescing": coalescing,
    }


def publish_json(document: dict) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "service.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def test_gateway_tracks_simulator(scale):
    document = run_service_bench(scale)
    path = publish_json(document)
    gw, sim = document["gateway"], document["simulator"]
    print(
        f"\nservice bench ({document['num_queries']} queries, capacity "
        f"{document['capacity_qps']:.0f} qps, slo "
        f"{document['latency_slo_us']:.0f} us, pace x"
        f"{document['time_scale']}) -> {path}\n"
        f"  load {gw['load_fraction']:.2f}x capacity  "
        f"gateway goodput {gw['goodput_qps']:.0f} qps / simulator "
        f"{sim['goodput_qps']:.0f} qps  (ratio "
        f"{document['goodput_ratio']:.2f})\n"
        f"  gateway shed {gw['shed_total']} errors {gw['errors']}  "
        f"coalescing mean batch "
        f"{document['coalescing']['mean_batch_size']}  merged dup keys "
        f"{document['coalescing']['duplicate_keys_merged']}"
    )
    # The gateway's accounting reconciles exactly, client- and
    # server-side: every offered request is completed, shed, or missed.
    assert gw["errors"] == 0
    assert gw["accounting_exact"]
    assert gw["offered"] == gw["completed"] + gw["shed_total"]
    assert document["coalescing"]["accounting_exact"]
    # The closed loop genuinely saturated the gateway: offered load past
    # capacity and backpressure engaged.
    assert gw["load_fraction"] > 1.0, gw
    assert gw["shed_total"] > 0
    assert gw["completed"] > 0 and gw["goodput_qps"] > 0
    # Live goodput lands inside the (CI-loose) band around the
    # simulator's prediction at the same offered load.
    assert RATIO_LOW <= document["goodput_ratio"] <= RATIO_HIGH, (
        f"gateway goodput {gw['goodput_qps']} qps vs simulator "
        f"{sim['goodput_qps']} qps: ratio {document['goodput_ratio']} "
        f"outside [{RATIO_LOW}, {RATIO_HIGH}]"
    )
    # Under saturation the coalescer actually merges concurrent work.
    assert document["coalescing"]["mean_batch_size"] > 1.0
    assert document["coalescing"]["merged_batches"] > 0


if __name__ == "__main__":
    result = run_service_bench(bench_scale())
    print(json.dumps(result, indent=2))
    publish_json(result)
