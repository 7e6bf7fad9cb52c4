"""DRAM tier bench: statistical pinning vs reactive LRU at equal budget.

Ablates the three ``tier_mode`` settings — ``lru`` (reactive cache
only, today's default), ``pinned`` (the offline tier planner pins the
history-hottest keys; no cache), ``hybrid`` (half pinned, half LRU) —
at the *same* DRAM key budget, across pure-Zipf synthetic presets of
increasing skew and the scaled Criteo preset.  Plans are built from the
history half of each trace only; serving is measured on the live half.

Headline metrics per (workload, budget, mode): SSD page reads per
query and p99 latency — the two things a DRAM tier exists to cut.
Emits machine-readable ``benchmarks/results/tiering.json``.

Contract checks:

* on at least one Zipf preset, the statistical tier (pinned or hybrid)
  reads at least ``REPRO_BENCH_MIN_TIER_REDUCTION`` (default 15 %)
  fewer pages per query than reactive LRU at the same DRAM budget;
* a ``tier_ratio=0`` pinned engine is bit-identical to the cacheless
  baseline (the tier fast path costs nothing when empty).

Run standalone with ``python benchmarks/bench_tiering.py``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from conftest import RESULTS_DIR, bench_max_queries, bench_scale

from repro.core import MaxEmbedConfig, build_offline_layout
from repro.experiments.common import get_split_trace, layout_for
from repro.serving import EngineConfig, ServingEngine
from repro.tiering import plan_tier_from_trace
from repro.workloads import SyntheticTraceGenerator, WorkloadSpec

REPLICATION_RATIO = 0.1
CRITEO_RATIO = 0.4
BENCH_SEED = int(os.environ.get("REPRO_TIERING_SEED", "0"))
ZIPF_KEYS = {"bench": 4000, "small": 600}
DRAM_BUDGETS = {"bench": (0.02, 0.05, 0.10), "small": (0.05,)}
#: Pure-Zipf presets (noise_fraction=1.0 disables interest groups, so
#: popularity alone drives reuse) at increasing skew.
ZIPF_ALPHAS = (("zipf_mild", 0.9), ("zipf", 1.05), ("zipf_hot", 1.2))
WARMUP_FRACTION = 0.2


def min_tier_reduction() -> float:
    return float(os.environ.get("REPRO_BENCH_MIN_TIER_REDUCTION", "0.15"))


def _zipf_workload(alpha: float, scale: str):
    """(history, live) halves of one pure-Zipf trace."""
    num_keys = ZIPF_KEYS[scale]
    spec = WorkloadSpec(
        num_keys=num_keys,
        num_queries=int(num_keys * 1.5),
        mean_query_len=12.0,
        item_alpha=alpha,
        noise_fraction=1.0,
    )
    trace = SyntheticTraceGenerator(spec, seed=BENCH_SEED).generate()
    return trace.split(0.5)


def _mode_config(mode: str, budget: float, layout, history) -> EngineConfig:
    """EngineConfig giving ``mode`` a DRAM key budget of ``budget``."""
    if mode == "lru":
        return EngineConfig(cache_ratio=budget, index_limit=5)
    if mode == "pinned":
        tier_ratio, cache_ratio = budget, 0.0
    else:  # hybrid
        tier_ratio, cache_ratio = budget / 2, budget / 2
    plan = plan_tier_from_trace(layout, history, tier_ratio)
    return EngineConfig(
        cache_ratio=cache_ratio,
        tier_mode=mode,
        tier_ratio=tier_ratio,
        tier_plan=plan,
        index_limit=5,
    )


def _serve(layout, config: EngineConfig, live) -> dict:
    engine = ServingEngine(layout, config)
    cap = bench_max_queries()
    queries = list(live)[:cap] if cap else list(live)
    warmup = (
        int(len(queries) * WARMUP_FRACTION) if engine.cache.capacity else 0
    )
    report = engine.serve_trace(queries, warmup_queries=warmup)
    return {
        "pages_per_query": round(
            report.total_pages_read / report.num_queries, 4
        ),
        "dram_hit_rate": round(report.dram_hit_rate(), 4),
        "tier_hit_rate": round(report.tier_hit_rate(), 4),
        "cache_hit_rate": round(report.cache_hit_rate(), 4),
        "throughput_qps": round(report.throughput_qps()),
        "p99_latency_us": round(report.percentile_latency_us(99), 2),
    }


def run_tiering_bench(scale: str) -> dict:
    """Ablate tier modes across workloads and DRAM budgets."""
    workloads = []
    for name, alpha in ZIPF_ALPHAS:
        history, live = _zipf_workload(alpha, scale)
        layout = build_offline_layout(
            history, MaxEmbedConfig(replication_ratio=REPLICATION_RATIO)
        )
        workloads.append((name, layout, history, live))
    criteo_history, criteo_live = get_split_trace("criteo", scale)
    criteo_layout = layout_for("criteo", "maxembed", CRITEO_RATIO, scale)
    workloads.append(("criteo", criteo_layout, criteo_history, criteo_live))

    rows = []
    for name, layout, history, live in workloads:
        for budget in DRAM_BUDGETS[scale]:
            entry = {"workload": name, "dram_budget": budget}
            for mode in ("lru", "pinned", "hybrid"):
                config = _mode_config(mode, budget, layout, history)
                entry[mode] = _serve(layout, config, live)
            baseline = entry["lru"]["pages_per_query"]
            for mode in ("pinned", "hybrid"):
                entry[mode]["page_reduction_vs_lru"] = round(
                    1.0 - entry[mode]["pages_per_query"] / baseline, 4
                ) if baseline else 0.0
            rows.append(entry)
    return {
        "bench": "tiering",
        "scale": scale,
        "seed": BENCH_SEED,
        "replication_ratio": REPLICATION_RATIO,
        "dram_budgets": list(DRAM_BUDGETS[scale]),
        "min_tier_reduction": min_tier_reduction(),
        "rows": rows,
    }


def publish_json(document: dict) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "tiering.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def test_statistical_tier_beats_lru(scale):
    document = run_tiering_bench(scale)
    path = publish_json(document)
    lines = [f"tiering bench ({scale}) -> {path}"]
    for entry in document["rows"]:
        lines.append(
            f"  {entry['workload']:>9s} @{entry['dram_budget']:.0%}  "
            f"pages/q lru {entry['lru']['pages_per_query']:>7.2f}  "
            f"pinned {entry['pinned']['pages_per_query']:>7.2f} "
            f"({entry['pinned']['page_reduction_vs_lru']:+.1%})  "
            f"hybrid {entry['hybrid']['pages_per_query']:>7.2f} "
            f"({entry['hybrid']['page_reduction_vs_lru']:+.1%})"
        )
    print("\n" + "\n".join(lines))
    floor = document["min_tier_reduction"]
    zipf_names = {name for name, _ in ZIPF_ALPHAS}
    best = max(
        max(
            entry["pinned"]["page_reduction_vs_lru"],
            entry["hybrid"]["page_reduction_vs_lru"],
        )
        for entry in document["rows"]
        if entry["workload"] in zipf_names
    )
    assert best >= floor, (
        f"statistical tier never beat LRU by {floor:.0%} on a Zipf "
        f"preset (best {best:.1%})"
    )
    # The pinned tier must also never *lose* DRAM hits to LRU at equal
    # budget: statistical admission dominates reactive on these streams.
    for entry in document["rows"]:
        assert (
            entry["pinned"]["dram_hit_rate"]
            >= 0.95 * entry["lru"]["dram_hit_rate"]
        ), f"pinned tier lost DRAM hits on {entry['workload']}"


def test_empty_tier_is_free(scale):
    """tier_ratio=0 pinned serving == the cacheless baseline, exactly."""
    history, live = _zipf_workload(1.05, scale)
    layout = build_offline_layout(
        history, MaxEmbedConfig(replication_ratio=REPLICATION_RATIO)
    )
    queries = list(live)[:200]
    base = ServingEngine(
        layout, EngineConfig(cache_ratio=0.0, index_limit=5)
    ).serve_trace(queries)
    tiered = ServingEngine(
        layout,
        EngineConfig(
            cache_ratio=0.0, tier_mode="pinned", tier_ratio=0.0,
            index_limit=5,
        ),
    ).serve_trace(queries)
    assert base.total_pages_read == tiered.total_pages_read
    assert base.total_tier_hits == tiered.total_tier_hits == 0
    assert base.mean_latency_us() == tiered.mean_latency_us()


if __name__ == "__main__":
    document = run_tiering_bench(bench_scale())
    print(json.dumps(document, indent=2))
    publish_json(document)
