"""Offline placement bench: the offline pipeline vs its oracle.

Races the offline pipeline (CSR-based SHP bisection + vectorized
replication) against the pure-python loops of ``repro.reference`` on two
workloads — the scaled Criteo preset and a pure-Zipf synthetic trace —
and emits machine-readable ``benchmarks/results/offline.json``:

* reference build seconds per workload;
* build seconds and speedup at 1/4/8 bisection-subtree workers (the
  ``fast`` rows);
* a layout-parity bit for every run (identical pages by contract).

The pipeline at the highest worker count must clear
``REPRO_BENCH_MIN_OFFLINE_SPEEDUP`` (default 3.0; CI smoke runs set a
looser floor to tolerate noisy single-core runners) on the Criteo
config.

Run standalone with ``python benchmarks/bench_offline.py``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from conftest import RESULTS_DIR, bench_scale

from repro import reference
from repro.core import MaxEmbedConfig, build_offline_layout
from repro.hypergraph import build_weighted_hypergraph
from repro.workloads import SyntheticTraceGenerator, WorkloadSpec, get_preset

STRATEGY = "maxembed"
REPLICATION_RATIO = 0.1
# The bench-scale criteo preset finishes in about a second on the fast
# path; triple it so process-pool startup is amortized and the timed
# region is dominated by actual partitioning work.
CRITEO_SCALE_FACTOR = {"bench": 3, "small": 1}
WORKER_COUNTS = {"bench": (1, 4, 8), "small": (1, 2)}
FAST_ROUNDS = {"bench": 2, "small": 1}


def min_offline_speedup() -> float:
    return float(os.environ.get("REPRO_BENCH_MIN_OFFLINE_SPEEDUP", "3.0"))


def _criteo_spec(scale: str) -> WorkloadSpec:
    """The Criteo preset's spec, scaled up for stable bench timings."""
    base = get_preset("criteo").spec(scale)
    factor = CRITEO_SCALE_FACTOR[scale]
    if factor == 1:
        return base
    return WorkloadSpec(
        num_keys=base.num_keys * factor,
        num_queries=base.num_queries * factor,
        mean_query_len=base.mean_query_len,
        item_alpha=base.item_alpha,
        num_groups=base.num_groups,
        group_size=base.group_size,
        group_alpha=base.group_alpha,
        noise_fraction=base.noise_fraction,
        second_group_prob=base.second_group_prob,
    )


def _zipf_spec(scale: str) -> WorkloadSpec:
    """Groupless Zipf trace: every slot is a global popularity draw."""
    keys = 6000 if scale == "bench" else 600
    return WorkloadSpec(
        num_keys=keys,
        num_queries=int(keys * 1.5),
        mean_query_len=12.0,
        item_alpha=1.05,
        noise_fraction=1.0,  # disables group structure entirely
    )


def _workloads(scale: str):
    return (
        ("criteo", _criteo_spec(scale)),
        ("zipf", _zipf_spec(scale)),
    )


def _build_config(workers: int) -> MaxEmbedConfig:
    return MaxEmbedConfig(
        strategy=STRATEGY,
        replication_ratio=REPLICATION_RATIO,
        offline_workers=workers,
    )


def _build_reference(trace):
    """The same build — hypergraph included — on the oracles only."""
    config = _build_config(1)
    return reference.maxembed_layout(
        build_weighted_hypergraph(trace),
        config.page_capacity,
        config.replication_ratio,
        config.shp,
    )


def _time_build(build, rounds: int):
    """Best-of-N wall time of ``build()``; returns (seconds, layout)."""
    best = float("inf")
    layout = None
    for _ in range(rounds):
        started = time.perf_counter()
        layout = build()
        best = min(best, time.perf_counter() - started)
    return best, layout


def run_offline_bench(scale: str) -> dict:
    """Build each workload's layout on the pipeline and the oracle."""
    workloads = []
    for name, spec in _workloads(scale):
        trace = SyntheticTraceGenerator(spec, seed=0).generate()
        ref_seconds, ref_layout = _time_build(
            lambda: _build_reference(trace), rounds=1
        )
        ref_pages = ref_layout.pages()
        rows = []
        for workers in WORKER_COUNTS[scale]:
            config = _build_config(workers)
            seconds, layout = _time_build(
                lambda: build_offline_layout(trace, config),
                rounds=FAST_ROUNDS[scale],
            )
            rows.append(
                {
                    "workers": workers,
                    "seconds": round(seconds, 3),
                    "speedup": round(ref_seconds / seconds, 2),
                    "identical_layout": layout.pages() == ref_pages,
                }
            )
        workloads.append(
            {
                "workload": name,
                "num_keys": trace.num_keys,
                "num_queries": len(trace),
                "reference_seconds": round(ref_seconds, 3),
                "fast": rows,
            }
        )
    return {
        "bench": "offline",
        "scale": scale,
        "strategy": STRATEGY,
        "replication_ratio": REPLICATION_RATIO,
        "workloads": workloads,
    }


def publish_json(document: dict) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "offline.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def test_offline_fast_path_speedup(scale):
    document = run_offline_bench(scale)
    path = publish_json(document)
    lines = [f"offline bench -> {path}"]
    for entry in document["workloads"]:
        lines.append(
            f"  {entry['workload']}: {entry['num_keys']} keys, "
            f"{entry['num_queries']} queries, "
            f"reference {entry['reference_seconds']}s"
        )
        for row in entry["fast"]:
            lines.append(
                f"    fast workers={row['workers']}: {row['seconds']}s "
                f"({row['speedup']}x, identical={row['identical_layout']})"
            )
    print("\n" + "\n".join(lines))
    for entry in document["workloads"]:
        for row in entry["fast"]:
            assert row["identical_layout"], (
                f"{entry['workload']} fast layout at "
                f"{row['workers']} workers differs from the reference"
            )
    floor = min_offline_speedup()
    criteo = document["workloads"][0]
    assert criteo["workload"] == "criteo"
    top = criteo["fast"][-1]
    assert top["speedup"] >= floor, (
        f"fast offline build at {top['workers']} workers only "
        f"{top['speedup']}x >= {floor}x required over the reference"
    )


if __name__ == "__main__":
    result = run_offline_bench(bench_scale())
    print(json.dumps(result, indent=2))
    publish_json(result)
