"""Device command bench: batched submission and NDP gathers.

Two questions the device layer's command/timing split exists to answer:

1. **What does batching buy?**  With a non-zero per-command host cost
   (``SsdProfile.submit_overhead_us``), the serial executor pays it once
   per page while the batched executor pays it once per query.  Measured on a
   single serving thread (with 8 threads the device is the bottleneck
   and host CPU hides behind the other threads), at the paper's P5800X
   preset with a 1 µs submit overhead.
2. **What happens to replication under NDP?**  The ``extension-ndp``
   experiment's curve: serve at several replication ratios under the
   pipelined, batched and ndp executors.  In-device gathers pay read
   amplification at internal bandwidth and ship only valid embeddings
   over the bus, so the benefit of replication flattens relative to the
   per-page reads.

Emits machine-readable ``benchmarks/results/device.json``.

Contract checks:

* batched throughput beats per-page submission by at least
  ``REPRO_BENCH_MIN_BATCH_GAIN`` (default 10 %) at 1 µs overhead;
* with zero overhead the batched executor is bit-identical to the
  serial one (batching must not touch the service model);
* replication still monotonically helps under every executor, and the
  NDP benefit at the top ratio does not exceed the pipelined benefit
  (the flattening the extension predicts).

Run standalone with ``python benchmarks/bench_device.py``.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

from conftest import RESULTS_DIR, bench_max_queries, bench_scale

from repro.experiments.common import get_split_trace, layout_for
from repro.experiments.extension_ndp import run as run_ndp_experiment
from repro.serving import EngineConfig, ServingEngine
from repro.ssd import P5800X
from repro.types import EmbeddingSpec

CRITEO_RATIO = 0.1
SUBMIT_OVERHEAD_US = 1.0
NDP_RATIOS = (0.0, 0.1, 0.3)
WARMUP_FRACTION = 0.2


def min_batch_gain() -> float:
    return float(os.environ.get("REPRO_BENCH_MIN_BATCH_GAIN", "0.10"))


def _serve(layout, live, executor: str, profile, threads: int) -> dict:
    config = EngineConfig(
        spec=EmbeddingSpec(dim=64),
        profile=profile,
        cache_ratio=0.0,
        executor=executor,
        threads=threads,
    )
    engine = ServingEngine(layout, config)
    cap = bench_max_queries()
    queries = list(live)[:cap] if cap else list(live)
    report = engine.serve_trace(queries)
    return {
        "throughput_qps": round(report.throughput_qps()),
        "mean_latency_us": round(report.mean_latency_us(), 3),
        "p99_latency_us": round(report.percentile_latency_us(99), 2),
        "pages_read": report.total_pages_read,
    }


def run_overhead_bench(scale: str) -> dict:
    """Serial vs batched submission at 1 µs per-command host overhead."""
    _, live = get_split_trace("criteo", scale)
    layout = layout_for("criteo", "maxembed", CRITEO_RATIO, scale)
    profile = replace(
        P5800X,
        name=f"{P5800X.name} (+{SUBMIT_OVERHEAD_US}us submit)",
        submit_overhead_us=SUBMIT_OVERHEAD_US,
    )
    serial = _serve(layout, live, "serial", profile, threads=1)
    batched = _serve(layout, live, "batched", profile, threads=1)
    gain = batched["throughput_qps"] / serial["throughput_qps"] - 1.0
    return {
        "profile": profile.name,
        "submit_overhead_us": SUBMIT_OVERHEAD_US,
        "threads": 1,
        "serial": serial,
        "batched": batched,
        "batched_gain": round(gain, 4),
    }


def run_device_bench(scale: str) -> dict:
    """Both parts of the bench as one JSON document."""
    overhead = run_overhead_bench(scale)
    curve = run_ndp_experiment(
        ratios=NDP_RATIOS, scale=scale, max_queries=bench_max_queries()
    )
    return {
        "bench": "device",
        "scale": scale,
        "min_batch_gain": min_batch_gain(),
        "submit_overhead": overhead,
        "replication_curve": {
            "headers": list(curve.headers),
            "rows": [list(row) for row in curve.rows],
            "notes": curve.notes,
        },
    }


def publish_json(document: dict) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "device.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


_doc_cache: dict = {}


def _document(scale: str) -> dict:
    if scale not in _doc_cache:
        _doc_cache[scale] = run_device_bench(scale)
        publish_json(_doc_cache[scale])
    return _doc_cache[scale]


def test_batched_amortizes_submit_overhead(scale):
    document = _document(scale)
    overhead = document["submit_overhead"]
    print(
        f"\ndevice bench ({scale}): serial "
        f"{overhead['serial']['throughput_qps']} qps vs batched "
        f"{overhead['batched']['throughput_qps']} qps "
        f"({overhead['batched_gain']:+.1%}) at "
        f"{overhead['submit_overhead_us']}us submit overhead"
    )
    floor = document["min_batch_gain"]
    assert overhead["batched_gain"] >= floor, (
        f"batched submission gained only {overhead['batched_gain']:.1%} "
        f"over per-page submission (floor {floor:.0%})"
    )


def test_zero_overhead_batching_is_free(scale):
    """overhead=0 batched serving == serial serving, exactly."""
    _, live = get_split_trace("criteo", scale)
    layout = layout_for("criteo", "maxembed", CRITEO_RATIO, scale)
    queries = list(live)[:200]
    serial = _serve(layout, queries, "serial", P5800X, threads=4)
    batched = _serve(layout, queries, "batched", P5800X, threads=4)
    assert serial == batched, (serial, batched)


def test_replication_benefit_flattens_under_ndp(scale):
    document = _document(scale)
    curve = document["replication_curve"]
    headers = curve["headers"]
    executor_col = headers.index("executor")
    benefit_col = headers.index("benefit")
    benefits: dict = {}
    for row in curve["rows"]:
        benefits.setdefault(row[executor_col], []).append(row[benefit_col])
    lines = [f"replication benefit by executor ({scale}):"]
    for executor, series in benefits.items():
        lines.append(f"  {executor:>9s}: {series}")
    print("\n" + "\n".join(lines))
    assert set(benefits) == {"pipelined", "batched", "ndp"}
    for executor, series in benefits.items():
        assert len(series) == len(NDP_RATIOS)
        assert series == sorted(series), (
            f"replication stopped helping under the {executor} "
            f"executor: {series}"
        )
    # The flattening: NDP's benefit at the top ratio must not exceed the
    # pipelined one (in-device gathers discount read amplification).
    assert benefits["ndp"][-1] <= benefits["pipelined"][-1] + 1e-9, (
        f"NDP benefit {benefits['ndp'][-1]} exceeds pipelined "
        f"{benefits['pipelined'][-1]}"
    )


if __name__ == "__main__":
    doc = run_device_bench(bench_scale())
    path = publish_json(doc)
    print(json.dumps(doc, indent=2))
    print(f"-> {path}")
