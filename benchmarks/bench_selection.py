"""Selection hot-loop bench: the one-pass selector vs its oracle.

Measures single-thread, cache-less selection throughput on the criteo
layout (the paper's §6.1 workload, where selection is >56 % of serving
latency) and emits machine-readable ``benchmarks/results/selection.json``,
one row per operating point:

* per-selector qps, mean/p50/p99 selection microseconds;
* candidates examined per query (identical across paths by contract);
* the speedup of ``select`` over ``repro.reference``'s set algebra.

Two operating points, because the page-mask kernel's cost follows the
query's fan-out (Σ pages per key): r = 0.4 with the index shrunk to 5,
and r = 0.8 with the full index, where hot keys sit on a third of all
pages — the kernel's weak side, kept on record.  The first row must
clear ``REPRO_BENCH_MIN_SPEEDUP`` (default 1.5; CI smoke runs set a
looser floor to tolerate noisy runners); the second must not lose to
the reference.

Run standalone with ``python benchmarks/bench_selection.py``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from conftest import RESULTS_DIR, bench_scale

from repro import reference
from repro.experiments.common import get_split_trace, layout_for
from repro.placement import build_indexes
from repro.serving import OnePassSelector

# (replication ratio, index limit); the floor applies to the first.
OPERATING_POINTS = ((0.4, 5), (0.8, None))


def min_speedup() -> float:
    return float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "1.5"))


def _percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, round(fraction * (len(sorted_values) - 1))
    )
    return sorted_values[index]


def _stats(per_query_us, candidates, label):
    ordered = sorted(per_query_us)
    mean = sum(per_query_us) / len(per_query_us)
    return {
        "selector": label,
        "qps": round(1e6 / mean, 1),
        "mean_us": round(mean, 3),
        "p50_us": round(_percentile(ordered, 0.50), 3),
        "p99_us": round(_percentile(ordered, 0.99), 3),
        "candidates_per_query": round(candidates / len(per_query_us), 3),
    }


def _time_per_query(selector, queries, rounds):
    """Time select() per query; returns (per-query µs, total candidates)."""
    timings = [0.0] * len(queries)
    candidates = 0
    for round_index in range(rounds):
        for i, keys in enumerate(queries):
            t0 = time.perf_counter()
            outcome = selector.select(keys)
            timings[i] += time.perf_counter() - t0
            if round_index == 0:
                candidates += outcome.total_candidates
    return [t * 1e6 / rounds for t in timings], candidates


def _race(queries, scale, ratio, limit) -> dict:
    """Oracle vs production ``select`` at one operating point."""
    layout = layout_for("criteo", "maxembed", ratio, scale)
    forward, invert = build_indexes(layout, limit=limit)
    oracle = reference.OnePassSelector(forward, invert)
    fast = OnePassSelector(forward, invert)
    # Warm up the memoized index tables outside the timed region.
    for keys in queries[:8]:
        oracle.select(keys)
        fast.select(keys)
    ref_us, ref_candidates = _time_per_query(oracle, queries, rounds=3)
    fast_us, fast_candidates = _time_per_query(fast, queries, rounds=3)
    assert ref_candidates == fast_candidates
    return {
        "replication_ratio": ratio,
        "index_limit": limit,
        "results": [
            _stats(ref_us, ref_candidates, "onepass (reference)"),
            _stats(fast_us, fast_candidates, "fast-onepass (select)"),
        ],
        "speedup_single": round(sum(ref_us) / sum(fast_us), 2),
    }


def run_selection_bench(scale: str) -> dict:
    """Build the criteo layouts and race selector and oracle on them."""
    _, live = get_split_trace("criteo", scale)
    queries = [q.unique_keys() for q in live]
    return {
        "bench": "selection",
        "dataset": "criteo",
        "scale": scale,
        "num_queries": len(queries),
        "rows": [
            _race(queries, scale, ratio, limit)
            for ratio, limit in OPERATING_POINTS
        ],
    }


def publish_json(document: dict) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "selection.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def test_selection_fast_path_speedup(scale):
    document = run_selection_bench(scale)
    path = publish_json(document)
    lines = [f"selection bench ({document['num_queries']} queries) -> {path}"]
    for point in document["rows"]:
        lines.append(
            f"  r={point['replication_ratio']} "
            f"index_limit={point['index_limit']}: "
            f"speedup {point['speedup_single']}x"
        )
        for row in point["results"]:
            lines.append(
                f"    {row['selector']:24s} {row['qps']:>10.0f} qps  "
                f"mean {row['mean_us']:.1f} us  p50 {row['p50_us']:.1f}  "
                f"p99 {row['p99_us']:.1f}  "
                f"cand/q {row['candidates_per_query']}"
            )
    print("\n" + "\n".join(lines))
    shrunk, high_fanout = document["rows"]
    floor = min_speedup()
    assert shrunk["speedup_single"] >= floor, (
        f"fast select only {shrunk['speedup_single']}x >= {floor}x "
        f"required over the reference one-pass selector"
    )
    # Where fan-out dominates the kernel must at least not regress.
    assert high_fanout["speedup_single"] >= 1.0


if __name__ == "__main__":
    result = run_selection_bench(bench_scale())
    print(json.dumps(result, indent=2))
    publish_json(result)
