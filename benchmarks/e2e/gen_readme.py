#!/usr/bin/env python3
"""Regenerate the marked blocks of README.md from BENCHMARK.json and results.

    python3 benchmarks/e2e/gen_readme.py [--results out/result-<c>-<s>.json]
    python3 benchmarks/e2e/gen_readme.py --check

Names, units, bounds and numbers in the README are copied by this script,
never typed.  Prose between the blocks is left alone.  ``--check`` exits
non-zero when a contract block is out of date.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from e2ebench import spec as contract  # noqa: E402
from e2ebench.deploy import WORKLOADS  # noqa: E402
from e2ebench.layers import SELF_TIME_METRICS  # noqa: E402

README = HERE / "README.md"

#: Which end-to-end metric each layer's numbers should move, and where.
SHOULD_MOVE = {
    "hypergraph": "`setup_s`, every workload",
    "partition": "`setup_s`, every workload",
    "replication": "`setup_s`; `placement.replica_pages` → `pages_per_query`, "
    "`effective_bw_frac`",
    "placement": "`setup_s`; `placement.index_entries` → `peak_rss_mb`; "
    "`placement.replica_pages` → `pages_per_query`, `effective_bw_frac`",
    "tiering": "`wall_qps` on `engine-dram` only (`tiering.plan_s` → its "
    "`setup_s`); `tiering.hit_frac` trades `peak_rss_mb` for "
    "`pages_per_query`",
    "cache": "`wall_qps` on `engine-dram` (lookup) and `engine-ssd` "
    "(admit, evict); `cache.hit_frac` → `pages_per_query`, `sim_qps` everywhere",
    "selection": "`wall_qps` on `engine-ssd`, `gateway-single`, "
    "`cluster-4x2`; ≈ none on `engine-dram`; `selection.valid_per_page` → "
    "`effective_bw_frac`",
    "executor": "`wall_qps` on `engine-ssd`",
    "ssd": "`ssd.model_us` → `wall_qps` on `engine-ssd`; `ssd.busy_frac`, "
    "`ssd.queue_wait_us` (simulated) → `sim_qps`, `sim_p99_us`",
    "serving": "`wall_qps` on both engine workloads (per-query object churn)",
    "sim": "`sim_qps`, `sim_p99_us` on `engine-ssd`; `sim.read_us` ≈ 0 on "
    "`engine-dram`",
    "cluster": "`wall_qps` on `cluster-4x2` only (`cluster.plan_s`, "
    "`cluster.engines_s` → its `setup_s`); `cluster.straggler_us`, "
    "`cluster.imbalance` (simulated) → `sim_p99_us` there",
    "replicas": "`wall_qps` on `cluster-4x2`; a non-zero failover or hedge "
    "count is a failed gate",
    "service": "`wall_qps` on `gateway-single` only; `service.engine_us` "
    "should equal `engine-ssd`'s per-query cost, a gap is hand-off cost",
    "client": "the load generator's own share of `gateway-single`",
    "host": "`host.calls_per_query` is the noise-free companion of "
    "`wall_qps`; `host.rss_kb_per_kquery` → `peak_rss_mb` on "
    "`gateway-single`; noise and steal explain a run, never gate it",
    "trace": "how much the proxies slow a round; read the layer times with it",
}


def workloads_block(spec: dict) -> str:
    lines = [
        "| name | queries in a round | configuration | why |",
        "|---|---|---|---|",
    ]
    for row in spec["workloads"]:
        workload = WORKLOADS[row["name"]]
        overrides = ", ".join(
            f"`{k}={v!r}`" for k, v in workload.overrides.items()
        )
        lines.append(
            f"| `{row['name']}` | {workload.round_queries} | "
            f"{overrides or 'library defaults'} | {row['why']} |"
        )
    return "\n".join(lines)


def end_to_end_block(spec: dict) -> str:
    lines = ["| name | unit | better | bound |", "|---|---|---|---|"]
    for m in spec["end_to_end"]:
        lines.append(
            f"| `{m['name']}` | {m['unit']} | {m['better']} | {m['bound']:.2f} |"
        )
    return "\n".join(lines)


def per_layer_block(spec: dict) -> str:
    groups: dict = {}
    for m in spec["per_layer"]:
        groups.setdefault(m["name"].split(".")[0], []).append(m)
    lines = ["| layer | metrics (unit) | should move |", "|---|---|---|"]
    for layer, metrics in groups.items():
        listed = ", ".join(f"`{m['name']}` ({m['unit']})" for m in metrics)
        lines.append(f"| `{layer}` | {listed} | {SHOULD_MOVE[layer]} |")
    return "\n".join(lines)


def first_readings_block(spec: dict, path: Path) -> str:
    with open(path) as handle:
        data = json.load(handle)
    plain = {r["workload"]: r for r in data["runs"] if not r["trace"]}
    traced = {r["workload"]: r for r in data["runs"] if r["trace"]}
    names = [w["name"] for w in spec["workloads"] if w["name"] in plain]
    lines = [
        f"From `{path.name}` (commit `{data['commit']}`, seed {data['seed']}, "
        f"`--seconds {data['seconds']:g}`).",
        "",
        "| metric | " + " | ".join(f"`{n}`" for n in names) + " |",
        "|---|" + "---|" * len(names),
    ]
    for m in spec["end_to_end"]:
        cells = " | ".join(
            f"{plain[n]['metrics'][m['name']]:.5g}" for n in names
        )
        lines.append(f"| `{m['name']}` ({m['unit']}) | {cells} |")
    if traced:
        lines += [
            "",
            "Share of the fastest traced round owned by each layer (self "
            "time, µs per query in brackets):",
            "",
            "| layer self time | " + " | ".join(f"`{n}`" for n in names) + " |",
            "|---|" + "---|" * len(names),
        ]
        shares = {}
        for n in names:
            metrics = traced[n]["metrics"]
            covered = sum(metrics[k] for k in SELF_TIME_METRICS)
            shares[n] = covered / (1.0 - metrics["host.untraced_frac"])
        for key in SELF_TIME_METRICS:
            cells = []
            for n in names:
                value = traced[n]["metrics"][key]
                cells.append(
                    f"{value / shares[n]:.1%} ({value:.1f})" if value else "–"
                )
            lines.append(f"| `{key}` | " + " | ".join(cells) + " |")
        for key in ("host.untraced_frac", "trace.overhead_frac",
                    "host.calls_per_query", "host.cpu_us_per_query"):
            cells = " | ".join(
                f"{traced[n]['metrics'][key]:.4g}" for n in names
            )
            lines.append(f"| `{key}` | {cells} |")
    return "\n".join(lines)


def replace_block(text: str, name: str, body: str) -> str:
    pattern = re.compile(
        rf"(<!-- BEGIN:{name} -->\n).*?(<!-- END:{name} -->)", re.DOTALL
    )
    if not pattern.search(text):
        raise SystemExit(f"README.md has no block named {name}")
    return pattern.sub(lambda m: m.group(1) + body + "\n" + m.group(2), text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", type=Path,
                        help="a suite.py result file for the first readings")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    spec = contract.load()
    current = README.read_text()
    text = current
    for name, block in (
        ("workloads", workloads_block),
        ("end-to-end", end_to_end_block),
        ("per-layer", per_layer_block),
    ):
        text = replace_block(text, name, block(spec))
    if args.results:
        text = replace_block(
            text, "first-readings", first_readings_block(spec, args.results)
        )
    if args.check:
        if text != current:
            print("README.md is out of date; run gen_readme.py", file=sys.stderr)
            return 1
        return 0
    README.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
