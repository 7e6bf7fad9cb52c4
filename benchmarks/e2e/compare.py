#!/usr/bin/env python3
"""Compare two result files of ``suite.py``, metric by metric.

    python3 benchmarks/e2e/compare.py out/result-A-0.json out/result-B-0.json

One row per workload × end-to-end metric: base, new, ratio (new / base),
bound and a verdict.  ``unresolved`` means a side's own spread is wider
than the bound — that is not "unchanged".  Exits non-zero on any ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from e2ebench import spec as contract  # noqa: E402


def spread(values: List[float]) -> float:
    """Quartile distance over the median (range over median below 4 runs)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def collect(path: str) -> Dict[tuple, List[float]]:
    """(workload, metric) → values of the untraced runs in one file."""
    with open(path) as handle:
        data = json.load(handle)
    values: Dict[tuple, List[float]] = {}
    for run in data["runs"]:
        if run["trace"]:
            continue
        for metric, value in run["metrics"].items():
            values.setdefault((run["workload"], metric), []).append(value)
    return values


def verdict(base: List[float], new: List[float], row: dict) -> str:
    bound = row["bound"]
    if spread(base) > bound or spread(new) > bound:
        return "unresolved"
    a, b = statistics.median(base), statistics.median(new)
    gain = (b - a) / abs(a) if row["better"] == "higher" else (a - b) / abs(a)
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "same"


def compare(base_path: str, new_path: str, spec: dict) -> List[dict]:
    base, new = collect(base_path), collect(new_path)
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in new:
                continue
            a, b = statistics.median(base[key]), statistics.median(new[key])
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "unit": metric["unit"],
                "base": a,
                "new": b,
                "ratio": b / a,
                "runs": (len(base[key]), len(new[key])),
                "bound": metric["bound"],
                "verdict": verdict(base[key], new[key], metric),
            })
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(argv[0], argv[1], contract.load())
    print(f"{'workload':16s} {'metric':18s} {'base':>14s} {'new':>14s} "
          f"{'new/base':>9s} {'bound':>6s} {'runs':>6s}  verdict")
    for r in rows:
        print(f"{r['workload']:16s} {r['metric']:18s} {r['base']:14.6g} "
              f"{r['new']:14.6g} {r['ratio']:9.4f} {r['bound']:6.2f} "
              f"{r['runs'][0]:>3d}/{r['runs'][1]:<2d}  {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
