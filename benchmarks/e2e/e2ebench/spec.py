"""The contract, read from ``BENCHMARK.json`` at the repository root.

Names, units, directions and bounds are never typed anywhere else: the
runner emits exactly these metrics, and the README tables, ``aa.py`` and
``compare.py`` read them from here.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parents[1]
OUT_DIR = BENCH_DIR / "out"


def load() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def metric_table(spec: dict, trace: bool) -> Dict[str, dict]:
    """name → declaration of the metrics a ``--trace`` setting reports."""
    rows: List[dict] = spec["per_layer" if trace else "end_to_end"]
    return {row["name"]: row for row in rows}


def result_line(spec: dict, trace: bool, values: Dict[str, float],
                attempted: int, failed: int) -> str:
    """The run's last stdout line; refuses a metric set off the contract."""
    table = metric_table(spec, trace)
    if set(values) != set(table):
        missing = sorted(set(table) - set(values))
        extra = sorted(set(values) - set(table))
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}"
        )
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": values[name], "unit": table[name]["unit"]}
                for name in table
            },
        }
    )
