"""Workload substrate: synthetic recommendation query traces.

The paper evaluates on five public recommendation logs (Table 3).  Those
logs are not redistributable here, so this package generates synthetic
traces from a two-level model — Zipf item popularity × Zipf "interest
group" co-occurrence — that reproduces the structural properties the
paper's results hinge on:

* skewed popularity (a small hot set dominates),
* co-appearance breadth: hot items co-appear with far more items than one
  SSD page holds (the paper's §3 motivation), and
* per-dataset query-length and sparsity profiles matching Table 3's
  ratios at a laptop scale.
"""

from .synthetic import SyntheticTraceGenerator, WorkloadSpec
from .datasets import DATASETS, DatasetPreset, get_preset, make_trace
from .trace_io import load_trace, save_trace
from .adapters import hash_feature, parse_avazu_csv, parse_criteo_tsv
from .temporal import (
    burst_rate,
    sample_arrivals,
)
from .analysis import (
    BreadthReport,
    coappearance_breadth,
    gini_coefficient,
    summarize,
    top_share,
)

__all__ = [
    "WorkloadSpec",
    "SyntheticTraceGenerator",
    "DatasetPreset",
    "DATASETS",
    "get_preset",
    "make_trace",
    "save_trace",
    "load_trace",
    "BreadthReport",
    "coappearance_breadth",
    "gini_coefficient",
    "summarize",
    "top_share",
    "burst_rate",
    "sample_arrivals",
    "parse_criteo_tsv",
    "parse_avazu_csv",
    "hash_feature",
]
