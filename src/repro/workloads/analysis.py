"""Trace analysis: the statistics that decide whether MaxEmbed will help.

Before committing SSD space to replication, an operator wants to know
two things about a trace, and this module computes both:

* **skew** — how concentrated accesses are (drives cache effectiveness);
* **co-appearance breadth** — how many partners the hot keys co-occur
  with, versus the page capacity (the paper's §3 motivation: breadth
  beyond ``d`` is exactly what replication exploits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..errors import WorkloadError
from ..types import QueryTrace
from ..hypergraph import build_hypergraph
from ..hypergraph.stats import distinct_neighbour_counts


def access_counts(trace: QueryTrace) -> np.ndarray:
    """Per-key access counts over the trace (raw, duplicates included)."""
    counts = np.zeros(trace.num_keys, dtype=np.int64)
    for query in trace:
        for key in query.keys:
            counts[key] += 1
    return counts


def top_share(trace: QueryTrace, fraction: float = 0.1) -> float:
    """Share of accesses drawn by the hottest ``fraction`` of keys."""
    if not 0.0 < fraction <= 1.0:
        raise WorkloadError(f"fraction must be in (0, 1], got {fraction}")
    counts = access_counts(trace)
    total = counts.sum()
    if total == 0:
        return 0.0
    k = max(1, int(trace.num_keys * fraction))
    hottest = np.sort(counts)[::-1][:k]
    return float(hottest.sum() / total)


def gini_coefficient(trace: QueryTrace) -> float:
    """Gini coefficient of the access distribution (0 uniform, →1 skewed)."""
    counts = np.sort(access_counts(trace).astype(np.float64))
    total = counts.sum()
    if total == 0:
        return 0.0
    n = len(counts)
    ranks = np.arange(1, n + 1)
    return float((2 * (ranks * counts).sum()) / (n * total) - (n + 1) / n)


@dataclass(frozen=True)
class BreadthReport:
    """Co-appearance breadth vs page capacity."""

    page_capacity: int
    mean_breadth: float
    hot_mean_breadth: float
    fraction_exceeding_capacity: float


def coappearance_breadth(
    trace: QueryTrace, page_capacity: int = 16, hot_fraction: float = 0.05
) -> BreadthReport:
    """Measure the paper's §3 statistic on a trace."""
    if page_capacity <= 0:
        raise WorkloadError(
            f"page_capacity must be positive, got {page_capacity}"
        )
    graph = build_hypergraph(trace)
    breadth = np.asarray(distinct_neighbour_counts(graph), dtype=np.float64)
    degrees = np.asarray(graph.degrees())
    k = max(1, int(trace.num_keys * hot_fraction))
    hottest = np.argsort(-degrees)[:k]
    active = breadth[degrees > 0]
    return BreadthReport(
        page_capacity=page_capacity,
        mean_breadth=float(active.mean()) if len(active) else 0.0,
        hot_mean_breadth=float(breadth[hottest].mean()),
        fraction_exceeding_capacity=float(
            (active > page_capacity).mean()
        )
        if len(active)
        else 0.0,
    )


def summarize(trace: QueryTrace, page_capacity: int = 16) -> Dict[str, float]:
    """One-call overview used by the CLI and examples."""
    breadth = coappearance_breadth(trace, page_capacity)
    return {
        "num_keys": trace.num_keys,
        "num_queries": len(trace),
        "mean_query_length": trace.mean_query_length(),
        "top10pct_access_share": top_share(trace, 0.1),
        "gini": gini_coefficient(trace),
        "mean_coappearance_breadth": breadth.mean_breadth,
        "hot_coappearance_breadth": breadth.hot_mean_breadth,
        "fraction_beyond_page": breadth.fraction_exceeding_capacity,
    }
