"""Static effective-bandwidth evaluation of a page layout.

Runs one-pass page selection over every query of a trace (no cache,
no timing) and measures how many *useful* embeddings each page read
delivers.  The paper's "effective bandwidth" is the useful fraction of the
raw transfer::

    effective_fraction = useful_bytes / (pages_read × page_size)
    effective_bandwidth = effective_fraction × device_bandwidth

which is exactly what Figures 3, 8, 14, 16 and 17 plot (normalized or in
MB/s).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ConfigError
from ..placement import PageLayout, build_indexes
from ..serving.selection import OnePassSelector
from ..types import QueryTrace


@dataclass
class PlacementEvaluation:
    """Result of a static placement evaluation."""

    num_queries: int
    total_reads: int
    total_valid: int
    total_requested: int
    valid_per_read_hist: Dict[int, int] = field(default_factory=dict)
    embedding_bytes: int = 256
    page_size: int = 4096

    def mean_reads_per_query(self) -> float:
        """Average SSD reads per query."""
        return self.total_reads / self.num_queries if self.num_queries else 0.0

    def mean_valid_per_read(self) -> float:
        """Average requested embeddings served per page read."""
        return self.total_valid / self.total_reads if self.total_reads else 0.0

    def effective_fraction(self) -> float:
        """Useful bytes over raw bytes — the effective-bandwidth fraction."""
        raw = self.total_reads * self.page_size
        return (self.total_valid * self.embedding_bytes) / raw if raw else 0.0

    def effective_bandwidth_mb_s(self, device_bandwidth_gb_s: float) -> float:
        """Effective bandwidth at a device ceiling (MB/s)."""
        if device_bandwidth_gb_s <= 0:
            raise ConfigError(
                f"device bandwidth must be positive, got {device_bandwidth_gb_s}"
            )
        return self.effective_fraction() * device_bandwidth_gb_s * 1e3

    def cdf(self) -> List[tuple]:
        """CDF of valid embeddings per read as (value, cum_fraction)."""
        total = sum(self.valid_per_read_hist.values())
        points = []
        acc = 0
        for value in sorted(self.valid_per_read_hist):
            acc += self.valid_per_read_hist[value]
            points.append((value, acc / total))
        return points


def evaluate_placement(
    layout: PageLayout,
    trace: QueryTrace,
    index_limit: Optional[int] = None,
    embedding_bytes: int = 256,
    page_size: int = 4096,
    max_queries: Optional[int] = None,
) -> PlacementEvaluation:
    """Evaluate ``layout`` on ``trace`` under one-pass selection.

    Args:
        layout: placement under test.
        trace: queries to replay (no cache — every key goes to SSD).
        index_limit: forward-index shrink ``k`` (None = full).
        embedding_bytes: bytes per embedding vector.
        page_size: SSD page size in bytes.
        max_queries: optionally evaluate only the head of the trace.
    """
    forward, invert = build_indexes(layout, limit=index_limit)
    chooser = OnePassSelector(forward, invert)
    evaluation = PlacementEvaluation(
        num_queries=0,
        total_reads=0,
        total_valid=0,
        total_requested=0,
        embedding_bytes=embedding_bytes,
        page_size=page_size,
    )
    for index, query in enumerate(trace):
        if max_queries is not None and index >= max_queries:
            break
        keys = query.unique_keys()
        outcome = chooser.select(keys)
        evaluation.num_queries += 1
        evaluation.total_requested += len(keys)
        evaluation.total_reads += outcome.num_steps
        for valid in outcome.covered_counts:
            evaluation.total_valid += valid
            evaluation.valid_per_read_hist[valid] = (
                evaluation.valid_per_read_hist.get(valid, 0) + 1
            )
    return evaluation
