"""Batched query serving.

The paper notes (§8.2) that "putting multiple batches of queries
simultaneously may cause duplication": concurrent queries share hot keys,
so serving them independently re-reads the same pages.  A batch server
merges a group of queries, deduplicates their key sets, performs *one*
page selection over the union, and fans the covered keys back out to the
member queries — an extension the paper leaves implicit in its serving
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from ..errors import ServingError
from ..types import Query
from .engine import ServingEngine


@dataclass
class BatchResult:
    """Outcome of serving one merged batch.

    Attributes:
        num_queries: queries merged into the batch.
        distinct_keys: unique keys across the batch (after dedup).
        duplicate_keys: key references removed by deduplication.
        pages_read: SSD reads issued for the whole batch.
        finish_us: completion time of the batch.
        start_us: submission time of the batch.
        per_query_keys: for each member query, its covered key tuple.
    """

    num_queries: int
    distinct_keys: int
    duplicate_keys: int
    pages_read: int
    start_us: float
    finish_us: float
    per_query_keys: Tuple[Tuple[int, ...], ...]

    @property
    def latency_us(self) -> float:
        """Batch latency (all member queries complete together)."""
        return self.finish_us - self.start_us

    def dedup_ratio(self) -> float:
        """Fraction of key references removed by cross-query dedup."""
        total = self.distinct_keys + self.duplicate_keys
        return self.duplicate_keys / total if total else 0.0


class BatchServer:
    """Serve groups of queries through one engine with cross-query dedup."""

    def __init__(self, engine: ServingEngine) -> None:
        self.engine = engine

    def serve_batch(
        self, queries: Sequence[Query], start_us: float = 0.0
    ) -> BatchResult:
        """Merge ``queries``, serve the union once, fan results out."""
        if not queries:
            raise ServingError("a batch needs at least one query")
        seen: Set[int] = set()
        merged: List[int] = []
        duplicates = 0
        for query in queries:
            for key in query.unique_keys():
                if key in seen:
                    duplicates += 1
                else:
                    seen.add(key)
                    merged.append(key)
        result = self.engine.serve_query(Query(tuple(merged)), start_us)
        return BatchResult(
            num_queries=len(queries),
            distinct_keys=len(merged),
            duplicate_keys=duplicates,
            pages_read=result.pages_read,
            start_us=start_us,
            finish_us=result.finish_us,
            per_query_keys=tuple(q.unique_keys() for q in queries),
        )

    def serve_stream(
        self, queries: Sequence[Query], batch_size: int
    ) -> List[BatchResult]:
        """Split a query stream into consecutive batches and serve each.

        Batches run back-to-back on one simulated worker; the caller can
        compare total pages read against unbatched serving to quantify
        the dedup win.
        """
        if batch_size <= 0:
            raise ServingError(f"batch_size must be positive, got {batch_size}")
        results: List[BatchResult] = []
        now = 0.0
        for start in range(0, len(queries), batch_size):
            chunk = list(queries[start : start + batch_size])
            result = self.serve_batch(chunk, start_us=now)
            now = result.finish_us
            results.append(result)
        return results


def batching_summary(results: Sequence[BatchResult]) -> Dict[str, float]:
    """Aggregate a stream's batching effect into a flat report mapping."""
    if not results:
        raise ServingError("no batch results to summarize")
    total_queries = sum(r.num_queries for r in results)
    total_pages = sum(r.pages_read for r in results)
    total_dupes = sum(r.duplicate_keys for r in results)
    total_keys = sum(r.distinct_keys for r in results)
    makespan = results[-1].finish_us - results[0].start_us
    return {
        "batches": len(results),
        "queries": total_queries,
        "pages_read": total_pages,
        "duplicate_keys_removed": total_dupes,
        "dedup_ratio": total_dupes / (total_dupes + total_keys)
        if (total_dupes + total_keys)
        else 0.0,
        "throughput_qps": total_queries / (makespan * 1e-6)
        if makespan > 0
        else 0.0,
    }
