"""Extension: replication benefit under the batched / NDP executors.

Not a figure of the paper.  MaxEmbed's selective replication buys fewer
page reads per query; how much that matters depends on what a *command*
costs the host and the device.  This sweep serves the same live trace
through three executors — ``pipelined`` (one submission per page, the
paper's default), ``batched`` (one submitted batch per query), and
``ndp`` (one in-device gather per query, RecSSD-style) — at several
replication ratios, and reports each cell's throughput plus the
*replication benefit* (throughput over the unreplicated layout under
the same executor).

Expected shape: the pipelined and batched executors keep the paper's
benefit curve (fewer reads → more bandwidth headroom), while NDP
*flattens* it — once the device parses pages internally and only ships
valid embeddings over the bus, read amplification is paid at the
(faster) internal bandwidth and the bus moves the same payload
regardless of placement, so replication's win shrinks to the per-page
media + scan cost.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..ssd import P5800X, P5800X_NDP
from .common import layout_for, make_engine, serve_live
from .report import ExperimentResult

SWEPT_EXECUTORS = ("pipelined", "batched", "ndp")


def run(
    dataset: str = "criteo",
    ratios: Sequence[float] = (0.0, 0.1, 0.3),
    scale: str = "bench",
    seed: int = 0,
    dim: int = 64,
    cache_ratio: float = 0.10,
    max_queries: Optional[int] = None,
) -> ExperimentResult:
    """Sweep executor x replication ratio on one dataset."""
    result = ExperimentResult(
        exp_id="extension-ndp",
        title=(
            f"Replication benefit by executor on {dataset} "
            f"(pipelined / batched / ndp)"
        ),
        headers=[
            "executor",
            "ratio",
            "qps",
            "benefit",
            "p99_us",
            "pages_read",
            "eff_bw",
        ],
        notes=(
            "benefit = qps over the ratio-0 layout under the same "
            "executor; "
            "NDP flattens the curve: in-device gathers pay read "
            "amplification at internal bandwidth, so replication's win "
            "shrinks to media + controller-scan time"
        ),
    )
    for executor in SWEPT_EXECUTORS:
        profile = P5800X_NDP if executor == "ndp" else P5800X
        base_qps = None
        for ratio in ratios:
            strategy = "none" if ratio == 0.0 else "maxembed"
            layout = layout_for(
                dataset, strategy, ratio, scale=scale, seed=seed, dim=dim
            )
            engine = make_engine(
                layout,
                dim=dim,
                cache_ratio=cache_ratio,
                executor=executor,
                profile=profile,
            )
            report = serve_live(
                engine, dataset, scale=scale, seed=seed,
                max_queries=max_queries,
            )
            qps = report.throughput_qps()
            if base_qps is None:
                base_qps = qps
            result.rows.append((
                executor,
                round(ratio, 2),
                round(qps),
                round(qps / base_qps, 3) if base_qps else 0.0,
                round(report.percentile_latency_us(99.0), 1),
                report.total_pages_read,
                round(report.effective_bandwidth_fraction(), 4),
            ))
    return result
