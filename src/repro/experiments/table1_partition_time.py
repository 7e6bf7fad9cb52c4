"""Table 1 — offline partition time for different page capacities.

The paper reports SHP + replication (r=10 %) wall time on Criteo and
CriteoTB with 16/32/64 embeddings per page and observes the time is nearly
flat in d (the edge count dominates).  We measure the same at our scale.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..core import MaxEmbedConfig, build_offline_layout
from ..types import EmbeddingSpec
from .common import get_split_trace
from .report import ExperimentResult

TABLE1_DATASETS: Sequence[str] = ("criteo", "criteo_tb")
# d = page_size / (dim * 4); dims 64/32/16 give d = 16/32/64.
TABLE1_DIMS: Sequence[int] = (64, 32, 16)


def run(
    datasets: Sequence[str] = TABLE1_DATASETS,
    dims: Sequence[int] = TABLE1_DIMS,
    ratio: float = 0.1,
    scale: str = "bench",
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate Table 1: offline build wall time per (dataset, d)."""
    headers = ["dataset"] + [
        f"{EmbeddingSpec(dim=dim).slots_per_page}_per_page" for dim in dims
    ]
    result = ExperimentResult(
        exp_id="table1",
        title=f"Offline partition + replication time (r={ratio}), seconds",
        headers=headers,
        notes=(
            "partition time is nearly flat in the page capacity d; "
            "the larger dataset costs proportionally more"
        ),
    )
    for dataset in datasets:
        history, _ = get_split_trace(dataset, scale, seed)
        row: list = [dataset]
        for dim in dims:
            config = MaxEmbedConfig(
                spec=EmbeddingSpec(dim=dim),
                strategy="maxembed",
                replication_ratio=ratio,
                offline_workers=1,
                seed=seed,
            )
            started = time.perf_counter()
            build_offline_layout(history, config)
            row.append(round(time.perf_counter() - started, 2))
        result.rows.append(row)
    return result
