"""Figure 17 — sensitivity analysis.

(a) Embedding dimension ∈ {32, 64, 128} on Alibaba-iFashion: larger
vectors mean fewer slots per page (d = 32/16/8), so the SHP baseline gets
worse and replication helps relatively more; absolute effective bandwidth
in MB/s falls with dimension at r=0 but always grows with r.

(b) SSD type ∈ {P4510, P5800X, RAID-0 of two P5800X}: placement quality is
device-independent, so the vanilla < SHP < MaxEmbed ordering holds on all
three and absolute MB/s scales with the device's bandwidth.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..metrics import evaluate_placement
from ..ssd import P4510, P5800X, RAID0_2X_P5800X
from ..types import EmbeddingSpec
from .common import get_split_trace, layout_for
from .report import ExperimentResult

FIG17A_DIMS: Sequence[int] = (32, 64, 128)
FIG17A_RATIOS: Sequence[float] = (0.0, 0.25, 0.5, 0.75)


def run_dimensions(
    dataset: str = "alibaba_ifashion",
    dims: Sequence[int] = FIG17A_DIMS,
    ratios: Sequence[float] = FIG17A_RATIOS,
    scale: str = "bench",
    seed: int = 0,
    max_queries: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate Figure 17(a): effective bandwidth (MB/s) vs r per dim."""
    _, live = get_split_trace(dataset, scale, seed)
    headers = ["dim"] + [f"r{int(r * 100)}%_MBps" for r in ratios]
    result = ExperimentResult(
        exp_id="fig17a",
        title=f"Sensitivity to embedding dimension ({dataset}, P5800X)",
        headers=headers,
        notes=(
            "bandwidth grows with r for every dimension; larger dims start "
            "lower (fewer slots per page) and gain relatively more"
        ),
    )
    for dim in dims:
        spec = EmbeddingSpec(dim=dim)
        row = [dim]
        for ratio in ratios:
            strategy = "none" if ratio == 0 else "maxembed"
            layout = layout_for(dataset, strategy, ratio, scale, seed, dim)
            evaluation = evaluate_placement(
                layout,
                live,
                embedding_bytes=spec.embedding_bytes,
                page_size=spec.page_size,
                max_queries=max_queries,
            )
            row.append(
                round(
                    evaluation.effective_bandwidth_mb_s(P5800X.bandwidth_gb_s),
                    1,
                )
            )
        result.rows.append(row)
    return result


def run_ssd_types(
    dataset: str = "alibaba_ifashion",
    ratio: float = 0.4,
    scale: str = "bench",
    seed: int = 0,
    dim: int = 64,
    max_queries: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate Figure 17(b): vanilla/SHP/ME bandwidth per SSD type."""
    spec = EmbeddingSpec(dim=dim)
    _, live = get_split_trace(dataset, scale, seed)
    profiles = (
        ("P4510", P4510),
        ("P5800X", P5800X),
        ("RAID0", RAID0_2X_P5800X),
    )
    result = ExperimentResult(
        exp_id="fig17b",
        title=f"Sensitivity to SSD type ({dataset}, r={ratio})",
        headers=["ssd", "vanilla_MBps", "shp_MBps", "me_MBps"],
        notes=(
            "vanilla < SHP < MaxEmbed on every device; absolute MB/s "
            "scales with the device bandwidth, ordering is unchanged"
        ),
    )
    fractions = {}
    for label, strategy, r, partitioner in (
        ("vanilla", "none", 0.0, "vanilla"),
        ("shp", "none", 0.0, "shp"),
        ("me", "maxembed", ratio, "shp"),
    ):
        layout = layout_for(
            dataset, strategy, r, scale, seed, dim, partitioner=partitioner
        )
        fractions[label] = evaluate_placement(
            layout,
            live,
            embedding_bytes=spec.embedding_bytes,
            page_size=spec.page_size,
            max_queries=max_queries,
        ).effective_fraction()
    for name, profile in profiles:
        result.rows.append(
            [
                name,
                round(fractions["vanilla"] * profile.bandwidth_gb_s * 1e3, 1),
                round(fractions["shp"] * profile.bandwidth_gb_s * 1e3, 1),
                round(fractions["me"] * profile.bandwidth_gb_s * 1e3, 1),
            ]
        )
    return result
