"""Table 2 — total cost of ownership of MaxEmbed (§7.3).

A pure price model, exactly as the paper computes it:

* CriteoTB embedding table ≈ 225 GB; at r=80 % it becomes ≈ 405 GB;
* compute: AWS c6g.16xlarge at $1,588/month;
* storage: Intel P5800X at $1.25/GB (800 GB drive ≈ $1,000) amortized
  over a drive lifetime, or Samsung PM1735 at $0.3125/GB;
* performance: the measured MaxEmbed speed-up at r=80 % (the paper uses
  1.16×; ours comes from the Figure 10 measurement when provided).

The paper amortizes drive cost into a monthly figure implicitly; we
follow its arithmetic: total = instance + the table's size at the drive's
price per GB.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ExperimentError
from .report import ExperimentResult


@dataclass(frozen=True)
class TcoModel:
    """Prices and capacities used by the paper's §7.3 estimate."""

    table_gb: float = 225.0
    replication_ratio: float = 0.8
    instance_cost: float = 1588.0  # c6g.16xlarge, $/month
    p5800x_drive_gb: float = 800.0
    p5800x_drive_cost: float = 1000.0
    pm1735_drive_gb: float = 1600.0
    pm1735_drive_cost: float = 500.0

    def replicated_table_gb(self) -> float:
        """Table size after replication."""
        return self.table_gb * (1.0 + self.replication_ratio)

    def total_cost_p5800x(self, size_gb: float) -> float:
        """Instance + Optane storage (the paper prices capacity linearly)."""
        per_gb = self.p5800x_drive_cost / self.p5800x_drive_gb
        return self.instance_cost + size_gb * per_gb

    def total_cost_pm1735(self, size_gb: float) -> float:
        """Instance + NAND storage."""
        per_gb = self.pm1735_drive_cost / self.pm1735_drive_gb
        return self.instance_cost + size_gb * per_gb


def run(
    performance_factor: float = 1.16,
    model: "TcoModel | None" = None,
) -> ExperimentResult:
    """Regenerate Table 2.

    Args:
        performance_factor: MaxEmbed speed-up at the model's replication
            ratio (paper uses the measured 1.16×; pass your own Figure 10
            measurement to re-derive).
        model: price model override.
    """
    if performance_factor <= 0:
        raise ExperimentError(
            f"performance_factor must be positive, got {performance_factor}"
        )
    model = model or TcoModel()
    base_gb = model.table_gb
    replicated_gb = model.replicated_table_gb()
    rows = []
    base_p58 = model.total_cost_p5800x(base_gb)
    me_p58 = model.total_cost_p5800x(replicated_gb)
    base_pm = model.total_cost_pm1735(base_gb)
    me_pm = model.total_cost_pm1735(replicated_gb)
    rows.append(["total_cost_p5800x_$", round(base_p58, 2), round(me_p58, 2)])
    rows.append(["total_cost_pm1735_$", round(base_pm, 2), round(me_pm, 2)])
    rows.append(["performance", 1.0, performance_factor])
    rows.append(
        [
            "perf_per_cost_p5800x",
            1.0,
            round(performance_factor / (me_p58 / base_p58), 3),
        ]
    )
    rows.append(
        [
            "perf_per_cost_pm1735",
            1.0,
            round(performance_factor / (me_pm / base_pm), 3),
        ]
    )
    return ExperimentResult(
        exp_id="table2",
        title=(
            f"TCO estimate (CriteoTB, r={model.replication_ratio}, "
            f"perf {performance_factor}x)"
        ),
        headers=["item", "baseline_shp", "maxembed"],
        rows=rows,
        notes=(
            "MaxEmbed's extra SSD spend is small next to the instance "
            "cost, so performance/cost stays above 1 on both drive types"
        ),
    )
