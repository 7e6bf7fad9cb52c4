"""Run every experiment and render a combined report.

``python -m repro.cli experiments`` drives this; the benchmark suite calls
the individual modules directly.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Optional

from ..errors import ExperimentError
from . import (
    ablations,
    drift,
    extension_ndp,
    refresh,
    fig03_motivation,
    fig08_effective_bandwidth,
    fig_cluster_scaling,
    fig09_valid_embeddings,
    fig10_throughput,
    fig11_latency,
    fig12_cache_ratio,
    fig13_no_cache,
    fig14_strategies,
    fig15_time_breakdown,
    fig16_index_shrinking,
    fig17_sensitivity,
    table1_partition_time,
    table2_tco,
)
from .report import ExperimentResult

ALL_EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "fig3": fig03_motivation.run,
    "fig8": fig08_effective_bandwidth.run,
    "fig9": fig09_valid_embeddings.run,
    "fig10": fig10_throughput.run,
    "fig11": fig11_latency.run,
    "fig12": fig12_cache_ratio.run,
    "fig13": fig13_no_cache.run,
    "fig14": fig14_strategies.run,
    "fig15": fig15_time_breakdown.run,
    "fig16": fig16_index_shrinking.run,
    "fig17a": fig17_sensitivity.run_dimensions,
    "fig17b": fig17_sensitivity.run_ssd_types,
    "table1": table1_partition_time.run,
    "table2": table2_tco.run,
    "ablation-scoring": ablations.run_scoring,
    "ablation-home-exclusion": ablations.run_home_cluster_exclusion,
    "ablation-partitioner": ablations.run_partitioner_refinement,
    "ablation-cache-policy": ablations.run_cache_policy,
    "ablation-admission": ablations.run_page_grain_admission,
    "ablation-tiering": ablations.run_tiering,
    "extension-benefit": ablations.run_benefit_extension,
    "extension-partitioners": ablations.run_partitioner_comparison,
    "extension-page-size": ablations.run_page_size_sensitivity,
    "extension-load-latency": ablations.run_load_latency,
    "extension-history": ablations.run_history_sensitivity,
    "extension-ndp": extension_ndp.run,
    "cluster-scaling": fig_cluster_scaling.run,
    "drift": drift.run,
    "refresh": refresh.run,
}


def run_experiment(exp_id: str, **kwargs) -> ExperimentResult:
    """Run one experiment by id (``"fig8"``, ``"table1"``, …)."""
    if exp_id not in ALL_EXPERIMENTS:
        raise ExperimentError(
            f"unknown experiment {exp_id!r}; available: "
            f"{sorted(ALL_EXPERIMENTS)}"
        )
    func = ALL_EXPERIMENTS[exp_id]
    # Experiments take different knobs (table2 is a price model with no
    # `scale`); silently drop kwargs a given experiment does not accept so
    # run_all can broadcast shared settings.
    accepted = set(inspect.signature(func).parameters)
    filtered = {k: v for k, v in kwargs.items() if k in accepted}
    return func(**filtered)


def run_all(
    only: "Optional[List[str]]" = None, verbose: bool = True, **kwargs
) -> List[ExperimentResult]:
    """Run all (or ``only`` the listed) experiments in paper order."""
    ids = list(ALL_EXPERIMENTS) if only is None else list(only)
    results = []
    for exp_id in ids:
        result = run_experiment(exp_id, **kwargs)
        results.append(result)
        if verbose:
            print(result.render())
            print()
    return results


def write_markdown_report(
    results: List[ExperimentResult], path
) -> None:
    """Write a combined markdown report of experiment results to ``path``."""
    from pathlib import Path

    sections = ["# MaxEmbed reproduction — experiment report", ""]
    for result in results:
        sections.append(result.to_markdown())
        sections.append("")
    Path(path).write_text("\n".join(sections))
