"""Ablations of MaxEmbed's design choices (DESIGN.md §5).

Not figures from the paper — these isolate *why* the design decisions the
paper made matter, using the same workloads and metrics:

* **scoring** — the §5.3 score ``Σ(λ−1)`` vs pure hotness (degree): the
  paper argues hotness alone (RPP's criterion) picks vertices whose
  replicas capture no new combination.
* **home-cluster exclusion** — replica pages skip neighbours already
  co-located with the base vertex; disabling it wastes replica slots on
  already-satisfied pairs.
* **partitioner refinement** — full SHP (bulk + KL) vs random assignment:
  quantifies how much the local search actually buys.

The selector ablation (one-pass vs greedy set cover vs the exact cover)
is ``benchmarks/bench_selector.py``: its baselines are oracles in
:mod:`repro.reference`, which the library does not import.
"""

from __future__ import annotations

from typing import Optional

from ..hypergraph import build_weighted_hypergraph
from ..metrics import evaluate_placement
from ..partition import (
    MultilevelPartitioner,
    RandomPartitioner,
    ShpConfig,
    ShpPartitioner,
)
from ..placement import layout_from_partition
from ..replication import ConnectivityPriorityStrategy
from .common import get_split_trace
from .report import ExperimentResult


def run_scoring(
    dataset: str = "criteo",
    ratio: float = 0.4,
    scale: str = "bench",
    seed: int = 0,
    capacity: int = 16,
    max_queries: Optional[int] = None,
) -> ExperimentResult:
    """Ablation: connectivity-priority score vs pure-hotness score."""
    history, live = get_split_trace(dataset, scale, seed)
    graph = build_weighted_hypergraph(history)
    partitioner = ShpPartitioner(ShpConfig(seed=seed))
    result = ExperimentResult(
        exp_id="ablation-scoring",
        title=f"Replica scoring ablation ({dataset}, r={ratio})",
        headers=["scoring", "eff_bw", "valid_per_read"],
        notes=(
            "the Σ(λ−1) score beats pure hotness: hot-but-already-"
            "colocated vertices waste replica budget"
        ),
    )
    for scoring in ("connectivity", "hotness"):
        strategy = ConnectivityPriorityStrategy(partitioner, scoring=scoring)
        layout = strategy.build_layout(graph, capacity, ratio)
        evaluation = evaluate_placement(layout, live, max_queries=max_queries)
        result.rows.append(
            [
                scoring,
                round(evaluation.effective_fraction(), 4),
                round(evaluation.mean_valid_per_read(), 3),
            ]
        )
    return result


def run_home_cluster_exclusion(
    dataset: str = "criteo",
    ratio: float = 0.4,
    scale: str = "bench",
    seed: int = 0,
    capacity: int = 16,
    max_queries: Optional[int] = None,
) -> ExperimentResult:
    """Ablation: excluding home-cluster co-residents from replica pages."""
    history, live = get_split_trace(dataset, scale, seed)
    graph = build_weighted_hypergraph(history)
    partitioner = ShpPartitioner(ShpConfig(seed=seed))
    result = ExperimentResult(
        exp_id="ablation-home-exclusion",
        title=f"Home-cluster exclusion ablation ({dataset}, r={ratio})",
        headers=["exclude_home_cluster", "eff_bw", "valid_per_read"],
        notes=(
            "excluding already-colocated neighbours keeps replica slots "
            "for combinations the base partition broke"
        ),
    )
    for exclude in (True, False):
        strategy = ConnectivityPriorityStrategy(
            partitioner, exclude_home_cluster=exclude
        )
        layout = strategy.build_layout(graph, capacity, ratio)
        evaluation = evaluate_placement(layout, live, max_queries=max_queries)
        result.rows.append(
            [
                str(exclude),
                round(evaluation.effective_fraction(), 4),
                round(evaluation.mean_valid_per_read(), 3),
            ]
        )
    return result


def run_page_grain_admission(
    dataset: str = "criteo",
    ratio: float = 0.8,
    cache_ratio: float = 0.05,
    scale: str = "bench",
    seed: int = 0,
    max_queries: Optional[int] = 1200,
) -> ExperimentResult:
    """Extension ablation: admit whole read pages to the cache?

    A page read brings ``d`` embeddings into DRAM for free, so admitting
    all of them (not just the requested keys) sounds like free hit rate.
    Measured result: the effect on plain LRU is workload-dependent — at
    bench scale the cold co-residents *pollute* the cache and the hit
    rate drops, while scan-resistant policies (segmented LRU, LFU)
    absorb the flood and never lose.  If you page-grain admit, pair it
    with a probation/protection split.
    """
    from ..serving import EngineConfig, ServingEngine
    from .common import layout_for as _layout_for, serve_live as _serve

    layout = _layout_for(dataset, "maxembed", ratio, scale, seed)
    result = ExperimentResult(
        exp_id="ablation-admission",
        title=(
            f"Page-grain cache admission ({dataset}, r={ratio}, "
            f"cache={cache_ratio:.0%})"
        ),
        headers=["policy", "admission", "hit_rate", "throughput_qps"],
        notes=(
            "page-grain admission can pollute plain LRU (it does at bench "
            "scale); scan-resistant policies (slru/lfu) absorb the flood "
            "and never lose — key-grain LRU is a sound default"
        ),
    )
    for policy in ("lru", "slru", "lfu"):
        for page_grain in (False, True):
            engine = ServingEngine(
                layout,
                EngineConfig(
                    cache_ratio=cache_ratio,
                    cache_policy=policy,
                    page_grain_admission=page_grain,
                    index_limit=5,
                ),
            )
            report = _serve(
                engine, dataset, scale, seed, max_queries=max_queries
            )
            result.rows.append(
                [
                    policy,
                    "page" if page_grain else "key",
                    round(report.cache_hit_rate(), 4),
                    round(report.throughput_qps()),
                ]
            )
    return result


def run_history_sensitivity(
    dataset: str = "criteo",
    ratio: float = 0.4,
    fractions: "tuple" = (0.1, 0.25, 0.5, 1.0),
    scale: str = "bench",
    seed: int = 0,
    capacity: int = 16,
    max_queries: Optional[int] = None,
) -> ExperimentResult:
    """Extension: how much historical log does the offline phase need?

    Build the MaxEmbed placement from progressively smaller samples of
    the history and measure the live-traffic bandwidth each achieves —
    the offline-cost/quality trade-off behind the paper's Table 1 (the
    paper partitions the full log; at CriteoTB scale that costs ~3 h).
    """
    import time

    from ..hypergraph import sample_trace

    history, live = get_split_trace(dataset, scale, seed)
    partitioner = ShpPartitioner(ShpConfig(seed=seed))
    strategy = ConnectivityPriorityStrategy(partitioner)
    result = ExperimentResult(
        exp_id="extension-history",
        title=f"Offline history-size sensitivity ({dataset}, r={ratio})",
        headers=["history_fraction", "offline_seconds", "eff_bw"],
        notes=(
            "placement quality saturates well before the full log is "
            "mined — sampling slashes the offline cost"
        ),
    )
    for fraction in fractions:
        sampled = sample_trace(history, fraction, seed=seed)
        graph = build_weighted_hypergraph(sampled)
        started = time.perf_counter()
        layout = strategy.build_layout(graph, capacity, ratio)
        elapsed = time.perf_counter() - started
        bandwidth = evaluate_placement(
            layout, live, max_queries=max_queries
        ).effective_fraction()
        result.rows.append(
            [f"{fraction:.0%}", round(elapsed, 2), round(bandwidth, 4)]
        )
    return result


def run_load_latency(
    dataset: str = "criteo",
    ratio: float = 0.8,
    load_points: "tuple" = (0.2, 0.5, 0.8, 0.95),
    cache_ratio: float = 0.05,
    scale: str = "bench",
    seed: int = 0,
    max_queries: Optional[int] = 1500,
) -> ExperimentResult:
    """Extension: open-loop latency vs offered load, SHP vs MaxEmbed.

    Closed-loop throughput (Figure 10) measures capacity; this sweeps a
    Poisson arrival rate toward each system's own capacity and reports
    p99 latency — the SLO view.  MaxEmbed's fewer pages per query buy a
    higher capacity, so at equal *absolute* load it also queues less.
    """
    from ..serving.openloop import OpenLoopSimulator
    from .common import layout_for, make_engine, get_split_trace as _split

    _, live = _split(dataset, scale, seed)
    queries = list(live)
    if max_queries is not None:
        queries = queries[:max_queries]
    result = ExperimentResult(
        exp_id="extension-load-latency",
        title=f"Open-loop p99 latency vs offered load ({dataset}, r={ratio})",
        headers=["system", "capacity_qps"]
        + [f"p99@{int(p * 100)}%" for p in load_points],
        notes=(
            "p99 latency rises toward each system's capacity knee; "
            "MaxEmbed's higher capacity shifts the knee right"
        ),
    )
    for label, strategy, r in (
        ("shp", "none", 0.0),
        ("maxembed", "maxembed", ratio),
    ):
        layout = layout_for(dataset, strategy, r, scale, seed)
        capacity = (
            make_engine(layout, cache_ratio=cache_ratio, index_limit=5)
            .serve_trace(queries, warmup_queries=len(queries) // 10)
            .throughput_qps()
        )
        row = [label, round(capacity)]
        for point in load_points:
            engine = make_engine(
                layout, cache_ratio=cache_ratio, index_limit=5
            )
            report = OpenLoopSimulator(engine, seed=seed).run(
                queries, offered_qps=capacity * point
            )
            row.append(round(report.percentile_latency_us(99), 1))
        result.rows.append(row)
    return result


def run_page_size_sensitivity(
    dataset: str = "criteo",
    page_sizes: "tuple" = (2048, 4096, 8192, 16384),
    ratio: float = 0.4,
    dim: int = 64,
    scale: str = "bench",
    seed: int = 0,
    max_queries: Optional[int] = None,
) -> ExperimentResult:
    """Extension: SSD page size sweep (the paper fixes 4 KiB).

    Larger pages hold more embeddings (d grows) so a good placement can
    serve more keys per read — but every read also transfers more raw
    bytes, so the *fraction* of useful bytes falls unless the extra slots
    are actually filled with co-appearing keys.
    """
    from ..types import EmbeddingSpec

    history, live = get_split_trace(dataset, scale, seed)
    graph = build_weighted_hypergraph(history)
    partitioner = ShpPartitioner(ShpConfig(seed=seed))
    strategy = ConnectivityPriorityStrategy(partitioner)
    result = ExperimentResult(
        exp_id="extension-page-size",
        title=f"Page-size sensitivity ({dataset}, dim={dim}, r={ratio})",
        headers=[
            "page_size",
            "slots_per_page",
            "reads_per_query",
            "valid_per_read",
            "eff_bw_fraction",
        ],
        notes=(
            "bigger pages cut reads per query but dilute the useful "
            "fraction of each transfer; 4 KiB sits near the knee"
        ),
    )
    for page_size in page_sizes:
        spec = EmbeddingSpec(dim=dim, page_size=page_size)
        capacity = spec.slots_per_page
        layout = strategy.build_layout(graph, capacity, ratio)
        evaluation = evaluate_placement(
            layout,
            live,
            embedding_bytes=spec.embedding_bytes,
            page_size=page_size,
            max_queries=max_queries,
        )
        result.rows.append(
            [
                page_size,
                capacity,
                round(evaluation.mean_reads_per_query(), 2),
                round(evaluation.mean_valid_per_read(), 2),
                round(evaluation.effective_fraction(), 4),
            ]
        )
    return result


def run_partitioner_comparison(
    datasets: "tuple" = ("criteo", "alibaba_ifashion", "amazon_m2"),
    scale: str = "bench",
    seed: int = 0,
    capacity: int = 16,
    max_queries: Optional[int] = None,
) -> ExperimentResult:
    """Extension: SHP vs the multilevel (KaHyPar-family) partitioner.

    The paper uses SHP (scales via map-reduce); PaToH/KaHyPar are the
    quality-oriented alternatives it cites.  Same metric as Figure 3,
    one row per dataset.
    """
    result = ExperimentResult(
        exp_id="extension-partitioners",
        title="Placement quality by partitioner (effective bandwidth)",
        headers=[
            "dataset",
            "random",
            "vanilla",
            "streaming",
            "shp",
            "multilevel",
        ],
        notes=(
            "structured partitioners beat the oblivious baselines on "
            "every dataset; one-pass streaming lands in between (the "
            "bootstrap placement); SHP vs multilevel is workload-dependent"
        ),
    )
    from ..partition import StreamingPartitioner, VanillaPlacement
    from ..placement import layout_from_partition

    for dataset in datasets:
        history, live = get_split_trace(dataset, scale, seed)
        graph = build_weighted_hypergraph(history)
        row = [dataset]
        for partitioner in (
            RandomPartitioner(seed=seed),
            VanillaPlacement(),
            StreamingPartitioner(),
            ShpPartitioner(ShpConfig(seed=seed)),
            MultilevelPartitioner(),
        ):
            layout = layout_from_partition(
                partitioner.partition(graph, capacity)
            )
            row.append(
                round(
                    evaluate_placement(
                        layout, live, max_queries=max_queries
                    ).effective_fraction(),
                    4,
                )
            )
        result.rows.append(row)
    return result


def run_benefit_extension(
    dataset: str = "criteo",
    ratios: "tuple" = (0.1, 0.4),
    scale: str = "bench",
    seed: int = 0,
    capacity: int = 16,
    max_queries: Optional[int] = None,
) -> ExperimentResult:
    """Extension: lazy-greedy marginal-benefit replication vs the paper's.

    Same page budget, same partitioner — the only change is *which*
    replica pages get built.  The marginal-benefit view (submodular
    greedy) avoids spending budget on pages whose pairs are already
    co-located by earlier picks.
    """
    from ..replication import GreedyBenefitStrategy

    history, live = get_split_trace(dataset, scale, seed)
    graph = build_weighted_hypergraph(history)
    partitioner = ShpPartitioner(ShpConfig(seed=seed))
    result = ExperimentResult(
        exp_id="extension-benefit",
        title=f"Marginal-benefit replication vs paper strategy ({dataset})",
        headers=["strategy"] + [f"r{int(r * 100)}%_bw" for r in ratios],
        notes=(
            "the submodular-greedy extension beats the paper's one-shot "
            "scoring at the same budget, at higher offline cost"
        ),
    )
    for label, strategy in (
        ("maxembed", ConnectivityPriorityStrategy(partitioner)),
        ("greedy_benefit", GreedyBenefitStrategy(partitioner)),
    ):
        row = [label]
        for ratio in ratios:
            layout = strategy.build_layout(graph, capacity, ratio)
            row.append(
                round(
                    evaluate_placement(
                        layout, live, max_queries=max_queries
                    ).effective_fraction(),
                    4,
                )
            )
        result.rows.append(row)
    return result


def run_cache_policy(
    dataset: str = "criteo",
    ratio: float = 0.4,
    cache_ratio: float = 0.05,
    scale: str = "bench",
    seed: int = 0,
    max_queries: Optional[int] = 1200,
) -> ExperimentResult:
    """Ablation: CacheLib-LRU vs FIFO/LFU/segmented-LRU in front of MaxEmbed.

    The paper picks CacheLib's LRU (updateOnRead) as its read-intensive
    configuration; this sweep checks whether the choice of policy moves
    the end-to-end picture.
    """
    from .common import layout_for, make_engine, serve_live

    layout = layout_for(dataset, "maxembed", ratio, scale, seed)
    result = ExperimentResult(
        exp_id="ablation-cache-policy",
        title=(
            f"Cache policy ablation ({dataset}, r={ratio}, "
            f"cache={cache_ratio:.0%})"
        ),
        headers=["policy", "hit_rate", "throughput_qps", "mean_latency_us"],
        notes=(
            "frequency-aware policies (lfu/slru) lift the hit rate on the "
            "skewed stream, but end-to-end throughput moves only modestly "
            "— the placement, not the cache policy, is the lever"
        ),
    )
    for policy in ("lru", "slru", "lfu", "fifo"):
        engine = make_engine(layout, cache_ratio=cache_ratio, index_limit=5)
        engine.cache = type(engine.cache)(
            layout.num_keys, cache_ratio, policy=policy
        )
        report = serve_live(
            engine, dataset, scale, seed, max_queries=max_queries
        )
        result.rows.append(
            [
                policy,
                round(report.cache_hit_rate(), 4),
                round(report.throughput_qps()),
                round(report.mean_latency_us(), 2),
            ]
        )
    return result


def run_tiering(
    dataset: str = "criteo",
    ratio: float = 0.4,
    dram_budget: float = 0.05,
    scale: str = "bench",
    seed: int = 0,
    max_queries: Optional[int] = 1200,
) -> ExperimentResult:
    """Ablation: reactive LRU vs statistical pinned tier vs hybrid.

    All three modes get the same DRAM key budget (``dram_budget`` of the
    table); what differs is admission.  ``lru`` spends it all on the
    reactive cache, ``pinned`` pins the history-hottest keys offline
    (RecShard-style statistical admission), ``hybrid`` splits the budget
    between a pinned floor and an LRU front for the residue.
    """
    from .fig12_cache_ratio import tiered_engine_options
    from .common import layout_for, make_engine, serve_live

    layout = layout_for(dataset, "maxembed", ratio, scale, seed)
    result = ExperimentResult(
        exp_id="ablation-tiering",
        title=(
            f"DRAM tier ablation ({dataset}, r={ratio}, "
            f"budget={dram_budget:.0%})"
        ),
        headers=[
            "tier_mode",
            "dram_hit_rate",
            "pages_per_query",
            "throughput_qps",
            "p99_latency_us",
        ],
        notes=(
            "the statistically pinned tier serves more keys from DRAM "
            "than reactive LRU at equal budget — hot-set membership is "
            "stable enough to decide offline; hybrid hedges the residue"
        ),
    )
    for mode in ("lru", "pinned", "hybrid"):
        options = tiered_engine_options(
            mode, dram_budget, dataset, "maxembed", ratio, scale, seed, 64
        )
        engine = make_engine(layout, index_limit=5, **options)
        report = serve_live(
            engine, dataset, scale, seed, max_queries=max_queries
        )
        result.rows.append(
            [
                mode,
                round(report.dram_hit_rate(), 4),
                round(report.total_pages_read / report.num_queries, 3),
                round(report.throughput_qps()),
                round(report.percentile_latency_us(99), 2),
            ]
        )
    return result


def run_partitioner_refinement(
    dataset: str = "criteo",
    scale: str = "bench",
    seed: int = 0,
    capacity: int = 16,
    max_queries: Optional[int] = None,
) -> ExperimentResult:
    """Ablation: SHP local search vs a random balanced partition."""
    history, live = get_split_trace(dataset, scale, seed)
    graph = build_weighted_hypergraph(history)
    result = ExperimentResult(
        exp_id="ablation-partitioner",
        title=f"Partitioner refinement ablation ({dataset})",
        headers=["partitioner", "eff_bw", "valid_per_read"],
        notes="SHP's local search is what lifts placement above random",
    )
    for name, partitioner in (
        ("random", RandomPartitioner(seed=seed)),
        ("multilevel", MultilevelPartitioner()),
        ("shp_bulk_only", ShpPartitioner(ShpConfig(kl_threshold=0, seed=seed))),
        ("shp_full", ShpPartitioner(ShpConfig(seed=seed))),
    ):
        layout = layout_from_partition(partitioner.partition(graph, capacity))
        evaluation = evaluate_placement(layout, live, max_queries=max_queries)
        result.rows.append(
            [
                name,
                round(evaluation.effective_fraction(), 4),
                round(evaluation.mean_valid_per_read(), 3),
            ]
        )
    return result
