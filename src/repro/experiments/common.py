"""Shared experiment plumbing: trace and layout caches, engine helpers.

Partitioning dominates experiment cost, and most figures evaluate the same
(dataset, strategy, ratio) placements, so layouts are memoized
process-wide.  All experiments follow the paper's protocol: the offline
phase sees the first half of the trace ("historical logs"), the online
phase is measured on the second half.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..cluster import ShardedLayout, build_sharded_layout
from ..core import MaxEmbedConfig, build_offline_layout
from ..partition import ShpConfig
from ..placement import PageLayout
from ..serving import CpuCostModel, EngineConfig, ServingEngine, ServingReport
from ..ssd import SsdProfile, P5800X
from ..tiering import TierPlan
from ..types import EmbeddingSpec, QueryTrace
from ..workloads import make_trace

# The five evaluation datasets, in the paper's figure order.
DEFAULT_DATASETS: Tuple[str, ...] = (
    "alibaba_ifashion",
    "amazon_m2",
    "avazu",
    "criteo",
    "criteo_tb",
)

# The replication ratios of Figures 8/10/11.
DEFAULT_RATIOS: Tuple[float, ...] = (0.1, 0.2, 0.4, 0.8)

_trace_cache: Dict[tuple, Tuple[QueryTrace, QueryTrace]] = {}
_layout_cache: Dict[tuple, PageLayout] = {}
_sharded_cache: Dict[tuple, ShardedLayout] = {}
_tier_cache: Dict[tuple, TierPlan] = {}


def clear_caches() -> None:
    """Drop memoized traces and layouts (tests use this for isolation)."""
    _trace_cache.clear()
    _layout_cache.clear()
    _sharded_cache.clear()
    _tier_cache.clear()


def get_split_trace(
    dataset: str, scale: str = "bench", seed: int = 0
) -> Tuple[QueryTrace, QueryTrace]:
    """(history, live) halves of the dataset's generated trace, memoized."""
    key = (dataset, scale, seed)
    if key not in _trace_cache:
        trace, _ = make_trace(dataset, scale=scale, seed=seed)
        _trace_cache[key] = trace.split(0.5)
    return _trace_cache[key]


def layout_for(
    dataset: str,
    strategy: str,
    ratio: float,
    scale: str = "bench",
    seed: int = 0,
    dim: int = 64,
    partitioner: str = "shp",
    shp: "ShpConfig | None" = None,
) -> PageLayout:
    """Build (or fetch) the offline layout for one configuration."""
    key = (
        dataset,
        strategy,
        round(ratio, 6),
        scale,
        seed,
        dim,
        partitioner,
        shp,
    )
    if key not in _layout_cache:
        history, _ = get_split_trace(dataset, scale, seed)
        config = MaxEmbedConfig(
            spec=EmbeddingSpec(dim=dim),
            strategy=strategy,
            replication_ratio=ratio,
            partitioner=partitioner,
            shp=shp or ShpConfig(seed=seed),
            seed=seed,
        )
        _layout_cache[key] = build_offline_layout(history, config)
    return _layout_cache[key]


def sharded_layout_for(
    dataset: str,
    num_shards: int,
    shard_strategy: str,
    strategy: str = "maxembed",
    ratio: float = 0.1,
    scale: str = "bench",
    seed: int = 0,
    dim: int = 64,
) -> ShardedLayout:
    """Build (or fetch) the cluster offline artifact for one configuration."""
    key = (
        dataset,
        num_shards,
        shard_strategy,
        strategy,
        round(ratio, 6),
        scale,
        seed,
        dim,
    )
    if key not in _sharded_cache:
        history, _ = get_split_trace(dataset, scale, seed)
        config = MaxEmbedConfig(
            spec=EmbeddingSpec(dim=dim),
            strategy=strategy,
            replication_ratio=ratio,
            num_shards=num_shards,
            shard_strategy=shard_strategy,
            shp=ShpConfig(seed=seed),
            seed=seed,
        )
        _sharded_cache[key] = build_sharded_layout(history, config)
    return _sharded_cache[key]


def tier_plan_for(
    dataset: str,
    strategy: str,
    ratio: float,
    tier_ratio: float,
    scale: str = "bench",
    seed: int = 0,
    dim: int = 64,
) -> TierPlan:
    """Statistical tier plan from the dataset's history half, memoized.

    Same protocol as the layouts: the plan only ever sees the first
    half of the trace, so the live half measures true generalization
    of the offline hot-set selection.
    """
    from ..tiering import plan_tier_from_trace

    key = (dataset, strategy, round(ratio, 6), round(tier_ratio, 6),
           scale, seed, dim)
    if key not in _tier_cache:
        layout = layout_for(dataset, strategy, ratio, scale, seed, dim)
        history, _ = get_split_trace(dataset, scale, seed)
        _tier_cache[key] = plan_tier_from_trace(layout, history, tier_ratio)
    return _tier_cache[key]


def make_engine(
    layout: PageLayout,
    dim: int = 64,
    cache_ratio: float = 0.10,
    index_limit: Optional[int] = None,
    selector: str = "onepass",
    executor: str = "pipelined",
    profile: SsdProfile = P5800X,
    threads: int = 8,
    raid_members: int = 1,
    cost_model: "CpuCostModel | None" = None,
    tier_mode: str = "lru",
    tier_ratio: float = 0.0,
    tier_plan: "TierPlan | None" = None,
) -> ServingEngine:
    """Construct a serving engine with experiment-friendly defaults."""
    return ServingEngine(
        layout,
        EngineConfig(
            spec=EmbeddingSpec(dim=dim),
            profile=profile,
            cache_ratio=cache_ratio,
            index_limit=index_limit,
            selector=selector,
            executor=executor,
            threads=threads,
            raid_members=raid_members,
            cost_model=cost_model or CpuCostModel(),
            tier_mode=tier_mode,
            tier_ratio=tier_ratio,
            tier_plan=tier_plan,
        ),
    )


def serve_live(
    engine: ServingEngine,
    dataset: str,
    scale: str = "bench",
    seed: int = 0,
    max_queries: Optional[int] = None,
    warmup_fraction: float = 0.2,
) -> ServingReport:
    """Serve the dataset's live half on ``engine`` with cache warm-up."""
    _, live = get_split_trace(dataset, scale, seed)
    queries = list(live)
    if max_queries is not None:
        queries = queries[:max_queries]
    warmup = int(len(queries) * warmup_fraction) if engine.cache.enabled else 0
    if warmup >= len(queries):
        warmup = max(0, len(queries) - 1)
    return engine.serve_trace(queries, warmup_queries=warmup)


def normalize(values: List[float], base: float) -> List[float]:
    """Values as fractions of ``base`` (1.0 = baseline)."""
    if base == 0:
        return [0.0 for _ in values]
    return [v / base for v in values]
