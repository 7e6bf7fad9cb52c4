"""Top-level MaxEmbed configuration.

One dataclass spanning both phases, so a whole experiment is reproducible
from a single value.  Field defaults follow the paper's defaults: 64-dim
embeddings on 4 KiB pages, 10 % replication, 10 % DRAM cache, one-pass
selection with pipelined reads on a P5800X.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import ConfigError
from ..partition import ShpConfig
from ..serving import EXECUTORS, CpuCostModel
from ..ssd import P5800X, SsdProfile
from ..tiering import TIER_MODES
from ..types import EmbeddingSpec


@dataclass(frozen=True)
class MaxEmbedConfig:
    """Configuration of a full MaxEmbed deployment.

    Attributes:
        spec: embedding geometry (dim / page size → ``d``).
        replication_ratio: ``r`` — replica pages per base page.
        strategy: offline strategy: ``"maxembed"`` (connectivity-priority),
            ``"rpp"``, ``"fpr"``, or ``"none"`` (plain SHP, the Bandana
            baseline).
        partitioner: ``"shp"``, ``"multilevel"``, ``"random"``, or
            ``"vanilla"``.
        shp: SHP tuning knobs.
        index_limit: forward-index shrink ``k`` (None = full index).
        cache_ratio: DRAM cache as a fraction of the table.
        cache_policy: eviction policy (``lru``/``fifo``/``lfu``/``slru``).
        tier_mode: DRAM tier strategy: ``"lru"`` (reactive cache only,
            the historical default), ``"pinned"`` (statistical pinned
            hot set, LRU off), or ``"hybrid"`` (pinned hot set plus an
            LRU front for the residue).
        tier_ratio: pinned tier size as a fraction of the table
            (ignored under ``tier_mode="lru"``).
        profile: simulated SSD profile.
        raid_members: >1 stripes over a RAID-0.
        executor: when and in what form selected reads reach the device
            (see :class:`~repro.serving.EngineConfig`; one of
            :data:`~repro.serving.EXECUTORS`).
        threads: simulated serving threads.
        cost_model: selection CPU charges.
        num_shards: >1 splits the table across that many shards, each
            served by its own engine and device (see :mod:`repro.cluster`).
        shard_strategy: key → shard planner: ``"modulo"``,
            ``"frequency"``, or ``"cooccurrence"``.
        replicas: engines per logical shard; >1 turns on the
            health-tracked replica groups of
            :mod:`repro.cluster.replicas` (failover + hedging).
        build_workers: processes for the per-shard offline builds
            (``None`` = one per shard up to the CPU count, ``0``/``1`` =
            serial).
        offline_workers: processes for SHP's parallel bisection
            subtrees (``None`` = one per CPU, ``0``/``1`` = serial; the
            layout is identical for every worker count).
        seed: base RNG seed for every stochastic component.

    Hedging, fault plans and the tier plan are
    :class:`~repro.serving.EngineConfig` settings; admission control and
    brownout are :class:`~repro.overload.AdmissionConfig` /
    :class:`~repro.overload.BrownoutConfig` arguments of the open-loop
    simulator and the gateway.
    """

    spec: EmbeddingSpec = field(default_factory=EmbeddingSpec)
    replication_ratio: float = 0.10
    strategy: str = "maxembed"
    partitioner: str = "shp"
    shp: ShpConfig = field(default_factory=ShpConfig)
    index_limit: Optional[int] = None
    cache_ratio: float = 0.10
    cache_policy: str = "lru"
    tier_mode: str = "lru"
    tier_ratio: float = 0.0
    profile: SsdProfile = P5800X
    raid_members: int = 1
    executor: str = "pipelined"
    threads: int = 8
    cost_model: CpuCostModel = field(default_factory=CpuCostModel)
    num_shards: int = 1
    shard_strategy: str = "cooccurrence"
    replicas: int = 1
    build_workers: Optional[int] = None
    offline_workers: Optional[int] = 1
    seed: int = 0

    _STRATEGIES = ("maxembed", "rpp", "fpr", "none")
    _PARTITIONERS = ("shp", "multilevel", "random", "vanilla")
    # Kept in sync with repro.cluster.planner.SHARD_STRATEGIES (the
    # cluster package imports core, so core cannot import it back).
    _SHARD_STRATEGIES = ("modulo", "frequency", "cooccurrence")

    def __post_init__(self) -> None:
        if self.strategy not in self._STRATEGIES:
            raise ConfigError(
                f"unknown strategy {self.strategy!r}; "
                f"choose from {self._STRATEGIES}"
            )
        if self.partitioner not in self._PARTITIONERS:
            raise ConfigError(
                f"unknown partitioner {self.partitioner!r}; "
                f"choose from {self._PARTITIONERS}"
            )
        if self.replication_ratio < 0:
            raise ConfigError(
                f"replication_ratio must be >= 0, got {self.replication_ratio}"
            )
        if self.num_shards < 1:
            raise ConfigError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        if self.replicas < 1:
            raise ConfigError(
                f"replicas must be >= 1, got {self.replicas}"
            )
        if self.shard_strategy not in self._SHARD_STRATEGIES:
            raise ConfigError(
                f"unknown shard strategy {self.shard_strategy!r}; "
                f"choose from {self._SHARD_STRATEGIES}"
            )
        if self.build_workers is not None and self.build_workers < 0:
            raise ConfigError(
                f"build_workers must be >= 0, got {self.build_workers}"
            )
        if self.offline_workers is not None and self.offline_workers < 0:
            raise ConfigError(
                f"offline_workers must be >= 0, got {self.offline_workers}"
            )
        if self.executor not in EXECUTORS:
            raise ConfigError(
                f"unknown executor {self.executor!r}; "
                f"choose from {sorted(EXECUTORS)}"
            )
        if self.tier_mode not in TIER_MODES:
            raise ConfigError(
                f"unknown tier mode {self.tier_mode!r}; "
                f"choose from {TIER_MODES}"
            )
        if not 0.0 <= self.tier_ratio <= 1.0:
            raise ConfigError(
                f"tier_ratio must be in [0, 1], got {self.tier_ratio}"
            )

    @property
    def page_capacity(self) -> int:
        """``d`` — embeddings per SSD page under this spec."""
        return self.spec.slots_per_page
