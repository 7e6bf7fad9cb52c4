"""Top-level MaxEmbed configuration.

One dataclass spanning both phases, so a whole experiment is reproducible
from a single value.  Field defaults follow the paper's defaults: 64-dim
embeddings on 4 KiB pages, 10 % replication, 10 % DRAM cache, one-pass
selection with pipelined reads on a P5800X.

The online fields are inherited from
:class:`~repro.serving.engine.OnlineConfig`, the one place they are
declared, defaulted and checked; :meth:`MaxEmbedConfig.engine_config`
hands them to the engine.  A deployment bundle
(:func:`~repro.bundle.config_to_dict`) holds every field; a bundle
without one (saved before the field existed) is refused: rebuild it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar, Optional, Type

from ..errors import ConfigError, ReproError
from ..partition import ShpConfig
from ..serving import EngineConfig
from ..serving.engine import OnlineConfig

#: Offline strategies: connectivity-priority, the two straw men, plain SHP.
STRATEGIES = ("maxembed", "rpp", "fpr", "none")
PARTITIONERS = ("shp", "multilevel", "random", "vanilla")
#: Key → shard planners of :func:`repro.cluster.make_planner`.
SHARD_STRATEGIES = ("modulo", "frequency", "cooccurrence")


@dataclass(frozen=True)
class MaxEmbedConfig(OnlineConfig):
    """Configuration of a full MaxEmbed deployment.

    The online fields are :class:`~repro.serving.engine.OnlineConfig`'s,
    documented there; a failed check on any field raises
    :class:`~repro.errors.ConfigError`.

    Attributes:
        replication_ratio: ``r`` — replica pages per base page.
        strategy: offline strategy: ``"maxembed"`` (connectivity-priority),
            ``"rpp"``, ``"fpr"``, or ``"none"`` (plain SHP, the Bandana
            baseline).
        partitioner: ``"shp"``, ``"multilevel"``, ``"random"``, or
            ``"vanilla"``.
        shp: SHP tuning knobs.
        num_shards: >1 splits the table across that many shards, each
            served by its own engine and device (see :mod:`repro.cluster`).
        shard_strategy: key → shard planner: ``"modulo"``,
            ``"frequency"``, or ``"cooccurrence"``.
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

    error: ClassVar[Type[ReproError]] = ConfigError

    replication_ratio: float = 0.10
    strategy: str = "maxembed"
    partitioner: str = "shp"
    shp: ShpConfig = field(default_factory=ShpConfig)
    num_shards: int = 1
    shard_strategy: str = "cooccurrence"
    build_workers: Optional[int] = None
    offline_workers: Optional[int] = 1
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"unknown strategy {self.strategy!r}; "
                f"choose from {STRATEGIES}"
            )
        if self.partitioner not in PARTITIONERS:
            raise ConfigError(
                f"unknown partitioner {self.partitioner!r}; "
                f"choose from {PARTITIONERS}"
            )
        if self.replication_ratio < 0:
            raise ConfigError(
                f"replication_ratio must be >= 0, got {self.replication_ratio}"
            )
        if self.num_shards < 1:
            raise ConfigError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        if self.shard_strategy not in SHARD_STRATEGIES:
            raise ConfigError(
                f"unknown shard strategy {self.shard_strategy!r}; "
                f"choose from {SHARD_STRATEGIES}"
            )
        if self.build_workers is not None and self.build_workers < 0:
            raise ConfigError(
                f"build_workers must be >= 0, got {self.build_workers}"
            )
        if self.offline_workers is not None and self.offline_workers < 0:
            raise ConfigError(
                f"offline_workers must be >= 0, got {self.offline_workers}"
            )

    @property
    def page_capacity(self) -> int:
        """``d`` — embeddings per SSD page under this spec."""
        return self.spec.slots_per_page

    def engine_config(self, **extra) -> EngineConfig:
        """The engine's config: this deployment's online fields plus
        ``extra`` engine-only settings (e.g. ``tier_plan``)."""
        shared = {f.name: getattr(self, f.name) for f in fields(OnlineConfig)}
        return EngineConfig(**shared, **extra)
