"""The serving engine: cache → page selection → simulated SSD.

:class:`ServingEngine` wires a page layout to the full online stack of the
paper: the DRAM cache absorbs hot keys, the selector picks replica pages
for the misses, and an executor runs the reads against a simulated device.
``serve_trace`` simulates a closed-loop multi-threaded client (the paper
runs 8 serving threads) through the one driver,
:func:`~repro.serving.openloop.simulate`: each simulated thread serves one
query at a time, all threads share one device, and throughput is queries
over makespan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Sequence, Type

from ..cache import CACHE_POLICIES, EmbeddingCache
from ..errors import ReproError, ServingError
from ..faults import BreakerConfig, FaultPlan, FaultySsd, ShardFaultPlan
from ..overload import DegradeLevel
from ..placement import PageLayout, build_indexes
from ..ssd import (
    NdpSsdProfile,
    P5800X,
    Raid0Array,
    SimulatedSsd,
    SsdProfile,
)
from ..tiering import TIER_MODES, PinnedTier, TierPlan, plan_tier
from ..types import EmbeddingSpec, Query, QueryTrace
from .cost_model import CpuCostModel
from .executor import EXECUTORS, Executor, NdpExecutor
from .recovery import RecoveringExecutor, RetryPolicy
from .selection import OnePassSelector, SelectionOutcome
from .openloop import simulate
from .stats import QueryResult, ServingReport


@dataclass(frozen=True)
class OnlineConfig:
    """The online settings a deployment and its engine share.

    Each field is declared, defaulted and checked here once;
    :class:`EngineConfig` and :class:`~repro.core.MaxEmbedConfig` inherit
    them and add only their own.  A failed check raises the subclass's
    ``error`` type, so each config keeps its own exception.  An
    ``EngineConfig`` is never saved; a deployment bundle
    (:mod:`repro.bundle`) carries these fields as
    :class:`~repro.core.MaxEmbedConfig`'s.

    Attributes:
        spec: embedding geometry (dim, page size).
        profile: simulated device profile.
        cache_ratio: DRAM cache size as a fraction of the table (paper
            default 10 %; 0 disables the cache, Fig 13).
        cache_policy: eviction policy, a key of
            :data:`~repro.cache.CACHE_POLICIES` (``lru``/``fifo``/``lfu``/
            ``slru``; the paper's CacheLib setup is ``lru``).
        index_limit: forward-index shrink ``k``, at least 1 (None = full
            index).
        executor: when, and in what form, a query's selected reads
            reach the device (:data:`~repro.serving.executor.EXECUTORS`)
            — ``"pipelined"`` (MaxEmbed §6.2: each read issued right
            after its selection step), ``"serial"`` (raw: all selection,
            then one submission per page), ``"batched"`` (all selection,
            then one submitted batch, amortizing ``submit_overhead_us``)
            or ``"ndp"`` (one in-device gather command; the profile must
            support gather — a plain profile is auto-upgraded to its
            :class:`~repro.ssd.NdpSsdProfile` counterpart).
        threads: simulated serving threads (paper uses 8).
        raid_members: >1 builds a RAID-0 of that many drives.
        cost_model: CPU charge table for the selection path.
        replicas: replicas per logical shard for cluster serving
            (1 = no replica groups, bit-identical to earlier releases).
            Ignored by single engines.
        tier_mode: DRAM tier strategy — ``"lru"`` (reactive cache only,
            today's behavior), ``"pinned"`` (offline statistical hot set,
            LRU off: the whole DRAM key budget is the pinned tier), or
            ``"hybrid"`` (pinned tier plus an LRU front for the residue).
        tier_ratio: pinned tier size as a fraction of the table (used to
            derive a plan when no tier plan is given; ignored in ``lru``
            mode).
    """

    error: ClassVar[Type[ReproError]] = ServingError

    spec: EmbeddingSpec = field(default_factory=EmbeddingSpec)
    profile: SsdProfile = P5800X
    cache_ratio: float = 0.10
    cache_policy: str = "lru"
    index_limit: Optional[int] = None
    executor: str = "pipelined"
    threads: int = 8
    raid_members: int = 1
    cost_model: CpuCostModel = field(default_factory=CpuCostModel)
    replicas: int = 1
    tier_mode: str = "lru"
    tier_ratio: float = 0.0

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise self.error(
                f"unknown executor {self.executor!r}; "
                f"choose from {sorted(EXECUTORS)}"
            )
        if self.threads <= 0:
            raise self.error(f"threads must be positive, got {self.threads}")
        if self.raid_members <= 0:
            raise self.error(
                f"raid_members must be positive, got {self.raid_members}"
            )
        if not 0.0 <= self.cache_ratio <= 1.0:
            raise self.error(
                f"cache_ratio must be in [0, 1], got {self.cache_ratio}"
            )
        if self.cache_policy not in CACHE_POLICIES:
            raise self.error(
                f"unknown cache_policy {self.cache_policy!r}; "
                f"choose from {sorted(CACHE_POLICIES)}"
            )
        if self.index_limit is not None and self.index_limit < 1:
            raise self.error(
                f"index_limit must be >= 1 or None, got {self.index_limit}"
            )
        if self.replicas < 1:
            raise self.error(f"replicas must be >= 1, got {self.replicas}")
        if self.tier_mode not in TIER_MODES:
            raise self.error(
                f"unknown tier_mode {self.tier_mode!r}; "
                f"choose from {sorted(TIER_MODES)}"
            )
        if not 0.0 <= self.tier_ratio <= 1.0:
            raise self.error(
                f"tier_ratio must be in [0, 1], got {self.tier_ratio}"
            )


@dataclass(frozen=True)
class EngineConfig(OnlineConfig):
    """Full online-phase configuration: the shared
    :class:`OnlineConfig` fields plus the engine-only ones below.

    Attributes:
        page_grain_admission: admit *every* key on each page read to the
            cache, not only the requested ones (extension: the page is
            already in DRAM, so the extra admissions are free — and under
            a co-occurrence-aware placement the co-residents are exactly
            the keys likely to be asked for next).
        fault_plan: deterministic fault-injection schedule (None = no
            injection; the fault machinery stays entirely out of the hot
            path and serving is bit-identical to a fault-free build).
        retry: bounded-backoff retry policy for injected read failures
            (only consulted when ``fault_plan`` is set).
        shard_deadline_us: per-shard gather deadline for cluster serving
            (None = wait forever).  Ignored by single-shard engines.
        breaker: per-shard circuit-breaker configuration for cluster
            serving (None = no breaker).  Ignored by single engines.
        hedge_quantile: latency quantile (in ``(0, 1)``) after which a
            straggling fragment is hedged to a secondary replica; None
            disables hedging.  Only meaningful with ``replicas > 1``.
        hedge_budget: cap on hedged dispatches as a fraction of
            dispatched fragments per replica group (the group maintains
            ``hedges <= hedge_budget * fragments`` at all times, so
            hedging cannot amplify overload).
        shard_fault_plan: deterministic replica-grain fault schedule
            (crash/flap/degrade) for cluster serving; None injects
            nothing.  Setting it at ``replicas == 1`` exercises the
            unprotected baseline: crashes cost coverage because there
            is no surviving replica to fail over to.
        tier_plan: precomputed :class:`~repro.tiering.TierPlan` (e.g. the
            trace-hotness plan saved in the deployment bundle).  None in
            ``pinned``/``hybrid`` mode derives a replica-count plan from
            the layout at ``tier_ratio``.
    """

    page_grain_admission: bool = False
    fault_plan: Optional[FaultPlan] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    shard_deadline_us: Optional[float] = None
    breaker: Optional[BreakerConfig] = None
    hedge_quantile: Optional[float] = None
    hedge_budget: float = 0.1
    shard_fault_plan: Optional[ShardFaultPlan] = None
    tier_plan: Optional[TierPlan] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.shard_deadline_us is not None and self.shard_deadline_us <= 0:
            raise ServingError(
                f"shard_deadline_us must be positive, got "
                f"{self.shard_deadline_us}"
            )
        if self.hedge_quantile is not None and not (
            0.0 < self.hedge_quantile < 1.0
        ):
            raise ServingError(
                f"hedge_quantile must be in (0, 1), got "
                f"{self.hedge_quantile}"
            )
        if self.hedge_budget < 0.0:
            raise ServingError(
                f"hedge_budget must be >= 0, got {self.hedge_budget}"
            )
        if self.tier_plan is not None and self.tier_mode == "lru":
            raise ServingError(
                "tier_plan requires tier_mode 'pinned' or 'hybrid'"
            )


class ServingEngine:
    """Online embedding serving over one page layout."""

    def __init__(self, layout: PageLayout, config: "EngineConfig | None" = None):
        self.layout = layout
        self.config = config or EngineConfig()
        if self.config.spec.slots_per_page < layout.capacity:
            raise ServingError(
                f"spec fits {self.config.spec.slots_per_page} embeddings per "
                f"page; layout packs {layout.capacity}"
            )
        self.forward, self.invert = build_indexes(
            layout, limit=self.config.index_limit
        )
        self.selector = OnePassSelector(self.forward, self.invert)
        self.executor: Executor = EXECUTORS[self.config.executor](
            self.config.cost_model, spec=self.config.spec
        )
        self.tier_plan, self.tier = self._build_tier()
        # Pinned mode devotes the whole DRAM key budget to the offline
        # statistical tier; the reactive cache is off.  The engine splits
        # queries against the tier *before* the cache, so pinned keys
        # never churn the LRU in hybrid mode either.
        cache_ratio = (
            0.0 if self.config.tier_mode == "pinned"
            else self.config.cache_ratio
        )
        self.cache = EmbeddingCache(
            layout.num_keys,
            cache_ratio,
            policy=self.config.cache_policy,
        )
        self.device = self._build_device()
        # The fault path is built only when a plan is configured, so the
        # fault-free hot path is untouched (bit-identical serving).
        self._recovery: Optional[RecoveringExecutor] = None
        if self.config.fault_plan is not None:
            if self.config.index_limit is None:
                full_forward = self.forward
            else:
                full_forward, _ = build_indexes(layout, limit=None)
            self._recovery = RecoveringExecutor(
                self.executor, full_forward, self.invert, self.config.retry
            )
        self._closed = False

    # -- lifecycle -----------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has retired this engine."""
        return self._closed

    def close(self) -> None:
        """Retire the engine (idempotent).

        The simulated engine owns no kernel resources, so close is a
        retirement *marker*, not a teardown: in-flight queries on a
        displaced engine run to completion, and a cache object shared
        with the replacement engine (``keep_cache`` swaps) is left
        untouched.  Swap paths call this on the engine they displace so
        version churn cannot silently accumulate live engines.
        """
        self._closed = True

    def _build_tier(self):
        """Resolve (tier_plan, runtime tier) from the configuration.

        ``lru`` mode has no tier (None, None) and serves byte-identically
        to the pre-tier engine.  ``pinned``/``hybrid`` use the supplied
        plan — validated against the layout — or derive a replica-count
        plan at ``tier_ratio``.  An empty plan (ratio 0) keeps the tier
        off so the serving path stays bit-identical to untiered serving.
        """
        config = self.config
        if config.tier_mode == "lru":
            return None, None
        plan = config.tier_plan
        if plan is None:
            plan = plan_tier(self.layout, config.tier_ratio)
        elif plan.num_keys != self.layout.num_keys:
            raise ServingError(
                f"tier plan covers {plan.num_keys} keys; layout has "
                f"{self.layout.num_keys}"
            )
        if plan.capacity == 0:
            return plan, None
        return plan, plan.runtime()

    def apply_tier_plan(self, plan: TierPlan) -> None:
        """Re-plan the pinned DRAM tier in place, under live traffic.

        The cheap first rung of the refresh repair ladder: rather than
        rebuilding the whole engine, swap only the pinned hot set.  The
        runtime tier is built fully before the one-reference rebind of
        :attr:`tier`, which ``serve_query`` reads once, so a concurrent
        query sees either the old tier or the new one — both serve every
        key correctly (tier membership only moves keys between the DRAM
        and SSD paths).
        """
        if self.config.tier_mode == "lru":
            raise ServingError(
                "apply_tier_plan requires tier_mode 'pinned' or 'hybrid'"
            )
        if plan.num_keys != self.layout.num_keys:
            raise ServingError(
                f"tier plan covers {plan.num_keys} keys; layout has "
                f"{self.layout.num_keys}"
            )
        tier = plan.runtime() if plan.capacity else None
        self.tier_plan, self.tier = plan, tier

    def tier_info(self) -> "dict | None":
        """Tier configuration and size (None when no tier is active)."""
        if self.tier_plan is None:
            return None
        return {
            "mode": self.config.tier_mode,
            "source": self.tier_plan.source,
            "pinned_keys": self.tier_plan.capacity,
            "tier_ratio": self.tier_plan.tier_ratio,
            "cache_capacity": self.cache.capacity,
        }

    def _build_device(self):
        profile = self.config.profile
        if (
            isinstance(self.executor, NdpExecutor)
            and not profile.supports_gather
        ):
            # A gather needs a gather engine: upgrade a plain profile
            # to its NDP counterpart (same latency/bandwidth/queue depth,
            # default controller parameters).
            profile = NdpSsdProfile.from_base(profile)
        if self.config.raid_members > 1:
            device = Raid0Array(
                profile,
                members=self.config.raid_members,
                page_size=self.config.spec.page_size,
            )
        else:
            device = SimulatedSsd(
                profile, page_size=self.config.spec.page_size
            )
        if self.config.fault_plan is not None:
            return FaultySsd(device, self.config.fault_plan)
        return device

    @property
    def fault_counters(self):
        """Injected fault counts per kind (None without a fault plan)."""
        if isinstance(self.device, FaultySsd):
            return self.device.fault_counters
        return None

    # -- single query -------------------------------------------------------------

    def serve_query(
        self,
        query: Query,
        start_us: float = 0.0,
        degrade: "DegradeLevel | None" = None,
    ) -> QueryResult:
        """Serve one query starting at ``start_us`` of simulated time.

        ``degrade`` selects a rung of the overload degradation ladder
        (see :mod:`repro.overload`); None or a no-op rung serves
        normally through the untouched full-service path.
        """
        if degrade is not None and not degrade.is_noop:
            return self._serve_overloaded(query, start_us, degrade)
        keys = query.unique_keys()
        # The tier runs before the cache, so pinned keys never touch (or
        # pollute) the LRU front: DRAM serves them unconditionally.
        tier = self.tier
        tier_hits, rest = (0, keys) if tier is None else tier.split(keys)
        hits, misses = self.cache.filter_hits(rest)
        if not misses:
            return self._cache_only_result(
                len(keys), len(hits), 0, start_us, 0, tier_hits
            )
        outcome = self.selector.select(misses)
        return self._execute(
            outcome, misses, start_us, len(keys), len(hits), tier_hits
        )

    def _admit_pages(self, page_ids) -> None:
        """Page-grain admission; pinned keys stay out of the LRU front."""
        tier = self.tier
        for page_id in page_ids:
            keys = self.invert.keys_of(page_id)
            if tier is not None:
                keys = [k for k in keys if k not in tier]
            self.cache.admit(keys)

    def _execute(
        self, outcome, keys, start_us, requested, hits, tier_hits,
        shed=0, level=0,
    ) -> QueryResult:
        """Execute ``outcome``, admit what arrived, report the query.

        ``keys`` are the keys ``outcome`` covers; ``shed`` counts those a
        degraded rung ``level`` dropped before it.  With a fault plan the
        reads run under the recovering executor (retries, replica
        recovery): keys it could not serve are reported ``missing`` and
        stay out of the cache, and a page-grain admission trusts only
        the pages that arrived intact.
        """
        retries = failed = recovered = lost = 0
        if self._recovery is None:
            execution = self.executor.execute(outcome, self.device, start_us)
            pages, valid = outcome.pages, tuple(outcome.covered_counts)
        else:
            degraded = self._recovery.execute(outcome, self.device, start_us)
            execution = degraded.execution
            pages, valid = degraded.pages_ok, degraded.valid_per_read
            retries, failed = degraded.retries, degraded.failed_reads
            recovered = degraded.recovered_keys
            if degraded.missing_keys:
                missing = set(degraded.missing_keys)
                lost = len(missing)
                keys = [k for k in keys if k not in missing]
        if self.config.page_grain_admission:
            self._admit_pages(pages)
        else:
            self.cache.admit(keys)
        # Field order is QueryResult's.
        return QueryResult(
            requested,
            hits,
            len(keys),
            execution.pages_read,
            valid,
            start_us,
            execution.finish_us,
            execution,
            retries,
            failed,
            recovered,
            shed + lost,
            level,
            shed,
            tier_hits,
        )

    def _cache_only_result(
        self,
        requested: int,
        hits: int,
        shed: int,
        start_us: float,
        level: int,
        tier_hits: int = 0,
    ) -> QueryResult:
        """A degraded result that never touched the device.

        With a pinned tier the cache-only rung serves tier-1 hits *and*
        cache hits from DRAM — strictly better coverage than the LRU
        alone at the same rung.
        """
        # Field order is QueryResult's.
        return QueryResult(
            requested,
            hits,
            0,
            0,
            (),
            start_us,
            start_us + self.config.cost_model.query_base_us,
            None,
            0,
            0,
            0,
            shed,
            level,
            shed,
            tier_hits,
        )

    def _serve_overloaded(
        self, query: Query, start_us: float, degrade: DegradeLevel
    ) -> QueryResult:
        """Serve one query at a degraded ladder rung.

        The rung bounds what the query may cost: cold (unreplicated)
        keys may be skipped before selection, the selection outcome may
        be truncated to ``max_pages_per_query`` reads, or the device may
        be bypassed entirely (cache-only).  Keys dropped this way are
        reported ``missing`` with the intentional count mirrored in
        ``degrade_shed_keys`` — coverage accounting stays uniform with
        the fault path's losses.
        """
        keys = query.unique_keys()
        tier = self.tier
        tier_hits, rest = (0, keys) if tier is None else tier.split(keys)
        hits, misses = self.cache.filter_hits(rest)
        if not misses:
            return self._cache_only_result(
                len(keys), len(hits), 0, start_us, degrade.level, tier_hits
            )
        if degrade.cache_only:
            served: List[int] = []
        elif degrade.skip_cold_keys:
            counts = self.forward.replica_counts()
            served = [k for k in misses if counts[k] > 1]
        else:
            served = misses
        shed = len(misses) - len(served)
        if not served:
            return self._cache_only_result(
                len(keys),
                len(hits),
                len(misses),
                start_us,
                degrade.level,
                tier_hits,
            )
        outcome = self.selector.select(served)
        covered = served
        cap = degrade.max_pages_per_query
        if cap is not None and outcome.num_steps > cap:
            steps = outcome.steps[:cap]
            outcome = SelectionOutcome.from_steps(steps, outcome.sorted_keys)
            covered = [k for step in steps for k in step.covered]
            shed += len(served) - len(covered)
        return self._execute(
            outcome, covered, start_us, len(keys), len(hits), tier_hits,
            shed, degrade.level,
        )

    # -- whole trace ----------------------------------------------------------------

    def serve_trace(
        self,
        trace: "QueryTrace | Sequence[Query]",
        warmup_queries: int = 0,
    ) -> ServingReport:
        """Closed-loop :func:`~repro.serving.openloop.simulate` of the
        trace over ``threads`` workers sharing this engine's one device;
        the first ``warmup_queries`` only warm the cache."""
        return simulate(self, trace, warmup=warmup_queries)

    # -- introspection -----------------------------------------------------------

    def memory_overhead_entries(self) -> int:
        """DRAM index entries: forward (shrunk) + invert (paper §7.1)."""
        forward_entries = self.forward.total_entries()
        invert_entries = sum(
            len(self.invert.keys_of(p)) for p in range(self.invert.num_pages)
        )
        return forward_entries + invert_entries
