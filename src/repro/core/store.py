"""MaxEmbedStore: the end-to-end embedding store.

Offline: build a replicated page layout from a historical trace.
Online:  serve queries through cache → one-pass selection → simulated SSD,
optionally returning real embedding vectors from a byte-accurate page
store (the DLRM inference path).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import ConfigError, ServingError
from ..hypergraph import build_weighted_hypergraph
from ..partition import (
    MultilevelPartitioner,
    Partitioner,
    RandomPartitioner,
    ShpPartitioner,
    VanillaPlacement,
)
from ..placement import PageLayout, layout_from_partition
from ..replication import (
    ConnectivityPriorityStrategy,
    FprStrategy,
    RppStrategy,
)
from ..serving import EngineConfig, QueryResult, ServingEngine, ServingReport
from ..ssd.page_store import extract_embedding, materialize_layout
from ..tiering import TierPlan, plan_tier_from_trace
from ..types import Query, QueryTrace
from .config import MaxEmbedConfig


def _make_partitioner(config: MaxEmbedConfig) -> Partitioner:
    if config.partitioner == "shp":
        return ShpPartitioner(config.shp, workers=config.offline_workers)
    if config.partitioner == "multilevel":
        return MultilevelPartitioner()
    if config.partitioner == "random":
        return RandomPartitioner(seed=config.seed)
    return VanillaPlacement()


def build_offline_layout(
    trace: QueryTrace, config: "MaxEmbedConfig | None" = None
) -> PageLayout:
    """Run the offline phase: hypergraph → partition → replication → layout.

    This is the paper's Figure 4 left half as one call.  With
    ``strategy="none"`` it reproduces the Bandana baseline (plain SHP,
    no replicas); ``partitioner="vanilla"`` with ``strategy="none"``
    reproduces the vanilla sequential placement.
    """
    config = config or MaxEmbedConfig()
    graph = build_weighted_hypergraph(trace)
    partitioner = _make_partitioner(config)
    capacity = config.page_capacity
    if config.strategy == "none" or config.replication_ratio == 0:
        return layout_from_partition(partitioner.partition(graph, capacity))
    if config.strategy == "maxembed":
        strategy = ConnectivityPriorityStrategy(partitioner)
    elif config.strategy == "rpp":
        strategy = RppStrategy(partitioner)
    else:  # fpr
        strategy = FprStrategy(partitioner)
    return strategy.build_layout(graph, capacity, config.replication_ratio)


class MaxEmbedStore:
    """A built MaxEmbed deployment: layout + online serving engine."""

    def __init__(
        self,
        layout: PageLayout,
        config: "MaxEmbedConfig | None" = None,
        table: "np.ndarray | None" = None,
        tier_plan: "TierPlan | None" = None,
    ) -> None:
        """Wrap an existing layout.  Prefer :meth:`build` for the full flow.

        Args:
            layout: offline placement.
            config: deployment configuration.
            table: optional ``(num_keys, dim)`` float32 embedding table;
                when given, page payloads are materialized and
                :meth:`lookup` can return real vectors.
            tier_plan: optional pre-computed DRAM tier plan; without one
                a ``pinned``/``hybrid`` ``config.tier_mode`` derives a
                replica-count plan from the layout.
        """
        self.config = config or MaxEmbedConfig()
        self.layout = layout
        self.engine = ServingEngine(
            layout,
            EngineConfig(
                spec=self.config.spec,
                profile=self.config.profile,
                cache_ratio=self.config.cache_ratio,
                cache_policy=self.config.cache_policy,
                tier_mode=self.config.tier_mode,
                tier_ratio=self.config.tier_ratio,
                tier_plan=tier_plan,
                index_limit=self.config.index_limit,
                executor=self.config.executor,
                threads=self.config.threads,
                raid_members=self.config.raid_members,
                cost_model=self.config.cost_model,
            ),
        )
        self._table = None
        self._page_store = None
        if table is not None:
            self.attach_table(table)

    # -- construction ------------------------------------------------------------

    @classmethod
    def build(
        cls,
        trace: QueryTrace,
        config: "MaxEmbedConfig | None" = None,
        table: "np.ndarray | None" = None,
    ) -> "MaxEmbedStore":
        """Offline phase + engine in one call.

        With a ``pinned``/``hybrid`` ``config.tier_mode`` the tier plan
        is derived *statistically* from the same historical trace that
        drove placement (hotness counts break ties by replica counts),
        so the DRAM hot set is decided offline, not reactively.
        """
        config = config or MaxEmbedConfig()
        layout = build_offline_layout(trace, config)
        tier_plan = None
        if config.tier_mode != "lru" and config.tier_ratio > 0:
            tier_plan = plan_tier_from_trace(layout, trace, config.tier_ratio)
        return cls(layout, config, table, tier_plan=tier_plan)

    def attach_table(self, table: np.ndarray) -> None:
        """Materialize real embedding vectors onto the simulated pages."""
        table = np.ascontiguousarray(table, dtype=np.float32)
        if table.shape != (self.layout.num_keys, self.config.spec.dim):
            raise ConfigError(
                f"table shape {table.shape} != "
                f"({self.layout.num_keys}, {self.config.spec.dim})"
            )
        self._table = table
        self._page_store, self._page_keys = materialize_layout(
            self.layout, table, self.config.spec
        )

    # -- serving -------------------------------------------------------------------

    def serve(self, query: Query, start_us: float = 0.0) -> QueryResult:
        """Serve one query (timing only)."""
        return self.engine.serve_query(query, start_us)

    def serve_trace(
        self, trace: "QueryTrace", warmup_queries: int = 0
    ) -> ServingReport:
        """Serve a whole trace with the closed-loop simulator."""
        return self.engine.serve_trace(trace, warmup_queries=warmup_queries)

    def lookup(self, query: Query) -> Dict[int, np.ndarray]:
        """Serve a query and return the actual embedding vectors.

        Requires an attached table.  Vectors for cache hits come straight
        from the table (they were admitted after an earlier SSD read);
        vectors for misses are sliced out of the page payloads the
        selection decided to read — exercising the byte-accurate path.
        """
        if self._page_store is None or self._table is None:
            raise ServingError(
                "no embedding table attached; call attach_table() first"
            )
        keys = query.unique_keys()
        tier = self.engine.tier
        if tier is not None:
            # Pinned-tier keys live in DRAM permanently: serve them from
            # the table without touching the cache or the SSD.
            tier_keys = [k for k in keys if k in tier]
            _, keys = tier.split(keys)
        else:
            tier_keys = []
        hits, misses = self.engine.cache.filter_hits(keys)
        vectors: Dict[int, np.ndarray] = {
            k: self._table[k].copy() for k in tier_keys
        }
        for k in hits:
            vectors[k] = self._table[k].copy()
        if misses:
            outcome = self.engine.selector.select(misses)
            wanted = set(misses)
            for step in outcome.steps:
                payload = self._page_store.read_page(step.page_id)
                for key in step.covered:
                    if key in wanted:
                        vec = extract_embedding(
                            payload,
                            self._page_keys[step.page_id],
                            key,
                            self.config.spec,
                        )
                        if vec is None:  # pragma: no cover - layout invariant
                            raise ServingError(
                                f"key {key} missing from page {step.page_id}"
                            )
                        vectors[key] = vec
                        wanted.discard(key)
            self.engine.cache.admit(misses)
            if wanted:  # pragma: no cover - selection guarantees coverage
                raise ServingError(f"keys {sorted(wanted)[:5]} not served")
        return vectors

    # -- accounting ---------------------------------------------------------------

    def storage_overhead(self) -> float:
        """Extra SSD space versus an unreplicated layout (the paper's r)."""
        return self.layout.extra_page_ratio()

    def memory_overhead_entries(self) -> int:
        """DRAM index entries (forward + invert, §7.1)."""
        return self.engine.memory_overhead_entries()
