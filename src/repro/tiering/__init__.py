"""DRAM/SSD tiering: offline statistical tier planning + runtime hot set.

See DESIGN.md §10.  The planner ranks keys by the statistics the offline
pipeline already computes (trace hotness, forward-index replica counts)
and pins the top fraction into a DRAM tier; the serving path splits each
query against the pinned set before page selection so tier-1 hits skip
selection and page reads entirely.
"""

from .plan import (
    TIER_MODES,
    PinnedTier,
    TierPlan,
    hotness_from_trace,
    plan_tier,
    plan_tier_from_trace,
    replan_tier,
    replica_counts_from_layout,
)

__all__ = [
    "TIER_MODES",
    "PinnedTier",
    "TierPlan",
    "hotness_from_trace",
    "plan_tier",
    "plan_tier_from_trace",
    "replan_tier",
    "replica_counts_from_layout",
]
