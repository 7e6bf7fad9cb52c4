"""Offline DRAM tier planning (RecShard-style statistical admission).

The offline pipeline already computes exactly the per-key statistics —
access frequency in the history trace, replica counts in the forward
index — that RecShard shows beat reactive LRU caching for placing hot
rows in faster tiers.  A :class:`TierPlan` pins the top keys by those
statistics into a DRAM-resident hot set sized as a fraction of the SSD
layout; the online path (engine, selector) consults its
:class:`PinnedTier` runtime form to count every query's tier-1 hits
(served from DRAM, no page selection, no page reads) and take its SSD
residue *before* selection runs.

Ordering: hotness descending (when a history trace is available),
then replica count descending (the partitioner replicates exactly the
keys whose combinations matter most — a strong hotness proxy when no
trace is on hand), then key id ascending for determinism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from ..placement import PageLayout
from ..types import QueryTrace

#: Valid ``tier_mode`` values (mirrored by ``MaxEmbedConfig`` and
#: ``EngineConfig`` validation).
TIER_MODES = ("pinned", "lru", "hybrid")


class PinnedTier:
    """Runtime membership structure for a pinned DRAM hot set.

    One bool per table key; :meth:`split` counts a query's tier-1 hits
    and returns its SSD residue in one pass, in request order.
    Out-of-range keys are passed through to the residue so the
    selector's bounds check still raises the canonical error.
    """

    __slots__ = ("num_keys", "capacity", "_mask")

    def __init__(self, num_keys: int, pinned: Sequence[int]) -> None:
        self.num_keys = num_keys
        mask = bytearray(num_keys)
        for key in pinned:
            if not 0 <= key < num_keys:
                raise ConfigError(
                    f"pinned key {key} out of range for num_keys={num_keys}"
                )
            mask[key] = 1
        self._mask = mask
        self.capacity = sum(mask)

    def __contains__(self, key: int) -> bool:
        return 0 <= key < self.num_keys and bool(self._mask[key])

    def __len__(self) -> int:
        return self.capacity

    def split(self, keys: Sequence[int]) -> Tuple[int, List[int]]:
        """Count the tier-1 hits in ``keys`` and return the SSD residue.

        Returns ``(hit_count, residue)``; the residue keeps request
        order.  No caller on the serving path needs the hit keys, so no
        list of them is built (``[k for k in keys if k in tier]`` has
        them).
        """
        mask = self._mask
        num_keys = self.num_keys
        # A plain loop, not a comprehension: on CPython 3.11 a
        # comprehension is a function call per split, which costs more
        # than the few residue appends; and two plain comparisons run
        # faster than ``0 <= k < num_keys``.
        residue: List[int] = []
        for k in keys:
            if not (k < num_keys and k >= 0 and mask[k]):
                residue.append(k)
        return len(keys) - len(residue), residue


@dataclass(frozen=True)
class TierPlan:
    """Offline-computed pinned DRAM hot set for one layout.

    Attributes:
        num_keys: size of the embedding table the plan was built for.
        tier_ratio: requested tier size as a fraction of the table.
        pinned: the pinned key ids, ascending.
        source: which statistic ranked the keys — ``"trace"`` (history
            access counts), ``"replicas"`` (layout replica counts only),
            or ``"explicit"`` (caller-supplied set).
    """

    num_keys: int
    tier_ratio: float
    pinned: Tuple[int, ...]
    source: str = "replicas"

    def __post_init__(self) -> None:
        if self.num_keys <= 0:
            raise ConfigError(
                f"num_keys must be positive, got {self.num_keys}"
            )
        if not 0.0 <= self.tier_ratio <= 1.0:
            raise ConfigError(
                f"tier_ratio must be in [0, 1], got {self.tier_ratio}"
            )
        if self.source not in ("trace", "replicas", "explicit"):
            raise ConfigError(f"unknown tier plan source {self.source!r}")
        seen = set()
        for key in self.pinned:
            if not 0 <= key < self.num_keys:
                raise ConfigError(
                    f"pinned key {key} out of range for "
                    f"num_keys={self.num_keys}"
                )
            if key in seen:
                raise ConfigError(f"pinned key {key} listed twice")
            seen.add(key)
        if list(self.pinned) != sorted(self.pinned):
            raise ConfigError("pinned keys must be ascending")

    @property
    def capacity(self) -> int:
        """Number of pinned keys (DRAM rows the tier occupies)."""
        return len(self.pinned)

    def runtime(self) -> PinnedTier:
        """Build the O(1)-membership runtime form."""
        return PinnedTier(self.num_keys, self.pinned)


def hotness_from_trace(
    trace: "QueryTrace | Sequence", num_keys: int
) -> np.ndarray:
    """Per-key access counts over ``trace`` (the tier's hotness signal)."""
    counts = np.zeros(num_keys, dtype=np.int64)
    for query in trace:
        for key in query.keys:
            if not 0 <= key < num_keys:
                raise ConfigError(
                    f"trace key {key} out of range for num_keys={num_keys}"
                )
            counts[key] += 1
    return counts


def replica_counts_from_layout(layout: PageLayout) -> np.ndarray:
    """Pages-per-key over the layout (base + replicas)."""
    counts = np.zeros(layout.num_keys, dtype=np.int64)
    for page in layout.pages():
        for key in page:
            counts[key] += 1
    return counts


def plan_tier(
    layout: PageLayout,
    tier_ratio: float,
    hotness: Optional[np.ndarray] = None,
) -> TierPlan:
    """Select the pinned hot set for ``layout`` at ``tier_ratio``.

    Keys are ranked by (hotness desc, replica count desc, key asc); the
    top ``ceil(num_keys * tier_ratio)`` are pinned.  Without a hotness
    signal the replica count — how aggressively the offline phase chose
    to replicate the key — is the ranking statistic.
    """
    if not 0.0 <= tier_ratio <= 1.0:
        raise ConfigError(
            f"tier_ratio must be in [0, 1], got {tier_ratio}"
        )
    num_keys = layout.num_keys
    capacity = min(num_keys, math.ceil(num_keys * tier_ratio))
    if capacity == 0:
        return TierPlan(num_keys, tier_ratio, (), source="replicas")
    replicas = replica_counts_from_layout(layout)
    if hotness is not None:
        hot = np.asarray(hotness, dtype=np.int64)
        if hot.shape != (num_keys,):
            raise ConfigError(
                f"hotness must have shape ({num_keys},), got {hot.shape}"
            )
        source = "trace"
    else:
        hot = replicas
        source = "replicas"
    # lexsort: last key is primary; stable, so equal (hotness, replicas)
    # pairs keep ascending key order.
    order = np.lexsort((-replicas, -hot))
    pinned = tuple(sorted(int(k) for k in order[:capacity]))
    return TierPlan(num_keys, tier_ratio, pinned, source=source)


def plan_tier_from_trace(
    layout: PageLayout, trace: "QueryTrace | Sequence", tier_ratio: float
) -> TierPlan:
    """Convenience: :func:`plan_tier` ranked by history access counts."""
    hotness = hotness_from_trace(trace, layout.num_keys)
    return plan_tier(layout, tier_ratio, hotness=hotness)


def replan_tier(
    layout: PageLayout,
    window: "QueryTrace | Sequence",
    tier_ratio: float,
    previous: Optional[TierPlan] = None,
    carry_weight: float = 0.25,
) -> TierPlan:
    """Incrementally re-plan the pinned tier from a *recent* window.

    The cheap first rung of the refresh repair ladder: no offline
    rebuild, no engine restart — just a new hot set mined from the live
    traffic window.  When ``previous`` is given, its pinned keys carry a
    small hotness bonus (``carry_weight`` × the window's mean positive
    count) so the plan has hysteresis: keys only leave the tier when the
    window demotes them decisively, which stops a noisy window from
    churning the whole pinned set every re-plan.
    """
    if not 0.0 <= carry_weight <= 1.0:
        raise ConfigError(
            f"carry_weight must be in [0, 1], got {carry_weight}"
        )
    hotness = hotness_from_trace(window, layout.num_keys)
    if previous is not None:
        if previous.num_keys != layout.num_keys:
            raise ConfigError(
                f"previous plan covers {previous.num_keys} keys; layout "
                f"has {layout.num_keys}"
            )
        positive = hotness[hotness > 0]
        mean_hot = float(positive.mean()) if positive.size else 1.0
        bonus = max(1, int(round(carry_weight * mean_hot)))
        for key in previous.pinned:
            hotness[key] += bonus
    return plan_tier(layout, tier_ratio, hotness=hotness)
