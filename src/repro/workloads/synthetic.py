"""Two-level synthetic trace generator.

Model
-----
1. **Items** get a global Zipf popularity with exponent ``item_alpha``.
2. **Interest groups**: ``num_groups`` overlapping item sets are drawn by
   popularity-biased sampling, ``group_size`` items each.  A hot item
   lands in many groups — which is exactly how real logs make an item
   co-appear with more partners than an SSD page can hold.
3. **Queries**: each query picks a primary group from a Zipf over groups
   (``group_alpha``), takes a popularity-biased subset of its members,
   optionally mixes in a second group, and adds globally drawn noise items
   with probability ``noise_fraction`` per slot.  Query length is drawn
   from a shifted Poisson with mean ``mean_query_len``.

Advertising-style datasets (Criteo, Avazu) are modelled with more noise
and weaker group affinity than shopping datasets (iFashion, Amazon M2),
matching the paper's observation that gains are "particularly pronounced
in shopping datasets, where the co-appearance phenomenon is more
prominent".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..errors import WorkloadError
from ..types import KeyInterner, Query, QueryTrace
from ..utils.rng import RngLike, spawn_rngs
from ..utils.zipf import ZipfSampler


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one synthetic trace.

    Attributes:
        num_keys: embedding table size (items).
        num_queries: queries to generate.
        mean_query_len: average keys per query.
        item_alpha: Zipf exponent of global item popularity.
        num_groups: number of interest groups.
        group_size: items per group.
        group_alpha: Zipf exponent over group popularity.
        noise_fraction: probability a query slot is a random (global
            popularity) item instead of a group member.
        second_group_prob: probability a query blends a second group.
    """

    num_keys: int
    num_queries: int
    mean_query_len: float
    item_alpha: float = 0.9
    num_groups: int = 0  # 0 → defaults to num_keys // group_size
    group_size: int = 24
    group_alpha: float = 0.8
    noise_fraction: float = 0.15
    second_group_prob: float = 0.25

    def __post_init__(self) -> None:
        if self.num_keys <= 0:
            raise WorkloadError(f"num_keys must be positive, got {self.num_keys}")
        if self.num_queries <= 0:
            raise WorkloadError(
                f"num_queries must be positive, got {self.num_queries}"
            )
        if self.mean_query_len < 1:
            raise WorkloadError(
                f"mean_query_len must be >= 1, got {self.mean_query_len}"
            )
        if self.group_size < 2:
            raise WorkloadError(
                f"group_size must be >= 2, got {self.group_size}"
            )
        if not 0.0 <= self.noise_fraction <= 1.0:
            raise WorkloadError(
                f"noise_fraction must be in [0, 1], got {self.noise_fraction}"
            )
        if not 0.0 <= self.second_group_prob <= 1.0:
            raise WorkloadError(
                f"second_group_prob must be in [0, 1], got "
                f"{self.second_group_prob}"
            )

    def resolved_num_groups(self) -> int:
        """Group count, defaulting to roughly one group per group_size items."""
        if self.num_groups > 0:
            return self.num_groups
        return max(1, self.num_keys // self.group_size)


class SyntheticTraceGenerator:
    """Generate reproducible traces from a :class:`WorkloadSpec`."""

    def __init__(self, spec: WorkloadSpec, seed: RngLike = 0) -> None:
        self.spec = spec
        # Child streams (SeedSequence spawning) keep this generator's draws
        # statistically independent of any other component seeded with the
        # same integer — e.g. a RandomPartitioner(seed=0) must not replay
        # the same permutation this generator uses internally.
        items_rng, perm_rng, query_rng = spawn_rngs(seed, 3)
        self._rng = query_rng
        self._item_sampler = ZipfSampler(
            spec.num_keys, spec.item_alpha, seed=items_rng
        )
        # Popularity ranks are scattered over the id space with a fixed
        # permutation: real logs assign ids by registration order, not by
        # popularity, so a sequential ("vanilla") placement must not get
        # co-occurrence locality for free.
        self._id_of_rank = perm_rng.permutation(spec.num_keys)
        num_groups = spec.resolved_num_groups()
        self._group_sampler = ZipfSampler(
            num_groups, spec.group_alpha, seed=self._rng
        )
        self._groups = self._build_groups(num_groups)
        # Every query's keys go through one interner, so the traces this
        # generator makes hold one int object per key id.
        self._interner = KeyInterner()

    # -- construction -------------------------------------------------------------

    def _build_groups(self, num_groups: int) -> List[np.ndarray]:
        """Draw overlapping popularity-biased item groups."""
        groups: List[np.ndarray] = []
        for _ in range(num_groups):
            draw = self._item_sampler.sample(self.spec.group_size * 2)
            members = np.unique(draw)[: self.spec.group_size]
            if len(members) < 2:
                # Degenerate draw at tiny scales: pad with a fresh item.
                extra = self._item_sampler.sample(4)
                members = np.unique(np.concatenate([members, extra]))[
                    : self.spec.group_size
                ]
            groups.append(self._id_of_rank[members])
        return groups

    def groups(self) -> List[np.ndarray]:
        """The generated interest groups (copies)."""
        return [g.copy() for g in self._groups]

    # -- generation -----------------------------------------------------------------

    def _query_length(self) -> int:
        lam = max(self.spec.mean_query_len - 1.0, 0.0)
        return 1 + int(self._rng.poisson(lam))

    def _draw_from_group(self, group: np.ndarray, count: int) -> List[int]:
        if count <= 0:
            return []
        count = min(count, len(group))
        picked = self._rng.choice(group, size=count, replace=False)
        return picked.tolist()

    def generate_query(self) -> Query:
        """Generate one query."""
        length = self._query_length()
        noise_slots = int(self._rng.binomial(length, self.spec.noise_fraction))
        group_slots = length - noise_slots
        keys: List[int] = []
        if group_slots > 0:
            primary = self._groups[self._group_sampler.sample_one()]
            if (
                group_slots >= 4
                and self._rng.random() < self.spec.second_group_prob
            ):
                secondary = self._groups[self._group_sampler.sample_one()]
                split = group_slots // 2
                keys.extend(self._draw_from_group(primary, group_slots - split))
                keys.extend(self._draw_from_group(secondary, split))
            else:
                keys.extend(self._draw_from_group(primary, group_slots))
        shortfall = length - len(keys) - noise_slots
        noise = self._item_sampler.sample(noise_slots + max(0, shortfall))
        keys.extend(self._id_of_rank[noise].tolist())
        deduped = dict.fromkeys(keys)
        if not deduped:
            deduped = [int(self._id_of_rank[self._item_sampler.sample_one()])]
        return Query(self._interner.keys(deduped))

    def generate(self) -> QueryTrace:
        """Generate the full trace."""
        trace = QueryTrace(self.spec.num_keys)
        for _ in range(self.spec.num_queries):
            trace.append(self.generate_query())
        return trace
