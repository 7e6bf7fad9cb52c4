"""CPU cost model for the online selection path.

The paper's Figure 15 breaks one online query into *sort*, *selection*,
and *SSD read* time.  Our simulation charges CPU time per elementary
operation; the defaults are calibrated so that, like the paper's
measurement, unoptimized greedy selection costs the same order of
magnitude as the SSD reads it precedes (§6.2: "replica selection and SSD
read … have comparable order of magnitude of latency").

All times are microseconds of simulated CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..errors import ConfigError


@dataclass(frozen=True)
class CpuCostModel:
    """Per-operation CPU charges.

    Attributes:
        sort_per_key_us: coefficient of the O(q log q) replica-count sort.
        candidate_examine_us: one invert-index intersection for one
            candidate page.
        step_base_us: fixed per-chosen-page bookkeeping (issue the I/O,
            remove covered keys).
        query_base_us: fixed per-query overhead (request parsing, hash
            lookups of the forward index).
    """

    sort_per_key_us: float = 0.05
    candidate_examine_us: float = 0.15
    step_base_us: float = 0.15
    query_base_us: float = 0.5

    def __post_init__(self) -> None:
        # NaN fails every comparison, so "finite and >= 0" is spelled
        # out: a bundle's JSON may carry NaN or Infinity.
        for name in (
            "sort_per_key_us",
            "candidate_examine_us",
            "step_base_us",
            "query_base_us",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(
                    f"{name} must be finite and >= 0, got {value}"
                )

    def sort_time_us(self, num_keys: int) -> float:
        """Cost of sorting ``num_keys`` by replica count (0 for no sort)."""
        if num_keys <= 1:
            return 0.0
        return self.sort_per_key_us * num_keys * math.log2(num_keys)

    def step_time_us(self, candidates_examined: int) -> float:
        """Cost of choosing one page among ``candidates_examined``."""
        return self.step_base_us + self.candidate_examine_us * candidates_examined

    def selection_time_us(self, candidate_counts: Sequence[int]) -> float:
        """Total selection CPU (excluding the sort) for a query whose
        steps examined ``candidate_counts`` (an outcome's list).

        The :meth:`step_time_us` of each step, accumulated left to
        right: builtin ``sum`` is compensated on Python >= 3.12 and plain
        before, so it would make the last bits depend on the interpreter
        (and differ from a pipelined ``+=``).
        """
        base, examine = self.step_base_us, self.candidate_examine_us
        total = 0.0
        for count in candidate_counts:
            total += base + examine * count
        return total
