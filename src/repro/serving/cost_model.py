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
from typing import List

from ..errors import ConfigError
from .selection import SelectionOutcome


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
        for name in (
            "sort_per_key_us",
            "candidate_examine_us",
            "step_base_us",
            "query_base_us",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")

    def sort_time_us(self, num_keys: int) -> float:
        """Cost of sorting ``num_keys`` by replica count (0 for no sort)."""
        if num_keys <= 1:
            return 0.0
        return self.sort_per_key_us * num_keys * math.log2(num_keys)

    def step_time_us(self, candidates_examined: int) -> float:
        """Cost of choosing one page among ``candidates_examined``."""
        return self.step_base_us + self.candidate_examine_us * candidates_examined

    def step_times_us(self, outcome: SelectionOutcome) -> List[float]:
        """:meth:`step_time_us` of every step of ``outcome``, in order."""
        base, examine = self.step_base_us, self.candidate_examine_us
        return [base + examine * c for c in outcome.candidate_counts]

    def selection_time_us(self, outcome: SelectionOutcome) -> float:
        """Total selection CPU (excluding the sort) for a query.

        Accumulated left to right: builtin ``sum`` is compensated on
        Python >= 3.12 and plain before, so it would make the last bits
        depend on the interpreter (and differ from a pipelined ``+=``).
        """
        total = 0.0
        for step_us in self.step_times_us(outcome):
            total += step_us
        return total

    def total_cpu_us(self, outcome: SelectionOutcome) -> float:
        """Sort + selection + per-query base."""
        return (
            self.query_base_us
            + self.sort_time_us(outcome.sorted_keys)
            + self.selection_time_us(outcome)
        )
