"""Reference implementations: the oracles the production code is held to.

One readable, loop- and set-based version of each algorithm the paper
has one of — the two page selectors (§6, §6.1), SHP, the connectivity
λ, the §5.3 scores and the per-base replica page — and an exact page
cover, the optimum both selectors approximate.  The implementations
under :mod:`repro.serving.selection`, :mod:`repro.partition` and
:mod:`repro.replication` must match them bit for bit; the hypothesis
differential suites under ``tests/`` enforce it.  :mod:`.cache` states
each DRAM cache policy one key at a time, the semantics the fused batch
calls of :mod:`repro.cache` must keep.

Importers are ``tests/``, the two speed-up benches
(``benchmarks/bench_selection.py``, ``benchmarks/bench_offline.py``) and
the selector comparison (``benchmarks/bench_selector.py``, where greedy
set cover lives on as the baseline one-pass is measured against).
Nothing else under ``repro`` imports this package (``import repro``
does not load it; ``tests/test_reference_boundary.py`` checks), and it
takes from production only data types and the shared RNG / geometry
discipline — never an algorithm it is the oracle of.
"""

from .metrics import edge_connectivities
from .replication import (
    build_replica_pages,
    connectivity_scores,
    hotness_scores,
    maxembed_layout,
    replica_page,
)
from .selection import GreedySetCoverSelector, OnePassSelector, exact_cover
from .shp import ShpPartitioner

__all__ = [
    "OnePassSelector",
    "GreedySetCoverSelector",
    "exact_cover",
    "ShpPartitioner",
    "edge_connectivities",
    "connectivity_scores",
    "hotness_scores",
    "build_replica_pages",
    "maxembed_layout",
    "replica_page",
]
