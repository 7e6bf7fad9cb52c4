"""Trace sampling.

The paper's offline phase ingests up to 4.37 B queries (CriteoTB, Table 1:
~3 hours on Hadoop).  In practice you sample: partition quality saturates
well before the full log is consumed, because the co-occurrence structure
is heavily repeated.  Uniform query sampling lets experiments chart the
offline-cost/quality trade-off.
"""

from __future__ import annotations

from ..errors import WorkloadError
from ..types import QueryTrace
from ..utils.rng import RngLike, make_rng


def sample_trace(
    trace: QueryTrace, fraction: float, seed: RngLike = 0
) -> QueryTrace:
    """Uniformly sample a fraction of queries (order preserved)."""
    if not 0.0 < fraction <= 1.0:
        raise WorkloadError(f"fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return trace
    rng = make_rng(seed)
    queries = list(trace)
    count = max(1, int(len(queries) * fraction))
    chosen = sorted(
        rng.choice(len(queries), size=count, replace=False).tolist()
    )
    return QueryTrace(trace.num_keys, [queries[i] for i in chosen])

