"""Build hypergraphs from query traces.

The offline phase of MaxEmbed consumes *historical* query logs.  These
builders turn a :class:`~repro.types.QueryTrace` into a
:class:`~repro.hypergraph.Hypergraph`:

* :func:`build_hypergraph` — one hyperedge per trace query (duplicates in a
  query are dropped; single-key queries are kept, they still carry hotness
  information for scoring).
* :func:`build_weighted_hypergraph` — identical key-sets are merged into a
  single weighted hyperedge, which is how the paper's offline phase can
  process billions of queries (CriteoTB) without a billion edges.
"""

from __future__ import annotations

from itertools import islice
from typing import Optional

from ..errors import HypergraphError
from ..types import QueryTrace
from .hypergraph import Hypergraph, merge_duplicate_edges


def build_hypergraph(
    trace: QueryTrace,
    min_edge_size: int = 1,
    max_edges: Optional[int] = None,
) -> Hypergraph:
    """Build an unweighted hypergraph with one edge per query.

    Args:
        trace: source queries; vertex count is ``trace.num_keys``.
        min_edge_size: drop queries with fewer distinct keys than this.
            ``min_edge_size=2`` discards singleton queries, which cannot
            contribute co-occurrence information to the partitioner.
        max_edges: optional cap on the number of edges taken from the head
            of the trace (useful for sampling very long logs).
    """
    if min_edge_size < 1:
        raise HypergraphError(
            f"min_edge_size must be >= 1, got {min_edge_size}"
        )
    edges = []
    for query in trace:
        keys = query.unique_keys()
        if len(keys) < min_edge_size:
            continue
        edges.append(keys)
        if max_edges is not None and len(edges) >= max_edges:
            break
    if not edges:
        raise HypergraphError(
            "trace produced no hyperedges (all queries filtered out)"
        )
    return Hypergraph(trace.num_keys, edges)


def build_weighted_hypergraph(
    trace: QueryTrace,
    min_edge_size: int = 1,
    max_edges: Optional[int] = None,
) -> Hypergraph:
    """Build a hypergraph where identical key-sets merge into weighted edges."""
    if min_edge_size < 1:
        raise HypergraphError(
            f"min_edge_size must be >= 1, got {min_edge_size}"
        )
    # merge_duplicate_edges canonicalizes every key-set, so only a size
    # filter that can drop a query needs its distinct count beforehand.
    kept = (
        query.keys
        for query in trace
        if min_edge_size == 1 or len(set(query.keys)) >= min_edge_size
    )
    edges, weights = merge_duplicate_edges(islice(kept, max_edges))
    if not edges:
        raise HypergraphError(
            "trace produced no hyperedges (all queries filtered out)"
        )
    return Hypergraph(trace.num_keys, edges, weights)
