"""Vertex scoring for replica selection.

The MaxEmbed score (paper §5.3) couples hotness and residual connectivity::

    score(v) = Σ_{e ∈ related_edges(v)} (λ(e) − 1)

where ``λ(e)`` is the number of clusters edge ``e`` spans under the base
partition.  A vertex scores high when it appears in many queries (hotness)
*and* those queries still need multiple SSD reads (connectivity) — exactly
the vertices whose replication can remove reads.

``hotness_scores`` (plain weighted degree) is kept for the RPP strawman
and as a scoring ablation.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence

import numpy as np

from ..hypergraph import Hypergraph
from ..hypergraph.csr import PIN_DTYPE, scatter_add_exact
from ..partition import edge_connectivities


def connectivity_scores(
    graph: Hypergraph,
    assignment: Sequence[int],
    lambdas: "Sequence[int] | None" = None,
) -> List[int]:
    """MaxEmbed §5.3 score: Σ over incident edges of weight · (λ − 1).

    ``lambdas`` lets the offline build compute the per-edge
    connectivities once and share them with every consumer.
    """
    if lambdas is None:
        lambdas = edge_connectivities(graph, assignment)
    weights = graph.csr().weights
    return _sum_onto_pins(
        graph, (np.asarray(lambdas, dtype=PIN_DTYPE) - 1) * weights
    )


def hotness_scores(graph: Hypergraph) -> List[int]:
    """Pure popularity: weighted degree of each vertex."""
    return _sum_onto_pins(graph, graph.csr().weights)


def _sum_onto_pins(graph: Hypergraph, per_edge: np.ndarray) -> List[int]:
    """Per-vertex sum of its edges' values: one scatter-add over the pins."""
    csr = graph.csr()
    per_pin = np.repeat(per_edge, csr.edge_sizes())
    return scatter_add_exact(
        csr.pin_vertices, per_pin, graph.num_vertices
    ).tolist()


def top_scored_vertices(scores: Sequence[int], count: int) -> List[int]:
    """Indices of the ``count`` highest scores, ties broken by lower id.

    Vertices with a zero score are excluded — replicating a vertex whose
    every query is already served by one page (or that never appears)
    cannot reduce any read.
    """
    if count <= 0:
        return []
    # Partial selection: O(V log count) instead of sorting every
    # positive-score vertex; nsmallest returns its result ordered by the
    # key, so the ranking matches the full sort exactly.
    return heapq.nsmallest(
        count,
        (v for v, s in enumerate(scores) if s > 0),
        key=lambda v: (-scores[v], v),
    )
