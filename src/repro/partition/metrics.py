"""Partition quality metrics.

The optimization target throughout the paper is hyperedge *connectivity*:
``λ(e)`` is the number of distinct clusters the vertices of edge ``e``
touch, which equals the number of SSD reads needed to serve query ``e``
from a single-copy placement.  The paper's objective (and SHP's) is the
weighted fanout ``Σ_e w(e) · (λ(e) − 1)``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import PartitionError
from ..hypergraph import Hypergraph
from ..hypergraph.csr import PIN_DTYPE


def _check(graph: Hypergraph, assignment: Sequence[int]) -> None:
    if len(assignment) != graph.num_vertices:
        raise PartitionError(
            f"assignment length {len(assignment)} != "
            f"num_vertices {graph.num_vertices}"
        )


def edge_connectivities(
    graph: Hypergraph, assignment: Sequence[int]
) -> List[int]:
    """λ(e) for every edge: distinct clusters spanned by its vertices.

    Counted by sorting the composite keys ``edge_id · num_clusters +
    label`` over the CSR pin arrays — the global sort keeps each edge's
    pins contiguous because the edge id dominates — and reducing the
    boundary mask per edge: one sort over all pins, no python set per
    edge.
    """
    _check(graph, assignment)
    csr = graph.csr()
    if csr.num_edges == 0:
        return []
    assignment_arr = np.asarray(assignment, dtype=PIN_DTYPE)
    labels = assignment_arr[csr.pin_vertices]
    num_clusters = int(labels.max()) + 1
    if csr.num_edges * num_clusters >= 2**62:
        raise PartitionError(
            f"{csr.num_edges} edges x {num_clusters} clusters overflow "
            f"the int64 composite sort key"
        )
    sizes = csr.edge_sizes()
    composite = (
        np.repeat(np.arange(csr.num_edges, dtype=PIN_DTYPE), sizes)
        * num_clusters
        + labels
    )
    composite.sort()
    boundary = np.empty(len(composite), dtype=PIN_DTYPE)
    boundary[0] = 1
    boundary[1:] = composite[1:] != composite[:-1]
    return np.add.reduceat(boundary, csr.edge_indptr[:-1]).tolist()


def fanout_objective(
    graph: Hypergraph,
    assignment: Sequence[int],
    lambdas: "Sequence[int] | None" = None,
) -> int:
    """Weighted Σ (λ(e) − 1) — the SHP minimization objective."""
    if lambdas is None:
        lambdas = edge_connectivities(graph, assignment)
    return sum(
        (lam - 1) * graph.weight(eid) for eid, lam in enumerate(lambdas)
    )


def mean_connectivity(
    graph: Hypergraph,
    assignment: Sequence[int],
    lambdas: "Sequence[int] | None" = None,
) -> float:
    """Weighted mean λ(e) — average reads per (historical) query."""
    if lambdas is None:
        lambdas = edge_connectivities(graph, assignment)
    weights = [graph.weight(eid) for eid in range(graph.num_edges)]
    return float(np.average(lambdas, weights=weights))

