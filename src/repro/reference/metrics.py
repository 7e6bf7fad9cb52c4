"""Set-based λ — the oracle for :func:`repro.partition.edge_connectivities`."""

from __future__ import annotations

from typing import List, Sequence

from ..hypergraph import Hypergraph
from ..partition.metrics import _check


def edge_connectivities(
    graph: Hypergraph, assignment: Sequence[int]
) -> List[int]:
    """λ(e) for every edge: distinct clusters spanned by its vertices."""
    _check(graph, assignment)
    return [len({assignment[v] for v in edge}) for edge in graph.edges()]
