"""Core hypergraph data structure.

A hypergraph here is a bipartite incidence between ``num_vertices``
vertices (embedding keys) and a list of hyperedges (queries).  Each edge is
a tuple of distinct vertex ids; each edge carries an integer weight — the
number of times the same key-set appeared in the trace — so repeated
queries cost O(1) storage.

Both directions of the incidence are materialized:

* ``edges[e]`` — vertices of edge ``e`` (tuple of ints), and
* ``vertex_edges(v)`` — edges incident to vertex ``v``,

because the partitioner walks edge→vertices while the replication scorer
walks vertex→edges.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from ..errors import HypergraphError
from .csr import HypergraphCsr, flatten_edges

Edge = Tuple[int, ...]


class Hypergraph:
    """Immutable-after-construction hypergraph with weighted hyperedges."""

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[Sequence[int]],
        weights: "Sequence[int] | None" = None,
    ) -> None:
        if num_vertices <= 0:
            raise HypergraphError(
                f"num_vertices must be positive, got {num_vertices}"
            )
        self._num_vertices = num_vertices
        self._edges: List[Edge] = [tuple(raw) for raw in edges]
        try:
            self._edge_indptr, pins = flatten_edges(self._edges)
            valid = np.diff(self._edge_indptr).all() and (
                len(pins) == 0 or 0 <= pins.min() <= pins.max() < num_vertices
            )
        except OverflowError:  # an id past int64 is out of range too
            valid = False
        if not valid:
            self._raise_invalid_edge()
        # Ids that strictly rise along an edge cannot repeat; any other
        # edge order (first-appearance traces) pays the ordered dedupe.
        falls = pins[1:] <= pins[:-1]
        falls[self._edge_indptr[1:-1] - 1] = False
        if falls.any():
            self._edges = [tuple(dict.fromkeys(e)) for e in self._edges]
            self._edge_indptr, pins = flatten_edges(self._edges)
        self._pin_vertices = pins
        if weights is None:
            self._weights = [1] * len(self._edges)
        else:
            self._weights = list(weights)
            if len(self._weights) != len(self._edges):
                raise HypergraphError(
                    f"{len(self._weights)} weights for {len(self._edges)} edges"
                )
            if any(w <= 0 for w in self._weights):
                raise HypergraphError("edge weights must be positive")
        self._incidence: "List[List[int]] | None" = None
        self._csr: "HypergraphCsr | None" = None

    def _raise_invalid_edge(self) -> None:
        """Name the first empty edge or out-of-range vertex, in edge order."""
        for edge in self._edges:
            if not edge:
                raise HypergraphError("hyperedges must be non-empty")
            for v in edge:
                if not 0 <= v < self._num_vertices:
                    raise HypergraphError(
                        f"vertex {v} out of range [0, {self._num_vertices})"
                    )
        raise AssertionError("unreachable: the array check found a culprit")

    # -- basic accessors ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices (embedding keys)."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of distinct hyperedges."""
        return self._edges.__len__()

    def edge(self, edge_id: int) -> Edge:
        """Vertices of edge ``edge_id``."""
        return self._edges[edge_id]

    def weight(self, edge_id: int) -> int:
        """Multiplicity of edge ``edge_id`` in the source trace."""
        return self._weights[edge_id]

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges (vertex tuples)."""
        return iter(self._edges)

    def edge_pins(self) -> "Tuple[np.ndarray, np.ndarray]":
        """``(edge_indptr, pin_vertices)``: the edges as one flat array.

        Flattened once, at construction; :meth:`csr` shares the arrays.
        """
        return self._edge_indptr, self._pin_vertices

    def edge_items(self) -> Iterator[Tuple[int, Edge, int]]:
        """Iterate ``(edge_id, vertices, weight)`` triples."""
        for eid, (edge, w) in enumerate(zip(self._edges, self._weights)):
            yield eid, edge, w

    # -- vertex-side incidence ---------------------------------------------

    def _build_incidence(self) -> List[List[int]]:
        incidence: List[List[int]] = [[] for _ in range(self._num_vertices)]
        for eid, edge in enumerate(self._edges):
            for v in edge:
                incidence[v].append(eid)
        return incidence

    def vertex_edges(self, vertex: int) -> List[int]:
        """Edge ids incident to ``vertex`` (lazily materialized)."""
        if not 0 <= vertex < self._num_vertices:
            raise HypergraphError(
                f"vertex {vertex} out of range [0, {self._num_vertices})"
            )
        if self._incidence is None:
            self._incidence = self._build_incidence()
        return self._incidence[vertex]

    def degree(self, vertex: int) -> int:
        """Weighted degree: total trace appearances of ``vertex``."""
        return sum(self._weights[e] for e in self.vertex_edges(vertex))

    def degrees(self) -> List[int]:
        """Weighted degree of every vertex."""
        if self._incidence is None:
            self._incidence = self._build_incidence()
        return [
            sum(self._weights[e] for e in edge_ids)
            for edge_ids in self._incidence
        ]

    # -- derived structures --------------------------------------------------

    def csr(self) -> "HypergraphCsr":
        """Flat-array (CSR) view of both incidence directions.

        Built lazily and cached — the graph is immutable after
        construction, so partitioning, scoring, and replication can all
        share the same arrays.
        """
        if self._csr is None:
            self._csr = HypergraphCsr.from_graph(self)
        return self._csr

    def total_pin_count(self) -> int:
        """Total number of (edge, vertex) incidences, unweighted."""
        return len(self._pin_vertices)

    def subgraph_on_edges(self, edge_ids: Sequence[int]) -> "Hypergraph":
        """Hypergraph restricted to the given edges (same vertex space)."""
        return Hypergraph(
            self._num_vertices,
            [self._edges[e] for e in edge_ids],
            [self._weights[e] for e in edge_ids],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Hypergraph(num_vertices={self._num_vertices}, "
            f"num_edges={self.num_edges}, pins={self.total_pin_count()})"
        )


def merge_duplicate_edges(
    edges: Iterable[Sequence[int]],
) -> Tuple[List[Edge], List[int]]:
    """Collapse repeated key-sets into one weighted edge.

    The key-set is order-insensitive: ``(1, 2)`` and ``(2, 1)`` merge.
    Returns (edges, weights) in first-appearance order.
    """
    counts: Dict[Edge, int] = {}
    order: List[Edge] = []
    for raw in edges:
        canon = tuple(sorted(set(raw)))
        if not canon:
            raise HypergraphError("hyperedges must be non-empty")
        if canon not in counts:
            counts[canon] = 0
            order.append(canon)
        counts[canon] += 1
    return order, [counts[e] for e in order]
