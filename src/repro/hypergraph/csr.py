"""CSR pin representation of a hypergraph.

The offline pipeline (partitioning, connectivity scoring, replica-page
construction) wants the incidence as flat arrays rather than python
lists: one pass over ``pin_vertices`` replaces a per-edge python loop,
and the transpose gives every vertex its incident edges without dict
walks:

* ``edge_indptr`` / ``pin_vertices`` — pins grouped by edge, vertices in
  the edge's tuple order (the hypergraph's dedupe order);
* ``vertex_indptr`` / ``vertex_edges`` — the transpose: pins grouped by
  vertex, edge ids ascending (one stable counting-sort pass);
* ``weights`` — per-edge trace multiplicities.

Built once per graph and cached on the :class:`Hypergraph` (immutable
after construction), so partitioning, scoring, and replication all share
the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Sequence, Tuple

import numpy as np

from ..errors import HypergraphError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .hypergraph import Hypergraph

PIN_DTYPE = np.int64


@dataclass(frozen=True)
class HypergraphCsr:
    """Both directions of the pin incidence as flat int64 arrays.

    Attributes:
        num_vertices: vertex-space size.
        edge_indptr: shape ``(E + 1,)``; edge ``e`` owns pins
            ``pin_vertices[edge_indptr[e]:edge_indptr[e + 1]]``.
        pin_vertices: vertex id of every pin, grouped by edge.
        vertex_indptr: shape ``(V + 1,)``; vertex ``v`` owns
            ``vertex_edges[vertex_indptr[v]:vertex_indptr[v + 1]]``.
        vertex_edges: edge id of every pin, grouped by vertex
            (ascending edge ids within a vertex).
        weights: shape ``(E,)``; per-edge trace multiplicity.
    """

    num_vertices: int
    edge_indptr: np.ndarray
    pin_vertices: np.ndarray
    vertex_indptr: np.ndarray
    vertex_edges: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.num_vertices <= 0:
            raise HypergraphError(
                f"num_vertices must be positive, got {self.num_vertices}"
            )
        if len(self.edge_indptr) != len(self.weights) + 1:
            raise HypergraphError(
                f"{len(self.edge_indptr) - 1} edges but "
                f"{len(self.weights)} weights"
            )
        if len(self.vertex_indptr) != self.num_vertices + 1:
            raise HypergraphError(
                f"vertex_indptr covers {len(self.vertex_indptr) - 1} "
                f"vertices, graph has {self.num_vertices}"
            )
        if len(self.pin_vertices) != len(self.vertex_edges):
            raise HypergraphError(
                f"{len(self.pin_vertices)} edge-side pins vs "
                f"{len(self.vertex_edges)} vertex-side pins"
            )
        if len(self.pin_vertices) and (
            int(self.pin_vertices.min()) < 0
            or int(self.pin_vertices.max()) >= self.num_vertices
        ):
            raise HypergraphError(
                f"pin vertex ids must lie in [0, {self.num_vertices})"
            )

    # -- geometry ------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Number of hyperedges."""
        return len(self.weights)

    @property
    def num_pins(self) -> int:
        """Total (edge, vertex) incidences."""
        return len(self.pin_vertices)

    def edge_sizes(self) -> np.ndarray:
        """Per-edge pin counts."""
        return np.diff(self.edge_indptr)

    def vertex_degrees(self) -> np.ndarray:
        """Per-vertex incident-edge counts (unweighted)."""
        return np.diff(self.vertex_indptr)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_graph(cls, graph: "Hypergraph") -> "HypergraphCsr":
        """Both CSR directions over ``graph``'s flat pins (shared, not
        copied: the graph flattened them at construction)."""
        edge_indptr, pin_vertices = graph.edge_pins()
        weights = np.fromiter(
            map(graph.weight, range(graph.num_edges)),
            dtype=PIN_DTYPE,
            count=graph.num_edges,
        )
        vertex_indptr, vertex_edges = _transpose(
            edge_indptr, pin_vertices, graph.num_vertices
        )
        return cls(
            num_vertices=graph.num_vertices,
            edge_indptr=edge_indptr,
            pin_vertices=pin_vertices,
            vertex_indptr=vertex_indptr,
            vertex_edges=vertex_edges,
            weights=weights,
        )

    # -- ragged access -------------------------------------------------------

    def edges_of_vertex(self, vertex: int) -> np.ndarray:
        """Incident edge ids of ``vertex`` (zero-copy slice, ascending)."""
        return self.vertex_edges[
            self.vertex_indptr[vertex] : self.vertex_indptr[vertex + 1]
        ]

    def vertices_of_edge(self, edge_id: int) -> np.ndarray:
        """Vertices of ``edge_id`` (zero-copy slice, tuple order)."""
        return self.pin_vertices[
            self.edge_indptr[edge_id] : self.edge_indptr[edge_id + 1]
        ]


def flatten_edges(
    edges: Sequence[Sequence[int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """``(edge_indptr, pin_vertices)`` of ``edges``, pins in edge order."""
    edge_indptr = np.zeros(len(edges) + 1, dtype=PIN_DTYPE)
    np.cumsum(
        np.fromiter(map(len, edges), dtype=PIN_DTYPE, count=len(edges)),
        out=edge_indptr[1:],
    )
    pin_vertices = np.fromiter(
        chain.from_iterable(edges),
        dtype=PIN_DTYPE,
        count=int(edge_indptr[-1]),
    )
    return edge_indptr, pin_vertices


def _transpose(
    edge_indptr: np.ndarray, pin_vertices: np.ndarray, num_vertices: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Counting-sort transpose: vertex → incident edge ids (ascending)."""
    counts = np.bincount(pin_vertices, minlength=num_vertices)
    vertex_indptr = np.zeros(num_vertices + 1, dtype=PIN_DTYPE)
    np.cumsum(counts, out=vertex_indptr[1:])
    num_edges = len(edge_indptr) - 1
    edge_ids = np.repeat(
        np.arange(num_edges, dtype=PIN_DTYPE), np.diff(edge_indptr)
    )
    # Stable sort by vertex keeps pins in edge-id order within a vertex;
    # in the narrowest dtype that holds the ids, because numpy sorts
    # 16-bit keys by radix (~8x faster, same permutation).
    order = np.argsort(
        pin_vertices.astype(np.min_scalar_type(num_vertices - 1)),
        kind="stable",
    )
    return vertex_indptr, np.ascontiguousarray(edge_ids[order])


def scatter_add_exact(
    index: np.ndarray, values: np.ndarray, size: int
) -> np.ndarray:
    """Exact int64 scatter-add of ``values`` into ``size`` bins.

    ``bincount`` with float64 weights is the fast route and stays exact
    while the absolute sum fits 2**53; otherwise fall back to the
    (slower, unconditionally exact) buffered ``np.add.at``.
    """
    if len(values) == 0:
        return np.zeros(size, dtype=PIN_DTYPE)
    bound = int(np.abs(values).sum())
    if bound < 2**53:
        return np.bincount(
            index, weights=values.astype(np.float64), minlength=size
        ).astype(PIN_DTYPE)
    out = np.zeros(size, dtype=PIN_DTYPE)
    np.add.at(out, index, values)
    return out


def gather_rows(
    indptr: np.ndarray, values: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate ``values[indptr[r]:indptr[r + 1]]`` for every row.

    Returns ``(gathered, lengths)``; the classic ragged-gather via
    ``repeat`` + ``arange`` so no python loop touches the pins.
    """
    rows = np.asarray(rows, dtype=PIN_DTYPE)
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=values.dtype), lengths
    shifts = np.zeros(len(rows), dtype=PIN_DTYPE)
    np.cumsum(lengths[:-1], out=shifts[1:])
    offsets = np.arange(total, dtype=PIN_DTYPE) - np.repeat(shifts, lengths)
    return values[np.repeat(starts, lengths) + offsets], lengths
