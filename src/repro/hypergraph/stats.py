"""Hypergraph statistics.

These feed two places: the paper's motivation analysis (§3 observes that
the top 5 % hottest embeddings co-appear with more than 40 others, versus
8–32 slots per SSD page) and sanity checks in the workload generator tests
(a generated trace should exhibit the same co-appearance breadth the paper
relies on).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Set

import numpy as np

from .hypergraph import Hypergraph


@dataclass(frozen=True)
class HypergraphStats:
    """Summary statistics of a hypergraph."""

    num_vertices: int
    num_edges: int
    total_pins: int
    mean_edge_size: float
    max_edge_size: int
    mean_degree: float
    max_degree: int
    isolated_vertices: int


def compute_stats(graph: Hypergraph) -> HypergraphStats:
    """Compute :class:`HypergraphStats` for ``graph``."""
    edge_sizes = [len(e) for e in graph.edges()]
    degrees = graph.degrees()
    non_isolated = sum(1 for d in degrees if d > 0)
    return HypergraphStats(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        total_pins=graph.total_pin_count(),
        mean_edge_size=float(np.mean(edge_sizes)) if edge_sizes else 0.0,
        max_edge_size=max(edge_sizes) if edge_sizes else 0,
        mean_degree=float(np.mean(degrees)),
        max_degree=max(degrees) if degrees else 0,
        isolated_vertices=graph.num_vertices - non_isolated,
    )


def vertex_cooccurrence(graph: Hypergraph, vertex: int) -> Counter:
    """Count how often each other vertex co-appears with ``vertex``.

    Counts are edge-weighted: a query repeated ``w`` times contributes
    ``w`` to every co-appearing neighbour.  The vertex itself is excluded.
    """
    counts: Counter = Counter()
    for eid in graph.vertex_edges(vertex):
        w = graph.weight(eid)
        for other in graph.edge(eid):
            if other != vertex:
                counts[other] += w
    return counts


def distinct_neighbour_counts(graph: Hypergraph) -> List[int]:
    """Number of distinct co-appearing vertices for every vertex.

    This is the quantity behind the paper's §3 observation: when a vertex's
    neighbourhood exceeds the page capacity ``d``, single-copy placement
    *must* scatter some co-appearing pairs across pages.
    """
    neighbours: List[Set[int]] = [set() for _ in range(graph.num_vertices)]
    for edge in graph.edges():
        for v in edge:
            neighbours[v].update(edge)
    return [max(0, len(n) - 1) for n in neighbours]


def hot_vertex_neighbour_breadth(
    graph: Hypergraph, hot_fraction: float = 0.05
) -> float:
    """Mean distinct-neighbour count over the hottest ``hot_fraction`` vertices.

    Mirrors the paper's CriteoTB observation ("the top 5 % of the hottest
    embeddings are likely to co-appear with more than 40 embeddings").
    """
    if not 0 < hot_fraction <= 1:
        raise ValueError(f"hot_fraction must be in (0, 1], got {hot_fraction}")
    degrees = np.asarray(graph.degrees())
    breadth = np.asarray(distinct_neighbour_counts(graph))
    k = max(1, int(graph.num_vertices * hot_fraction))
    hottest = np.argsort(-degrees)[:k]
    return float(breadth[hottest].mean())
