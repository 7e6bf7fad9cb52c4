"""Loop-based replica selection — the oracle for the §5.3 building blocks.

Per-edge python loops for the scores and a ``Counter`` walk over a
base's incident hyperedges for its replica page: what
:mod:`repro.replication.scoring` and
:func:`repro.replication.replica_page` compute over CSR arrays.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..hypergraph import Hypergraph, vertex_cooccurrence
from ..partition.shp import ShpConfig
from ..placement import PageLayout, layout_from_partition
from ..replication.base import ReplicationStrategy
from ..replication.scoring import top_scored_vertices
from .metrics import edge_connectivities
from .shp import ShpPartitioner


def connectivity_scores(
    graph: Hypergraph,
    assignment: Sequence[int],
    lambdas: "Sequence[int] | None" = None,
) -> List[int]:
    """MaxEmbed §5.3 score: Σ over incident edges of weight · (λ − 1)."""
    if lambdas is None:
        lambdas = edge_connectivities(graph, assignment)
    scores = [0] * graph.num_vertices
    for eid, edge, weight in graph.edge_items():
        contribution = (lambdas[eid] - 1) * weight
        if contribution == 0:
            continue
        for v in edge:
            scores[v] += contribution
    return scores


def hotness_scores(graph: Hypergraph) -> List[int]:
    """Pure popularity: weighted degree of each vertex."""
    return graph.degrees()


def maxembed_layout(
    graph: Hypergraph,
    capacity: int,
    ratio: float,
    shp: "ShpConfig | None" = None,
) -> PageLayout:
    """The §5.3 pipeline end to end on the oracles only.

    What ``ConnectivityPriorityStrategy(ShpPartitioner(shp)).build_layout``
    must reproduce page for page.
    """
    result = ShpPartitioner(shp).partition(graph, capacity)
    budget = ReplicationStrategy.replica_page_budget(
        graph.num_vertices, capacity, ratio
    )
    return layout_from_partition(
        result, build_replica_pages(graph, result.assignment, capacity, budget)
    )


def build_replica_pages(
    graph: Hypergraph,
    assignment: Sequence[int],
    capacity: int,
    budget: int,
    exclude_home_cluster: bool = True,
    dedupe_pages: bool = True,
    scoring: str = "connectivity",
    lambdas: "Sequence[int] | None" = None,
) -> List[Tuple[int, ...]]:
    """Steps 2–4: score, select bases, emit one replica page per base."""
    if budget <= 0:
        return []
    if scoring == "connectivity":
        scores = connectivity_scores(graph, assignment, lambdas=lambdas)
    else:
        scores = hotness_scores(graph)
    bases = top_scored_vertices(scores, budget)
    pages: List[Tuple[int, ...]] = []
    seen = set()
    for base in bases:
        page = replica_page(
            graph, assignment, capacity, base, exclude_home_cluster
        )
        if len(page) < 2:
            # A lone base replicates nothing useful: a base-only page
            # cannot serve any *combination* a home page read wouldn't.
            continue
        canon = frozenset(page)
        if dedupe_pages and canon in seen:
            continue
        seen.add(canon)
        pages.append(page)
        if len(pages) >= budget:
            break
    return pages


def replica_page(
    graph: Hypergraph,
    assignment: Sequence[int],
    capacity: int,
    base: int,
    exclude_home_cluster: bool = True,
) -> Tuple[int, ...]:
    """One replica page: base + its d−1 most frequent co-neighbours."""
    cooccurrence = vertex_cooccurrence(graph, base)
    home = assignment[base]
    candidates = [
        (count, -neighbour, neighbour)
        for neighbour, count in cooccurrence.items()
        if not (exclude_home_cluster and assignment[neighbour] == home)
    ]
    candidates.sort(reverse=True)
    companions = [n for _, _, n in candidates[: capacity - 1]]
    return tuple([base] + companions)
