"""Connectivity-priority replication — the MaxEmbed solution (paper §5.3).

Algorithm (verbatim from the paper):

1. Partition the hypergraph with vanilla SHP.
2. Score every vertex: ``score(v) = Σ_{e ∋ v} (λ(e) − 1)``.
3. Select the top ``r·N/d`` scored vertices.
4. For each selected *base* vertex, find its ``d − 1`` most frequent
   co-appearing neighbours by traversing its incident hyperedges —
   excluding vertices already assigned to the base's cluster in step 1 —
   and emit one replica page holding the base plus those neighbours.

Because replication happens *after* partitioning, the base placement is
untouched: replica pages strictly add combinations.  Excluding
home-cluster co-residents avoids wasting replica slots on pairs that a
single page read already serves.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from ..hypergraph import Hypergraph, gather_rows
from ..hypergraph.csr import PIN_DTYPE, scatter_add_exact
from ..partition import edge_connectivities
from ..placement import PageLayout, layout_from_partition
from .base import ReplicationStrategy
from .scoring import connectivity_scores, hotness_scores, top_scored_vertices


class ConnectivityPriorityStrategy(ReplicationStrategy):
    """Partition first, then replicate high-(λ−1)-score vertices."""

    def __init__(
        self,
        partitioner=None,
        exclude_home_cluster: bool = True,
        dedupe_pages: bool = True,
        scoring: str = "connectivity",
    ) -> None:
        """Args:
        partitioner: base partitioner (defaults to SHP).
        exclude_home_cluster: paper behaviour — replica pages skip
            neighbours already co-located with the base vertex.  Disabling
            this is the DESIGN.md ablation #3.
        dedupe_pages: drop a replica page whose key set duplicates an
            earlier page (duplicates waste space without adding any new
            combination).
        scoring: ``"connectivity"`` (the paper's Σ(λ−1) score) or
            ``"hotness"`` (pure degree — DESIGN.md ablation #2, which
            degenerates the selection toward RPP's).
        """
        super().__init__(partitioner)
        if scoring not in ("connectivity", "hotness"):
            raise ConfigError(
                f"scoring must be 'connectivity' or 'hotness', got {scoring!r}"
            )
        self.exclude_home_cluster = exclude_home_cluster
        self.dedupe_pages = dedupe_pages
        self.scoring = scoring

    def build_layout(
        self, graph: Hypergraph, capacity: int, ratio: float
    ) -> PageLayout:
        self.check_ratio(ratio)
        result = self.partitioner.partition(graph, capacity)
        budget = self.replica_page_budget(
            graph.num_vertices, capacity, ratio
        )
        # λ is computed once per build and threaded through scoring.
        lambdas = None
        if budget > 0 and self.scoring == "connectivity":
            lambdas = edge_connectivities(graph, result.assignment)
        replica_pages = self.build_replica_pages(
            graph, result.assignment, capacity, budget, lambdas=lambdas
        )
        return layout_from_partition(result, replica_pages)

    # -- replica construction ------------------------------------------------

    def build_replica_pages(
        self,
        graph: Hypergraph,
        assignment: Sequence[int],
        capacity: int,
        budget: int,
        lambdas: "Sequence[int] | None" = None,
    ) -> List[Tuple[int, ...]]:
        """Steps 2–4: score, select bases, emit one replica page per base."""
        if budget <= 0:
            return []
        if self.scoring == "connectivity":
            scores = connectivity_scores(graph, assignment, lambdas=lambdas)
        else:
            scores = hotness_scores(graph)
        bases = top_scored_vertices(scores, budget)
        assignment_arr = np.asarray(assignment, dtype=PIN_DTYPE)
        pages: List[Tuple[int, ...]] = []
        seen = set()
        for base in bases:
            page = replica_page(
                graph, assignment_arr, capacity, base,
                self.exclude_home_cluster,
            )
            if len(page) < 2:
                # A lone base replicates nothing useful: a base-only page
                # cannot serve any *combination* a home page read wouldn't.
                continue
            canon = frozenset(page)
            if self.dedupe_pages and canon in seen:
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
    """One replica page: ``base`` + its d−1 most frequent co-neighbours.

    Step 4 for a single base.  The base's incident edges are gathered
    from the vertex-side CSR, neighbour counts aggregated with
    ``np.unique`` and ranked by one ``lexsort`` (count desc, neighbour
    asc).  ``assignment`` locates every vertex (cluster id, or home page
    for :class:`~repro.replication.IncrementalReplicator`); callers in a
    loop pass an int64 array so it is not converted per base.
    """
    assignment_arr = np.asarray(assignment, dtype=PIN_DTYPE)
    csr = graph.csr()
    edge_ids = csr.edges_of_vertex(base)
    if len(edge_ids) == 0:
        return (base,)
    neighbours, lengths = gather_rows(
        csr.edge_indptr, csr.pin_vertices, edge_ids
    )
    per_pin_weight = np.repeat(csr.weights[edge_ids], lengths)
    keep = neighbours != base
    if exclude_home_cluster:
        keep &= assignment_arr[neighbours] != assignment_arr[base]
    neighbours = neighbours[keep]
    if len(neighbours) == 0:
        return (base,)
    unique, inverse = np.unique(neighbours, return_inverse=True)
    counts = scatter_add_exact(inverse, per_pin_weight[keep], len(unique))
    ranked = np.lexsort((unique, -counts))  # count desc, neighbour asc
    companions = unique[ranked[: capacity - 1]]
    return tuple([int(base)] + [int(v) for v in companions])
