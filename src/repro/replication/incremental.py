"""Incremental replication: refresh a live layout without a full rebuild.

The offline phase is expensive (Table 1: hours at CriteoTB scale), but
drift erodes a placement continuously.  Between full rebuilds, a cheap
middle ground exists: keep the deployed layout, observe a *recent* window
of queries, and spend a small additional budget on replica pages that fix
the combinations the current placement is visibly breaking.

The mechanism reuses the paper's §5.3 machinery with one substitution:
instead of the partition assignment, vertices are located by their
**home page** in the deployed layout (for base pages these coincide), so
the same Σ(λ−1) scoring measures *observed* reads against the *current*
placement — including the effect of replica pages already deployed.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..errors import ConfigError
from ..hypergraph import Hypergraph, build_weighted_hypergraph
from ..hypergraph.csr import PIN_DTYPE
from ..placement import ForwardIndex, PageLayout, build_indexes
from ..serving.selection import OnePassSelector
from ..types import QueryTrace
from .connectivity import replica_page
from .scoring import top_scored_vertices


class IncrementalReplicator:
    """Append replica pages to an existing layout from a fresh window."""

    def __init__(self, exclude_home_cluster: bool = True) -> None:
        self.exclude_home_cluster = exclude_home_cluster

    def extend(
        self,
        layout: PageLayout,
        window: QueryTrace,
        extra_pages: int,
    ) -> PageLayout:
        """Return a new layout with up to ``extra_pages`` replica pages.

        Args:
            layout: the currently deployed placement.
            window: recent queries (the drifted traffic).
            extra_pages: additional replica-page budget.
        """
        if window.num_keys != layout.num_keys:
            raise ConfigError(
                f"window covers {window.num_keys} keys, layout holds "
                f"{layout.num_keys}"
            )
        if extra_pages < 0:
            raise ConfigError(
                f"extra_pages must be >= 0, got {extra_pages}"
            )
        if extra_pages == 0:
            return layout
        graph = build_weighted_hypergraph(window)
        scores = self._observed_scores(graph, layout)
        bases = top_scored_vertices(scores, extra_pages)
        home_of = self._home_assignment(layout)
        existing = {frozenset(p) for p in layout.pages()}
        new_pages: List[Tuple[int, ...]] = []
        for base in bases:
            page = replica_page(
                graph, home_of, layout.capacity, base,
                self.exclude_home_cluster,
            )
            if len(page) < 2:
                continue
            canon = frozenset(page)
            if canon in existing:
                continue
            existing.add(canon)
            new_pages.append(page)
            if len(new_pages) >= extra_pages:
                break
        if not new_pages:
            return layout
        return PageLayout(
            num_keys=layout.num_keys,
            capacity=layout.capacity,
            pages=layout.pages() + new_pages,
            num_base_pages=layout.num_base_pages,
        )

    # -- internals -------------------------------------------------------------

    @staticmethod
    def _home_assignment(layout: PageLayout) -> np.ndarray:
        """Pseudo-assignment: each key's home (first) page id."""
        forward = ForwardIndex.from_layout(layout)
        return np.array(
            [forward.home_page(k) for k in range(layout.num_keys)],
            dtype=PIN_DTYPE,
        )

    @staticmethod
    def _observed_scores(
        graph: Hypergraph, layout: PageLayout
    ) -> List[int]:
        """Σ over queries of weight · (reads − 1), attributed to keys.

        Unlike partition-based λ, this replays the *actual* one-pass
        selection against the deployed layout (replicas included), so a
        combination already served by an existing replica page scores 0.
        """
        forward, invert = build_indexes(layout)
        selector = OnePassSelector(forward, invert)
        scores = [0] * layout.num_keys
        for _, edge, weight in graph.edge_items():
            outcome = selector.select(edge)
            contribution = (outcome.num_steps - 1) * weight
            if contribution <= 0:
                continue
            for key in edge:
                scores[key] += contribution
        return scores
