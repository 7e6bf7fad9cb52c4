"""Per-pin python-loop SHP — the oracle for :mod:`repro.partition.shp`.

The same recursive bisection (see that module's docstring for the
algorithm), written as dict and list loops over every pin: fragments are
per-edge list comprehensions, bulk gains are summed edge by edge, and KL
rescans ``exact_gain`` per candidate.  It shares the configuration, the
per-node RNG discipline and the block geometry with the production
partitioner — and nothing else — so ``repro.partition.ShpPartitioner``
must reproduce its ``PartitionResult`` bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..hypergraph import Hypergraph
from ..partition.base import PartitionResult, Partitioner
from ..partition.shp import ShpConfig, _left_size, _node_rng, _seed_entropy


class ShpPartitioner(Partitioner):
    """Recursive-bisection SHP minimizing weighted hyperedge fanout."""

    def __init__(self, config: "ShpConfig | None" = None) -> None:
        self.config = config or ShpConfig()

    # -- public API ----------------------------------------------------------

    def partition(
        self,
        graph: Hypergraph,
        capacity: int,
        num_clusters: "int | None" = None,
    ) -> PartitionResult:
        clusters = self.resolve_num_clusters(graph, capacity, num_clusters)
        entropy = _seed_entropy(self.config.seed)
        vertices = list(range(graph.num_vertices))
        # Edges as lists once; fragments are recomputed per block.
        edges = [list(edge) for edge in graph.edges()]
        weights = [graph.weight(e) for e in range(graph.num_edges)]
        assignment = [0] * graph.num_vertices
        next_cluster = [0]  # boxed counter shared across recursion

        def assign_block(block: List[int]) -> None:
            cluster = next_cluster[0]
            next_cluster[0] += 1
            for v in block:
                assignment[v] = cluster

        def recurse(
            block: List[int],
            block_edges: List[Tuple[List[int], int]],
            targets: int,
        ) -> None:
            if targets <= 1 or len(block) <= 1:
                assign_block(block)
                return
            # At node entry the shared counter equals the first cluster id
            # this subtree will emit — the node's identity for seeding.
            rng = _node_rng(entropy, next_cluster[0], targets)
            left_targets = targets // 2
            right_targets = targets - left_targets
            left_size = _left_size(
                len(block), left_targets, right_targets
            )
            left, right = self._bisect(
                block, left_size, block_edges, weights, rng
            )
            left_edges = self._restrict(block_edges, set(left))
            right_edges = self._restrict(block_edges, set(right))
            recurse(left, left_edges, left_targets)
            recurse(right, right_edges, right_targets)

        top_edges = [
            (edges[e], e) for e in range(graph.num_edges) if len(edges[e]) > 1
        ]
        recurse(vertices, top_edges, clusters)
        return PartitionResult(assignment, next_cluster[0], capacity)

    # -- block geometry ---------------------------------------------------------

    @staticmethod
    def _initial_split(
        block: List[int], left_size: int, rng
    ) -> Tuple[List[int], List[int]]:
        order = list(block)
        rng.shuffle(order)
        return order[:left_size], order[left_size:]

    @staticmethod
    def _restrict(
        block_edges: List[Tuple[List[int], int]], members: set
    ) -> List[Tuple[List[int], int]]:
        """Edge fragments within ``members`` (size >= 2 only)."""
        fragments = []
        for vertices, eid in block_edges:
            frag = [v for v in vertices if v in members]
            if len(frag) > 1:
                fragments.append((frag, eid))
        return fragments

    # -- bisection refinement ------------------------------------------------------

    def _bisect(
        self,
        block: List[int],
        left_size: int,
        block_edges: List[Tuple[List[int], int]],
        weights: Sequence[int],
        rng,
    ) -> Tuple[List[int], List[int]]:
        """Split ``block`` into refined halves of sizes (left_size, rest)."""
        if len(block) <= self.config.kl_threshold and block_edges:
            best: "Tuple[int, List[int], List[int]] | None" = None
            for _ in range(self.config.kl_restarts):
                left, right = self._initial_split(block, left_size, rng)
                self._refine(left, right, block_edges, weights)
                cut = self._cut_value(left, block_edges, weights)
                if best is None or cut < best[0]:
                    best = (cut, left, right)
                if best[0] == 0:
                    break
            return best[1], best[2]
        left, right = self._initial_split(block, left_size, rng)
        self._refine(left, right, block_edges, weights)
        return left, right

    @staticmethod
    def _cut_value(
        left: List[int],
        block_edges: List[Tuple[List[int], int]],
        weights: Sequence[int],
    ) -> int:
        """Weighted count of edges straddling the bisection."""
        members = set(left)
        cut = 0
        for vertices, eid in block_edges:
            inside = sum(1 for v in vertices if v in members)
            if 0 < inside < len(vertices):
                cut += weights[eid]
        return cut

    def _refine(
        self,
        left: List[int],
        right: List[int],
        block_edges: List[Tuple[List[int], int]],
        weights: Sequence[int],
    ) -> None:
        """Refine one bisection in place: KL for small blocks, bulk otherwise."""
        if not block_edges or not left or not right:
            return
        if len(left) + len(right) <= self.config.kl_threshold:
            self._refine_kl(left, right, block_edges, weights)
        else:
            self._refine_bulk(left, right, block_edges, weights)

    def _refine_bulk(
        self,
        left: List[int],
        right: List[int],
        block_edges: List[Tuple[List[int], int]],
        weights: Sequence[int],
    ) -> None:
        """Attraction-gain bulk swaps (cheap, for large blocks)."""
        side: Dict[int, int] = {}
        for v in left:
            side[v] = 0
        for v in right:
            side[v] = 1
        # Per-edge count of vertices on each side.
        edge_sides: List[List[int]] = []
        incident: Dict[int, List[int]] = {}
        for index, (vertices, eid) in enumerate(block_edges):
            counts = [0, 0]
            for v in vertices:
                counts[side[v]] += 1
                incident.setdefault(v, []).append(index)
            edge_sides.append(counts)

        for _ in range(self.config.max_iterations):
            movers: Tuple[List, List] = ([], [])
            for v, edge_ids in incident.items():
                own = side[v]
                other = 1 - own
                gain = 0
                for index in edge_ids:
                    counts = edge_sides[index]
                    w = weights[block_edges[index][1]]
                    # Social-hash attraction gain: pull a vertex toward the
                    # side holding more of its co-edge members.  Unlike the
                    # exact cut delta, this stays non-zero while an edge is
                    # split deep on both sides, so coarse levels make
                    # progress instead of stalling on a plateau; at
                    # convergence (count_own == 1 vs count_other large) it
                    # agrees with the exact fanout gain.
                    gain += w * (counts[other] - (counts[own] - 1))
                if gain > 0:
                    movers[own].append((gain, v))
            if not movers[0] or not movers[1]:
                break
            movers[0].sort(reverse=True)
            movers[1].sort(reverse=True)
            swapped = 0
            for (gain_l, v_l), (gain_r, v_r) in zip(movers[0], movers[1]):
                if gain_l + gain_r <= self.config.min_swap_gain:
                    break
                self._swap_sides(
                    v_l, v_r, side, incident, edge_sides
                )
                swapped += 1
            if swapped == 0:
                break

        left[:] = [v for v in side if side[v] == 0]
        right[:] = [v for v in side if side[v] == 1]

    def _refine_kl(
        self,
        left: List[int],
        right: List[int],
        block_edges: List[Tuple[List[int], int]],
        weights: Sequence[int],
    ) -> None:
        """Kernighan–Lin bisection refinement with exact cut gains.

        Each pass tentatively executes a sequence of balance-preserving
        swaps — always the best *exact-gain* move from each side, even when
        negative — locking moved vertices, then rolls back to the prefix
        with the highest cumulative gain.  Tentative negative moves are
        what lets KL escape the local minima that greedy pairwise swapping
        (the bulk path) cannot.
        """
        side: Dict[int, int] = {}
        for v in left:
            side[v] = 0
        for v in right:
            side[v] = 1
        edge_sides: List[List[int]] = []
        incident: Dict[int, List[int]] = {v: [] for v in side}
        for index, (vertices, _) in enumerate(block_edges):
            counts = [0, 0]
            for v in vertices:
                counts[side[v]] += 1
                incident[v].append(index)
            edge_sides.append(counts)

        def exact_gain(v: int) -> int:
            own = side[v]
            other = 1 - own
            gain = 0
            for index in incident[v]:
                counts = edge_sides[index]
                w = weights[block_edges[index][1]]
                if counts[own] == 1:
                    gain += w
                if counts[other] == 0:
                    gain -= w
            return gain

        def move(v: int) -> None:
            own = side[v]
            other = 1 - own
            side[v] = other
            for index in incident[v]:
                edge_sides[index][own] -= 1
                edge_sides[index][other] += 1

        def best_unlocked(wanted_side: int, locked: set) -> "int | None":
            best_v = None
            best_g = None
            for v in side:
                if v in locked or side[v] != wanted_side:
                    continue
                g = exact_gain(v)
                if best_g is None or g > best_g or (g == best_g and v < best_v):
                    best_v, best_g = v, g
            return best_v

        pair_budget = min(len(left), len(right))
        for _ in range(self.config.kl_passes):
            locked: set = set()
            moves: List[Tuple[int, int]] = []
            cumulative = 0
            best_total = 0
            best_length = 0
            for _ in range(pair_budget):
                a = best_unlocked(0, locked)
                if a is None:
                    break
                gain_a = exact_gain(a)
                move(a)
                b = best_unlocked(1, locked)
                if b is None:
                    move(a)  # undo: no counterpart to restore balance
                    break
                gain_b = exact_gain(b)
                move(b)
                locked.add(a)
                locked.add(b)
                cumulative += gain_a + gain_b
                moves.append((a, b))
                if cumulative > best_total:
                    best_total = cumulative
                    best_length = len(moves)
            # Roll back everything after the best prefix.
            for a, b in reversed(moves[best_length:]):
                move(b)
                move(a)
            if best_total <= 0:
                break

        left[:] = [v for v in side if side[v] == 0]
        right[:] = [v for v in side if side[v] == 1]

    @staticmethod
    def _swap_sides(
        v_left: int,
        v_right: int,
        side: Dict[int, int],
        incident: Dict[int, List[int]],
        edge_sides: List[List[int]],
    ) -> None:
        for v in (v_left, v_right):
            own = side[v]
            other = 1 - own
            side[v] = other
            for index in incident[v]:
                counts = edge_sides[index]
                counts[own] -= 1
                counts[other] += 1
