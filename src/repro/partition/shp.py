"""Social Hash Partitioner (SHP) — recursive-bisection hypergraph partitioning.

Reimplements the fanout-minimizing partitioner of Kabiljo et al. ("Social
Hash Partitioner: A Scalable Distributed Hypergraph Partitioner", VLDB
2017), which Bandana and MaxEmbed both use for embedding placement.  Like
the original, it builds a k-way partition by **recursive bisection**: each
level splits a block of vertices into two balanced halves and runs an
iterative swap-based local search that minimizes the number of hyperedges
straddling the halves; recursion proceeds until every block fits one SSD
page.

Bisection refinement
--------------------
For the current block, every hyperedge is restricted to the block's
vertices (fragments of size < 2 carry no signal and are dropped).  With
sides ``A`` and ``B``, moving vertex ``v`` from ``A`` to ``B`` changes the
cut by::

    Δcut = Σ_{e ∋ v} w(e) · ( [count_e(B) == 0] − [count_e(A) == 1] )

so the *gain* of the move is ``−Δcut``.  Large blocks run bulk rounds:
each computes every vertex's social-hash *attraction* gain
``Σ w · (count_other − (count_own − 1))`` — which, unlike the exact cut
delta, stays non-zero while an edge is split deep on both sides, so
coarse levels make progress instead of stalling on a plateau — sorts
the would-be movers on both sides descending, and executes pairwise
swaps while the combined gain of the best remaining A→B / B→A pair is
positive, keeping both sides exactly their target sizes (the balance
discipline the distributed SHP enforces with matched probabilistic
exchanges).  Blocks of at most ``kl_threshold`` vertices — the last
levels, where SSD pages actually form — run Kernighan–Lin passes on the
exact gain instead: tentatively execute the best balance-preserving swap
from each side, even when negative, lock the moved vertices, then roll
back to the prefix with the highest cumulative gain.

Complexity is ``O(pins · iterations · log B)`` — the ``E log B`` of the
paper's §7.2 with the iteration count as the constant.

Array layout
------------
No step loops over the graph's pins in python:

* **Fragments as CSR slices** — each block carries its restricted edge
  fragments as ``(indptr, pins, weights)`` int64 arrays; one membership
  gather + ``reduceat`` restricts a block to both of its children.
* **Bulk refinement vectorized** — the attraction gains of one iteration
  are ``W + side·D`` where ``W`` is a per-vertex scatter-add of fragment
  weights and ``D`` a scatter-add of ``w·(count₁ − count₀)``; movers are
  ranked with one ``lexsort`` (gain desc, vertex desc) and the
  matched-swap prefix is a single count, because pair gains are
  non-increasing.

Scatter-adds route through :func:`np.bincount` with float64 weights when
the value bound fits 2⁵³ (always, in practice) and fall back to
``np.add.at`` on int64 otherwise, so sums are exact either way.

The KL kernel
-------------
Blocks of at most ``kl_threshold`` vertices leave numpy (one ``tolist``
per block) for a gain table in plain lists, built once per bisection
and shared by its restarts:

* **Merged fragments** — fragments that restriction has made identical
  become one fragment of their summed weight.  Gains and cuts are
  integer sums over fragments, so this is exact; at page-sized blocks it
  halves the fragments (criteo: 12 738 → 6 668, and 45 % of what is
  left are plain pairs).
* **Local ids are id ranks** — so the reference's "max gain, tie →
  lowest vertex id" is ``max`` over an ascending list of unlocked ids,
  which keeps the first of equals.
* **A case table instead of a formula** — moving ``v`` off its side of a
  fragment with ``(own, other)`` pins per side *before* the move
  changes the gain of its co-pins by::

      other == 0      every co-pin (all left behind)  +w, +2w if own == 2
      own == 1        every co-pin (all across)       −w, −2w if other == 1
      own == 2        the one co-pin left behind      +w
      other == 1      the one co-pin across           −w

  (rows three and four only when neither of the first two applies; both
  can fire, and with neither nobody's gain moves) and negates ``v``'s
  own gain — moving back undoes exactly what moving did.  Each vertex
  carries its ``(fragment, weight, co-pins)`` triples, so a move
  touches nothing it does not change.
* **The reference's quirk is kept** — ``b`` is chosen before ``a`` is
  locked, so the just-moved ``a`` competes for the return move and a
  pass may undo its own step at cumulative gain 0.

Randomness discipline and parallel subtrees
-------------------------------------------
Every bisection node derives a private generator from
``(seed, first_cluster_id, targets)`` rather than consuming one shared
sequential stream.  The pair (first cluster id of the subtree, remaining
cluster targets) is unique per node — nodes sharing a first cluster id
form an ancestor chain with strictly decreasing targets — so streams
never collide, and sibling subtrees become RNG-independent.  Sibling
blocks share nothing else either, so once the frontier holds enough
blocks the subtrees run in a ``ProcessPoolExecutor`` (the
``build_workers`` pattern of :mod:`repro.cluster.pipeline`), each worker
reproducing the depth-first cluster numbering from its precomputed base.
Results are independent of the worker count.

The per-pin python loops this replaces live on, unchanged, as
``repro.reference.ShpPartitioner`` — the oracle the differential suite
in ``tests/test_fast_partition.py`` holds this class to, bit for bit.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..errors import PartitionError
from ..hypergraph import Hypergraph
from ..hypergraph.csr import scatter_add_exact
from ..utils.rng import RngLike
from .base import PartitionResult, Partitioner

INDEX_DTYPE = np.int64

# Below these sizes process dispatch costs more than it saves.
PARALLEL_MIN_VERTICES = 512
PARALLEL_MIN_TARGETS = 4

FragArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]
"""Block fragments: (frag_indptr, frag_pins, frag_weights)."""

Incidence = List[List[Tuple[int, int, Tuple[int, ...]]]]
"""KL kernel, per block-local vertex: (fragment, weight, co-pins)."""


def _seed_entropy(seed: RngLike) -> int:
    """Collapse a seed of any accepted flavor into one entropy integer.

    Node generators are keyed by ``(entropy, cluster_lo, targets)``; a
    Generator seed is collapsed by drawing a single integer from it (one
    draw total, regardless of graph size), ``None`` draws from OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**63))
    if seed is None:
        return int(np.random.default_rng().integers(0, 2**63))
    return int(seed)


def _node_rng(entropy: int, cluster_lo: int, targets: int):
    """Private generator for the bisection node owning clusters
    ``[cluster_lo, cluster_lo + targets)``."""
    return np.random.default_rng((entropy, cluster_lo, targets))


@dataclass(frozen=True)
class ShpConfig:
    """Tuning knobs for :class:`ShpPartitioner`.

    Attributes:
        max_iterations: swap-refinement rounds per bisection level.
        min_swap_gain: a matched swap executes only while the combined
            gain of the pair exceeds this (0 accepts any improvement).
        kl_threshold: blocks of at most this many vertices are refined
            with the exact-gain Kernighan–Lin pass (with best-prefix
            rollback) instead of the bulk attraction swaps.  The last
            bisection levels — where SSD pages actually form — are small,
            so precision there is cheap and matters most.
        kl_passes: maximum KL passes per small bisection.
        kl_restarts: independent random initial splits tried per small
            bisection (the best resulting cut wins).
        seed: RNG seed for the initial random splits.  Each bisection
            node derives its own generator from
            ``(seed, first_cluster_id, targets)``, so results are
            reproducible per subtree (see module docstring); a Generator
            seed is collapsed to one drawn integer.
    """

    max_iterations: int = 20
    min_swap_gain: int = 0
    kl_threshold: int = 48
    kl_passes: int = 8
    kl_restarts: int = 2
    seed: RngLike = 0

    def __post_init__(self) -> None:
        if self.max_iterations < 0:
            raise PartitionError(
                f"max_iterations must be >= 0, got {self.max_iterations}"
            )
        if self.kl_threshold < 0:
            raise PartitionError(
                f"kl_threshold must be >= 0, got {self.kl_threshold}"
            )
        if self.kl_passes < 0:
            raise PartitionError(
                f"kl_passes must be >= 0, got {self.kl_passes}"
            )
        if self.kl_restarts < 1:
            raise PartitionError(
                f"kl_restarts must be >= 1, got {self.kl_restarts}"
            )


def _left_size(n: int, left_targets: int, right_targets: int) -> int:
    """Vertices assigned to the left half, proportional to its targets."""
    total = left_targets + right_targets
    size = round(n * left_targets / total)
    return max(min(size, n - 1), 1) if n > 1 else n


class ShpPartitioner(Partitioner):
    """Recursive-bisection SHP minimizing weighted hyperedge fanout.

    Args:
        config: tuning knobs (:class:`ShpConfig`).
        workers: subtree worker processes (``0``/``1`` = serial,
            ``None`` = one per CPU).  The partition is identical for
            every worker count.
    """

    def __init__(
        self,
        config: "ShpConfig | None" = None,
        workers: "int | None" = 1,
    ) -> None:
        self.config = config or ShpConfig()
        self.workers = workers
        self._local: "np.ndarray | None" = None  # vertex -> block-local id
        self._mask: "np.ndarray | None" = None  # vertex membership scratch

    # -- public API ----------------------------------------------------------

    def partition(
        self,
        graph: Hypergraph,
        capacity: int,
        num_clusters: "int | None" = None,
    ) -> PartitionResult:
        clusters = self.resolve_num_clusters(graph, capacity, num_clusters)
        entropy = _seed_entropy(self.config.seed)
        self._prepare_scratch(graph.num_vertices)
        frags = _top_fragments(graph)
        vertices = list(range(graph.num_vertices))
        assignment = np.zeros(graph.num_vertices, dtype=INDEX_DTYPE)

        def emit(block: List[int], cluster: int) -> None:
            assignment[np.asarray(block, dtype=INDEX_DTYPE)] = cluster

        effective = self._resolve_workers()
        total: "int | None" = None
        if (
            effective > 1
            and clusters >= PARALLEL_MIN_TARGETS
            and graph.num_vertices >= PARALLEL_MIN_VERTICES
        ):
            total = self._partition_parallel(
                vertices, frags, clusters, entropy, effective,
                graph.num_vertices, assignment,
            )
        if total is None:
            counter = [0]
            self._recurse(vertices, frags, clusters, counter, entropy, emit)
            total = counter[0]
        return PartitionResult(assignment.tolist(), total, capacity)

    # -- worker plumbing -----------------------------------------------------

    def _resolve_workers(self) -> int:
        """Effective process count: 0/1 = serial, None = one per CPU."""
        if self.workers is None:
            return os.cpu_count() or 1
        return max(1, self.workers)

    def _partition_parallel(
        self,
        vertices: List[int],
        frags: FragArrays,
        clusters: int,
        entropy: int,
        effective: int,
        num_vertices: int,
        assignment: np.ndarray,
    ) -> "int | None":
        """Expand a frontier of blocks, then partition subtrees in a pool.

        Returns the cluster count, or None if the pool was unavailable
        and the caller should run the serial path instead (the result is
        identical either way).
        """
        frontier = self._expand_frontier(vertices, frags, clusters, entropy)
        if len(frontier) <= 1:
            return None
        jobs = [
            (
                self.config,
                entropy,
                num_vertices,
                np.asarray(block, dtype=INDEX_DTYPE),
                frag_arrays,
                targets,
                base,
            )
            for block, frag_arrays, targets, base in frontier
        ]
        try:
            with ProcessPoolExecutor(
                max_workers=min(effective, len(jobs))
            ) as pool:
                results = list(pool.map(_partition_subtree, jobs))
        except (OSError, ValueError, RuntimeError, pickle.PicklingError):
            return None  # pool unavailable — caller falls back to serial
        total = 0
        for (block, _, targets, base), (verts, cids, leaves) in zip(
            frontier, results
        ):
            assignment[verts] = cids
            total = max(total, base + leaves)
        return total

    def _expand_frontier(
        self,
        vertices: List[int],
        frags: FragArrays,
        clusters: int,
        entropy: int,
    ) -> List[Tuple[List[int], FragArrays, int, int]]:
        """Bisect largest blocks in-process until one exists per worker.

        Each frontier entry is ``(block, fragments, targets, cluster
        base)``; bases are exact because the bisection tree's shape —
        and hence each subtree's leaf count — depends only on block
        sizes and targets.
        """
        effective = self._resolve_workers()
        frontier = [(vertices, frags, clusters, 0)]
        while len(frontier) < effective:
            pick = -1
            for index, (block, _, targets, _) in enumerate(frontier):
                if targets <= 1 or len(block) <= 1:
                    continue
                if pick < 0 or len(block) > len(frontier[pick][0]):
                    pick = index
            if pick < 0:
                break
            block, block_frags, targets, base = frontier.pop(pick)
            rng = _node_rng(entropy, base, targets)
            left_targets = targets // 2
            right_targets = targets - left_targets
            left_size = _left_size(
                len(block), left_targets, right_targets
            )
            left, right = self._bisect(
                block, left_size, block_frags, rng
            )
            left_frags, right_frags = self._split_fragments(
                block_frags, left, right, left_targets, right_targets
            )
            right_base = base + self._subtree_leaf_count(
                len(left), left_targets
            )
            frontier.append((left, left_frags, left_targets, base))
            frontier.append((right, right_frags, right_targets, right_base))
        return frontier

    def _subtree_leaf_count(self, block_size: int, targets: int) -> int:
        """Clusters a (block_size, targets) subtree will emit."""
        if targets <= 1 or block_size <= 1:
            return 1
        left_targets = targets // 2
        right_targets = targets - left_targets
        left_size = _left_size(block_size, left_targets, right_targets)
        return self._subtree_leaf_count(
            left_size, left_targets
        ) + self._subtree_leaf_count(block_size - left_size, right_targets)

    # -- recursion -----------------------------------------------------------

    def _prepare_scratch(self, num_vertices: int) -> None:
        if self._local is None or len(self._local) < num_vertices:
            self._local = np.empty(num_vertices, dtype=INDEX_DTYPE)
            self._mask = np.zeros(num_vertices, dtype=bool)

    def _recurse(
        self,
        block: List[int],
        frags: FragArrays,
        targets: int,
        counter: List[int],
        entropy: int,
        emit: Callable[[List[int], int], None],
    ) -> None:
        if targets <= 1 or len(block) <= 1:
            emit(block, counter[0])
            counter[0] += 1
            return
        rng = _node_rng(entropy, counter[0], targets)
        left_targets = targets // 2
        right_targets = targets - left_targets
        left_size = _left_size(len(block), left_targets, right_targets)
        left, right = self._bisect(block, left_size, frags, rng)
        left_frags, right_frags = self._split_fragments(
            frags, left, right, left_targets, right_targets
        )
        self._recurse(left, left_frags, left_targets, counter, entropy, emit)
        self._recurse(
            right, right_frags, right_targets, counter, entropy, emit
        )

    def _split_fragments(
        self,
        frags: FragArrays,
        left: List[int],
        right: List[int],
        left_targets: int,
        right_targets: int,
    ) -> Tuple[FragArrays, FragArrays]:
        """Both children's fragments (size >= 2 only) from one
        membership pass over the block's pins."""
        frag_indptr, frag_pins, frag_w = frags
        # Leaves never look at their fragments; skip the restriction.
        want_left = left_targets > 1 and len(left) > 1
        want_right = right_targets > 1 and len(right) > 1
        if len(frag_w) == 0 or not (want_left or want_right):
            return _EMPTY_FRAGS, _EMPTY_FRAGS
        mask = self._mask
        right_arr = np.asarray(right, dtype=INDEX_DTYPE)
        mask[right_arr] = True
        on_right = mask[frag_pins]
        mask[right_arr] = False
        sizes = np.diff(frag_indptr)
        kept_right = np.add.reduceat(
            on_right.astype(INDEX_DTYPE), frag_indptr[:-1]
        )

        def child(pin_in: np.ndarray, kept: np.ndarray) -> FragArrays:
            keep_frag = kept >= 2
            if not keep_frag.any():
                return _EMPTY_FRAGS
            new_pins = frag_pins[pin_in & np.repeat(keep_frag, sizes)]
            new_indptr = np.zeros(
                np.count_nonzero(keep_frag) + 1, dtype=INDEX_DTYPE
            )
            np.cumsum(kept[keep_frag], out=new_indptr[1:])
            return new_indptr, new_pins, frag_w[keep_frag]

        return (
            child(~on_right, sizes - kept_right)
            if want_left
            else _EMPTY_FRAGS,
            child(on_right, kept_right) if want_right else _EMPTY_FRAGS,
        )

    # -- bisection -----------------------------------------------------------

    @staticmethod
    def _initial_split(
        block: List[int], left_size: int, rng
    ) -> Tuple[List[int], List[int]]:
        order = list(block)
        rng.shuffle(order)
        return order[:left_size], order[left_size:]

    def _bisect(
        self,
        block: List[int],
        left_size: int,
        frags: FragArrays,
        rng,
    ) -> Tuple[List[int], List[int]]:
        frag_indptr, frag_pins, frag_w = frags
        has_frags = len(frag_w) > 0
        if len(block) <= self.config.kl_threshold and has_frags:
            return self._bisect_small(block, left_size, frags, rng)
        left, right = self._initial_split(block, left_size, rng)
        if has_frags:
            left, right = self._refine_bulk(left, right, frags)
        return left, right

    # -- bulk refinement (large blocks) --------------------------------------

    def _refine_bulk(
        self, left: List[int], right: List[int], frags: FragArrays
    ) -> Tuple[List[int], List[int]]:
        """Vectorized attraction-gain swaps; order-parity with the
        reference's dict-based pass."""
        frag_indptr, frag_pins, frag_w = frags
        n = len(left) + len(right)
        order_arr = np.asarray(left + right, dtype=INDEX_DTYPE)
        local = self._local
        local[order_arr] = np.arange(n, dtype=INDEX_DTYPE)
        pins_local = local[frag_pins]
        sizes = np.diff(frag_indptr)
        starts = frag_indptr[:-1]
        pin_frag = np.repeat(
            np.arange(len(frag_w), dtype=INDEX_DTYPE), sizes
        )
        side = np.zeros(n, dtype=INDEX_DTYPE)
        side[len(left):] = 1
        # Per-vertex total fragment weight; constant across iterations.
        weight_pull = scatter_add_exact(pins_local, frag_w[pin_frag], n)
        min_swap_gain = self.config.min_swap_gain
        for _ in range(self.config.max_iterations):
            count_right = np.add.reduceat(side[pins_local], starts)
            # w·(count_other − count_own) summed over a vertex's fragments.
            imbalance = frag_w * (2 * count_right - sizes)
            drift = scatter_add_exact(pins_local, imbalance[pin_frag], n)
            gain = weight_pull + np.where(side == 0, drift, -drift)
            positive = gain > 0
            movers_l = np.nonzero(positive & (side == 0))[0]
            movers_r = np.nonzero(positive & (side == 1))[0]
            if len(movers_l) == 0 or len(movers_r) == 0:
                break
            movers_l = _rank_movers(movers_l, gain, order_arr)
            movers_r = _rank_movers(movers_r, gain, order_arr)
            pairs = min(len(movers_l), len(movers_r))
            combined = gain[movers_l[:pairs]] + gain[movers_r[:pairs]]
            # Both sides are gain-descending, so pair gains never
            # increase: the swap prefix is just a count.
            swaps = int(np.count_nonzero(combined > min_swap_gain))
            if swaps == 0:
                break
            side[movers_l[:swaps]] = 1
            side[movers_r[:swaps]] = 0
        return (
            order_arr[side == 0].tolist(),
            order_arr[side == 1].tolist(),
        )

    # -- KL refinement (small blocks) ----------------------------------------

    def _bisect_small(
        self,
        block: List[int],
        left_size: int,
        frags: FragArrays,
        rng,
    ) -> Tuple[List[int], List[int]]:
        """Restarted KL on the block's merged fragments.

        Reproduces the reference's restart loop, move choices, rollback
        and output ordering exactly.  Local ids are ranks in ascending
        global id, so "tie -> lowest vertex id" is "tie -> lowest local
        id"; everything the restarts share is built here, once.
        """
        frag_indptr, frag_pins, frag_w = frags
        n = len(block)
        ranked = sorted(block)
        local = self._local
        local[np.asarray(ranked, dtype=INDEX_DTYPE)] = np.arange(
            n, dtype=INDEX_DTYPE
        )
        pins = local[frag_pins].tolist()
        bounds = frag_indptr.tolist()
        # Fragments that restriction made identical act as one fragment
        # of their summed weight (gains and cuts are integer sums).
        merged: Dict[Tuple[int, ...], int] = {}
        for lo, hi, w in zip(bounds, bounds[1:], frag_w.tolist()):
            key = tuple(pins[lo:hi])
            merged[key] = merged.get(key, 0) + w
        frag_local = list(merged)
        weights = list(merged.values())
        incident: Incidence = [[] for _ in range(n)]
        for f, verts in enumerate(frag_local):
            w = weights[f]
            for at, i in enumerate(verts):
                incident[i].append((f, w, verts[:at] + verts[at + 1 :]))
        rank = dict(zip(ranked, range(n)))

        best: "Tuple[int, List[int], List[int]] | None" = None
        for _ in range(self.config.kl_restarts):
            left, right = self._initial_split(block, left_size, rng)
            cut = self._refine_kl(
                left, right, rank, frag_local, weights, incident
            )
            if best is None or cut < best[0]:
                best = (cut, left, right)
            if best[0] == 0:
                break
        return best[1], best[2]

    def _refine_kl(
        self,
        left: List[int],
        right: List[int],
        rank: Dict[int, int],
        frag_local: List[Tuple[int, ...]],
        weights: List[int],
        incident: Incidence,
    ) -> int:
        """One KL refinement (in place); returns the resulting cut."""
        n = len(left) + len(right)
        side = [0] * n
        for v in right:
            side[rank[v]] = 1
        count_left = [0] * len(frag_local)
        count_right = [0] * len(frag_local)
        gain = [0] * n
        for f, verts in enumerate(frag_local):
            on_right = 0
            for i in verts:
                on_right += side[i]
            on_left = len(verts) - on_right
            count_left[f] = on_left
            count_right[f] = on_right
            w = weights[f]
            if on_left == 0 or on_right == 0:
                for i in verts:
                    gain[i] -= w
            else:
                if on_left == 1:
                    for i in verts:
                        if side[i] == 0:
                            gain[i] += w
                            break
                if on_right == 1:
                    for i in verts:
                        if side[i] == 1:
                            gain[i] += w
                            break
        counts = (count_left, count_right)  # counts[side][fragment]

        def move(i: int, side=side, gain=gain, incident=incident) -> None:
            # Hot path: the default args bind the closure lists as
            # locals (LOAD_FAST instead of LOAD_DEREF per access).
            here = side[i]
            own = counts[here]
            other = counts[1 - here]
            for f, w, others in incident[i]:
                c_own = own[f]
                c_other = other[f]
                own[f] = c_own - 1
                other[f] = c_other + 1
                if c_other == 0:
                    # Uncut -> cut: every other pin stays behind.
                    if c_own == 2:
                        w += w
                    for j in others:
                        gain[j] += w
                elif c_own == 1:
                    # Cut -> uncut: every other pin is on the far side.
                    if c_other == 1:
                        w += w
                    for j in others:
                        gain[j] -= w
                else:
                    if c_own == 2:
                        for j in others:
                            if side[j] == here:
                                gain[j] += w
                                break
                    if c_other == 1:
                        for j in others:
                            if side[j] != here:
                                gain[j] -= w
                                break
            gain[i] = -gain[i]
            side[i] = 1 - here

        gain_of = gain.__getitem__
        pair_budget = min(len(left), len(right))
        for _ in range(self.config.kl_passes):
            # Unlocked vertices per side in ascending id: ``max`` keeps
            # the first of equal gains, the reference's tie-break.  Both
            # lists outlast the pair budget, so neither runs empty.
            free_left = [i for i in range(n) if side[i] == 0]
            free_right = [i for i in range(n) if side[i] == 1]
            cumulative = 0
            best_total = 0
            # Rolling back by replaying moves in reverse lands exactly on
            # the best-prefix state (every update is an exact integer
            # delta), so snapshotting that state and restoring it at the
            # end of the pass is equivalent — and skips the replay moves.
            snap = (
                side.copy(),
                gain.copy(),
                count_left.copy(),
                count_right.copy(),
            )
            for _ in range(pair_budget):
                a = max(free_left, key=gain_of)
                free_left.remove(a)
                gain_a = gain[a]
                move(a)
                # The reference locks `a` only after choosing `b`, so the
                # just-moved `a` competes for `b` (and moves straight back).
                b = max(free_right, key=gain_of)
                gain_b = gain[b]
                if -gain_a > gain_b or (-gain_a == gain_b and a < b):
                    b, gain_b = a, -gain_a
                else:
                    free_right.remove(b)
                move(b)
                cumulative += gain_a + gain_b
                if cumulative > best_total:
                    best_total = cumulative
                    snap = (
                        side.copy(),
                        gain.copy(),
                        count_left.copy(),
                        count_right.copy(),
                    )
            # In-place restore: move holds references.
            side[:], gain[:], count_left[:], count_right[:] = snap
            if best_total <= 0:
                break

        order = left + right
        left[:] = [v for v in order if side[rank[v]] == 0]
        right[:] = [v for v in order if side[rank[v]] == 1]
        return sum(
            w
            for w, on_left, on_right in zip(weights, count_left, count_right)
            if on_left and on_right
        )


_EMPTY_FRAGS: FragArrays = (
    np.zeros(1, dtype=INDEX_DTYPE),
    np.empty(0, dtype=INDEX_DTYPE),
    np.empty(0, dtype=INDEX_DTYPE),
)


def _top_fragments(graph: Hypergraph) -> FragArrays:
    """Top-level fragments: every edge with at least two pins."""
    csr = graph.csr()
    sizes = csr.edge_sizes()
    keep = sizes >= 2
    if not keep.any():
        return _EMPTY_FRAGS
    pins = csr.pin_vertices[np.repeat(keep, sizes)]
    new_sizes = sizes[keep]
    indptr = np.zeros(len(new_sizes) + 1, dtype=INDEX_DTYPE)
    np.cumsum(new_sizes, out=indptr[1:])
    return indptr, pins, csr.weights[keep]


def _rank_movers(
    movers: np.ndarray, gain: np.ndarray, order_arr: np.ndarray
) -> np.ndarray:
    """Sort movers like the reference's ``(gain, vertex) reverse=True``."""
    return movers[np.lexsort((-order_arr[movers], -gain[movers]))]


def _partition_subtree(job) -> Tuple[np.ndarray, np.ndarray, int]:
    """Partition one frontier subtree (top-level so pools can pickle it).

    Returns ``(vertices, cluster_ids, leaf_count)``; cluster ids are
    absolute (the subtree's precomputed base plus its DFS counter).
    """
    config, entropy, num_vertices, block_arr, frags, targets, base = job
    partitioner = ShpPartitioner(config, workers=1)
    partitioner._prepare_scratch(num_vertices)
    verts: List[np.ndarray] = []
    cids: List[np.ndarray] = []

    def emit(block: List[int], cluster: int) -> None:
        chunk = np.asarray(block, dtype=INDEX_DTYPE)
        verts.append(chunk)
        cids.append(np.full(len(chunk), cluster, dtype=INDEX_DTYPE))

    counter = [base]
    partitioner._recurse(
        block_arr.tolist(), frags, targets, counter, entropy, emit
    )
    return (
        np.concatenate(verts),
        np.concatenate(cids),
        counter[0] - base,
    )
