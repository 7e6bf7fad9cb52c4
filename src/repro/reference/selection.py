"""Set-algebra page selectors — the oracle for :mod:`repro.serving.selection`.

Readable python sets: each step intersects a candidate page's key set
with the still-uncovered keys.  The production one-pass selector must
match :class:`OnePassSelector` outcome for outcome (pages, order, covered
tuples, candidate counts, sort charge, errors).  An oracle takes raw
keys — it deduplicates and bounds-checks them itself — while production
is fed what its callers feed it, a query's distinct keys.

:class:`GreedySetCoverSelector` is the paper's §6 baseline, which
one-pass replaces in serving, and :func:`exact_cover` the minimum page
set; ``benchmarks/bench_selector.py`` compares the three.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Sequence,
    Set,
    Tuple,
)

from ..errors import ServingError
from ..placement import ForwardIndex, InvertIndex
from ..serving.selection import SelectionOutcome, SelectionStep


class _SetAlgebraSelector(ABC):
    """Template shared by the oracle selectors: the two indexes, and a
    ``select`` that is the subclass's ``_select_impl``."""

    def __init__(self, forward: ForwardIndex, invert: InvertIndex) -> None:
        self.forward = forward
        self.invert = invert

    def select(self, keys: Sequence[int]) -> SelectionOutcome:
        """Choose pages covering all ``keys`` (any keys: checked here)."""
        return self._select_impl(keys)

    @abstractmethod
    def _select_impl(self, keys: Sequence[int]) -> SelectionOutcome:
        """Selection body."""

    def _check_keys(self, keys: Sequence[int]) -> List[int]:
        distinct = list(dict.fromkeys(keys))
        for k in distinct:
            if not 0 <= k < self.forward.num_keys:
                raise ServingError(f"key {k} is not in the embedding table")
        return distinct


class GreedySetCoverSelector(_SetAlgebraSelector):
    """Classic greedy set cover over *all* candidate pages (paper §6 baseline).

    Each step scans every page that contains at least one still-uncovered
    queried key and picks the one covering the most.  Near-optimal
    (ln-approximation) but each step costs O(|S|) set intersections, which
    is why the paper measures selection at >56 % of end-to-end latency.

    The candidate set is maintained incrementally: each page carries a
    support count (how many still-uncovered keys list it in the forward
    index) and leaves the set when the count hits zero — the set's
    contents are identical to a from-scratch rebuild each step, without
    re-walking every remaining key's page list.
    """

    def _select_impl(self, keys: Sequence[int]) -> SelectionOutcome:
        remaining = set(self._check_keys(keys))
        pages_of = self.forward.pages_of
        key_set = self.invert.key_set
        support: Dict[int, int] = {}
        for key in remaining:
            for page in pages_of(key):
                support[page] = support.get(page, 0) + 1
        steps: List[SelectionStep] = []
        while remaining:
            num_candidates = len(support)
            best_page = -1
            best_cover: Set[int] = set()
            for page in sorted(support):
                cover = key_set(page) & remaining
                if len(cover) > len(best_cover):
                    best_page = page
                    best_cover = cover
            if best_page < 0:
                raise ServingError(
                    f"keys {sorted(remaining)[:5]} are on no page"
                )
            remaining -= best_cover
            for key in best_cover:
                for page in pages_of(key):
                    count = support[page] - 1
                    if count:
                        support[page] = count
                    else:
                        del support[page]
            steps.append(
                SelectionStep(
                    page_id=best_page,
                    covered=tuple(sorted(best_cover)),
                    candidates_examined=num_candidates,
                )
            )
        return SelectionOutcome.from_steps(steps, sorted_keys=0)


class OnePassSelector(_SetAlgebraSelector):
    """MaxEmbed's one-pass selection (paper §6.1).

    ❶ Sort the queried keys ascending by replica count, so keys with a
    single candidate page are placed first and highly replicated keys get
    to hitchhike on earlier reads.  ❷ For each key still uncovered, fetch
    its candidate pages from the (possibly shrunk) Forward Index, ❸ pick
    the candidate covering the most still-uncovered keys via the Invert
    Index, ❹ emit the read and drop the covered keys.

    Each key contributes at most ``k`` candidate examinations (``k`` =
    index limit), giving O(|S| + |Q|) set operations per query.  The sort
    key reads the memoized replica-count table, and covered keys are
    emitted by filtering the page's presorted key tuple against the cover
    set — ascending key order with no per-step ``sorted()`` call.
    """

    def _select_impl(self, keys: Sequence[int]) -> SelectionOutcome:
        distinct = self._check_keys(keys)
        counts = self.forward.replica_counts()
        span = self.forward.num_keys
        # counts[k] * span + k orders exactly like (counts[k], k) since
        # k < span, without allocating a tuple per key.
        ordered = sorted(distinct, key=lambda k: counts[k] * span + k)
        remaining = set(ordered)
        pages_of = self.forward.pages_of
        key_set = self.invert.key_set
        sorted_keys_of = self.invert.sorted_keys_of
        steps: List[SelectionStep] = []
        for key in ordered:
            if key not in remaining:
                continue  # hitchhiked on an earlier read — skip
            candidates = pages_of(key)
            best_page = candidates[0]
            best_cover = key_set(best_page) & remaining
            for page in candidates[1:]:
                cover = key_set(page) & remaining
                if len(cover) > len(best_cover):
                    best_page = page
                    best_cover = cover
            covered = tuple(
                k for k in sorted_keys_of(best_page) if k in best_cover
            )
            remaining -= best_cover
            steps.append(
                SelectionStep(
                    page_id=best_page,
                    covered=covered,
                    candidates_examined=len(candidates),
                )
            )
        if remaining:  # pragma: no cover - ForwardIndex guarantees coverage
            raise ServingError(f"uncovered keys {sorted(remaining)[:5]}")
        return SelectionOutcome.from_steps(steps, sorted_keys=len(distinct))


class ExactCover(NamedTuple):
    """What :func:`exact_cover` found for one query.

    Attributes:
        pages: the cover, page ids ascending.
        optimal: True if the search finished, so no smaller cover
            exists; False if it hit its node cap, and ``pages`` is only
            the smallest cover found by then.
    """

    pages: Tuple[int, ...]
    optimal: bool


class _NodeCapHit(Exception):
    """The branch and bound visited its node cap."""


def exact_cover(
    selector_or_maps, keys: Sequence[int], node_cap: int = 200_000
) -> ExactCover:
    """A minimum set of pages covering ``keys``: branch and bound.

    ``selector_or_maps`` is a selector (anything with ``forward`` and
    ``invert``) or a ``(forward, invert)`` pair.  A key's pages are
    those of the never-shrunk key → pages map — every page the invert
    index lists it on — so an index limit does not bind the optimum:
    every key is covered.

    Each search node branches on the pages of the uncovered key held
    by the fewest pages, largest gain first.  A node is cut when its
    page count plus ⌈uncovered / largest gain⌉ cannot beat the best
    cover found so far (greedy set cover's, to start).  After
    ``node_cap`` nodes the search stops and the best cover found is
    returned with ``optimal=False``.
    """
    if isinstance(selector_or_maps, tuple):
        forward, invert = selector_or_maps
    else:
        forward, invert = selector_or_maps.forward, selector_or_maps.invert
    wanted = set(keys)
    for key in keys:
        if not 0 <= key < forward.num_keys:
            raise ServingError(f"key {key} is not in the embedding table")
    holds: Dict[int, FrozenSet[int]] = {}
    pages_of: Dict[int, List[int]] = {key: [] for key in wanted}
    for page in range(invert.num_pages):
        cover = invert.key_set(page) & wanted
        if cover:
            holds[page] = cover
            for key in cover:
                pages_of[key].append(page)
    stranded = sorted(key for key, pages in pages_of.items() if not pages)
    if stranded:
        raise ServingError(f"keys {stranded[:5]} are on no page")

    best = []
    uncovered = set(wanted)
    while uncovered:
        page = max(holds, key=lambda p: (len(holds[p] & uncovered), -p))
        best.append(page)
        uncovered -= holds[page]
    nodes = 0

    def search(uncovered: FrozenSet[int], chosen: List[int]) -> None:
        nonlocal best, nodes
        if not uncovered:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        nodes += 1
        if nodes > node_cap:
            raise _NodeCapHit
        gains = {
            page: len(holds[page] & uncovered)
            for key in uncovered
            for page in pages_of[key]
        }
        bound = -(-len(uncovered) // max(gains.values()))
        if len(chosen) + bound >= len(best):
            return
        key = min(uncovered, key=lambda k: (len(pages_of[k]), k))
        for page in sorted(pages_of[key], key=lambda p: (-gains[p], p)):
            chosen.append(page)
            search(uncovered - holds[page], chosen)
            chosen.pop()

    try:
        search(frozenset(wanted), [])
    except _NodeCapHit:
        return ExactCover(tuple(sorted(best)), optimal=False)
    return ExactCover(tuple(sorted(best)), optimal=True)
