"""Set-algebra page selectors — the oracle for :mod:`repro.serving.selection`.

Readable python sets: each step intersects a candidate page's key set
with the still-uncovered keys.  The production page-mask selectors must
match these outcome for outcome (pages, order, covered tuples, candidate
counts, sort charge, tier hits, errors).
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import replace
from typing import Dict, List, Sequence, Set

from ..errors import ServingError
from ..serving.selection import SelectionOutcome, SelectionStep, Selector


class _SetAlgebraSelector(Selector):
    """Template shared by the oracle selectors.

    ``select`` is a template method: with no tier attached it delegates
    straight to the subclass ``_select_impl``; with a
    :class:`~repro.tiering.PinnedTier` attached it first splits the
    query into tier-1 hits and SSD residue, runs selection on the
    residue only, and reports the hit count on the outcome.
    """

    def select(self, keys: Sequence[int]) -> SelectionOutcome:
        """Choose pages covering all ``keys`` (distinct, SSD-resident)."""
        tier = self.tier
        if tier is None:
            return self._select_impl(keys)
        distinct = self._check_keys(keys)
        hits, residue = tier.split(distinct)
        outcome = self._select_impl(residue)
        if hits:
            outcome = replace(outcome, tier_hits=len(hits))
        return outcome

    @abstractmethod
    def _select_impl(self, keys: Sequence[int]) -> SelectionOutcome:
        """Selection body; ``keys`` are tier-residue when a tier is set."""

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
        return SelectionOutcome(tuple(steps), sorted_keys=0)


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
        return SelectionOutcome(tuple(steps), sorted_keys=len(distinct))
