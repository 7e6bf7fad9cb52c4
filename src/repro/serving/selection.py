"""Page selection algorithms (paper §6 / §6.1).

A selector answers: *given the distinct keys of one query, which SSD pages
do we read, in what order?*  Besides the page list, selectors report how
many candidate pages each step examined — the quantity the CPU cost model
charges for, and the thing MaxEmbed's one-pass algorithm bounds.

The paper measures selection at >56 % of end-to-end latency (Fig. 15),
so both selectors run on one kernel that works from the *query* side: a
page holds 16 slots but a query wants little more than one of them, so
walking page contents is mostly misses.

Per query: dedupe and bounds-check once, give the *i*-th key bit *i*,
and walk each key's pages in the never-shrunk key→pages map (the
transpose of the invert index) to fill a ``page → int mask`` dict of
the query keys each page holds — O(Σ fan-out) dict updates.  The cover
loop is then plain ints: ``rem`` is the mask of still-uncovered keys,
a candidate's gain is ``(mask & rem).bit_count()``, covering is one
XOR.  The one-pass selector assigns bits in *process* order (ascending
replica count, then key, from a per-selector precomputed rank), so
``rem & -rem`` is exactly the key the next step starts from.  Python
ints are unbounded, so a 300-key gateway union takes the same path as a
6-key cluster fragment.

Candidates are examined in (shrunk) forward-index order with a
first-strict-max tie break, covers are counted through the never-shrunk
map, and covered keys are emitted ascending — outcome for outcome what
the set-algebra oracle in :mod:`repro.reference` produces, which the
differential suites enforce.  The selectors keep no per-query state, so
one instance may serve concurrent threads.  :class:`MaskSelectionOutcome`
serves the executors' flat accessors from the loop's lists and builds
:class:`SelectionStep` tuples only if ``.steps`` is read.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ServingError
from ..placement import ForwardIndex, InvertIndex
from ..types import distinct_keys

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..tiering import PinnedTier


@dataclass(frozen=True)
class SelectionStep:
    """One chosen page read.

    Attributes:
        page_id: the page to read.
        covered: queried keys this read serves that no earlier read did.
        candidates_examined: candidate pages evaluated to make this choice
            (drives the selection CPU cost).
    """

    page_id: int
    covered: Tuple[int, ...]
    candidates_examined: int


@dataclass(frozen=True)
class SelectionOutcome:
    """Full selection for one query, as materialized steps.

    The flat accessors (:attr:`pages`, :attr:`candidate_counts`,
    :attr:`covered_counts`, :attr:`num_steps`) are the interface the
    executors and cost model consume; :class:`MaskSelectionOutcome`
    serves the same accessors without building :class:`SelectionStep`
    tuples until ``.steps`` is actually read.
    """

    steps: Tuple[SelectionStep, ...]
    sorted_keys: int  # keys put through the replica-count sort (0 = no sort)
    tier_hits: int = 0  # keys served by the pinned DRAM tier (no pages)

    @property
    def pages(self) -> List[int]:
        """Chosen page ids in read order."""
        return [s.page_id for s in self.steps]

    @property
    def candidate_counts(self) -> List[int]:
        """Candidate pages examined at each step, in read order."""
        return [s.candidates_examined for s in self.steps]

    @property
    def covered_counts(self) -> List[int]:
        """Newly covered keys per step, in read order."""
        return [len(s.covered) for s in self.steps]

    @property
    def num_steps(self) -> int:
        """Number of page reads chosen."""
        return len(self.steps)

    @property
    def total_candidates(self) -> int:
        """Total candidate-page examinations across steps."""
        return sum(s.candidates_examined for s in self.steps)

    def covered_keys(self) -> Set[int]:
        """Union of keys served by the chosen pages."""
        out: Set[int] = set()
        for s in self.steps:
            out.update(s.covered)
        return out


class MaskSelectionOutcome:
    """Lazy outcome produced by the page-mask selectors.

    Duck-types :class:`SelectionOutcome`: the flat accessors are served
    straight from the selection loop's lists, and ``.steps``
    materializes (once) only when read.
    """

    __slots__ = (
        "_pages",
        "_masks",
        "_candidate_counts",
        "_okeys",
        "sorted_keys",
        "tier_hits",
        "_steps",
    )

    def __init__(
        self,
        pages: List[int],
        masks: List[int],
        candidate_counts: List[int],
        okeys: List[int],
        sorted_keys: int,
        tier_hits: int = 0,
    ) -> None:
        self._pages = pages
        self._masks = masks  # per step: bit i set <=> okeys[i] newly covered
        self._candidate_counts = candidate_counts
        self._okeys = okeys
        self.sorted_keys = sorted_keys
        self.tier_hits = tier_hits
        self._steps: Optional[Tuple[SelectionStep, ...]] = None

    @property
    def pages(self) -> List[int]:
        """Chosen page ids in read order (shared list — do not mutate)."""
        return self._pages

    @property
    def candidate_counts(self) -> List[int]:
        """Candidate pages examined at each step, in read order."""
        return self._candidate_counts

    @property
    def covered_counts(self) -> List[int]:
        """Newly covered keys per step (popcount of the cover masks)."""
        return [m.bit_count() for m in self._masks]

    @property
    def num_steps(self) -> int:
        """Number of page reads chosen."""
        return len(self._pages)

    @property
    def total_candidates(self) -> int:
        """Total candidate-page examinations across steps."""
        return sum(self._candidate_counts)

    @property
    def steps(self) -> Tuple[SelectionStep, ...]:
        """Materialized steps, covered keys ascending."""
        if self._steps is None:
            self._steps = tuple(
                SelectionStep(
                    page_id=page,
                    covered=tuple(sorted(_mask_keys(mask, self._okeys))),
                    candidates_examined=n_cand,
                )
                for page, mask, n_cand in zip(
                    self._pages, self._masks, self._candidate_counts
                )
            )
        return self._steps

    def covered_keys(self) -> Set[int]:
        """Union of keys served by the chosen pages."""
        out: Set[int] = set()
        for mask in self._masks:
            out.update(_mask_keys(mask, self._okeys))
        return out


class Selector(ABC):
    """Strategy interface for page selection.

    A selector holds the two indexes and, optionally, a
    :class:`~repro.tiering.PinnedTier`: with a tier attached ``select``
    splits the query into tier-1 hits and SSD residue, runs selection on
    the residue only, and reports the hit count on the outcome — tier-1
    keys never reach the sort, the candidate scan, or a page read.
    """

    def __init__(self, forward: ForwardIndex, invert: InvertIndex) -> None:
        self.forward = forward
        self.invert = invert
        self.tier: "Optional[PinnedTier]" = None

    def attach_tier(self, tier: "Optional[PinnedTier]") -> None:
        """Attach (or detach, with None) a pinned DRAM tier."""
        self.tier = tier

    @abstractmethod
    def select(self, keys: Sequence[int]):
        """Choose pages covering all ``keys``; tier-1 keys need none.

        Returns a :class:`SelectionOutcome` or an object serving the
        same accessors.  Raises :class:`~repro.errors.ServingError` for
        a key outside the embedding table.
        """


class _PageMaskSelector(Selector):
    """Shared front end and page-mask fill; subclasses run the cover loop."""

    def __init__(self, forward: ForwardIndex, invert: InvertIndex) -> None:
        super().__init__(forward, invert)
        self._num_keys = forward.num_keys
        self._entries = forward.entries()
        self._full = _key_pages(forward, invert)

    def select(self, keys: Sequence[int]) -> MaskSelectionOutcome:
        """Choose pages covering all ``keys``; tier-1 keys need none."""
        # A fresh list: ``_select_impl`` sorts it in place.
        distinct = list(distinct_keys(keys))
        num_keys = self._num_keys
        if distinct and (min(distinct) < 0 or max(distinct) >= num_keys):
            bad = next(k for k in distinct if not 0 <= k < num_keys)
            raise ServingError(f"key {bad} is not in the embedding table")
        tier = self.tier
        if tier is None:
            return self._select_impl(distinct)
        hits, residue = tier.split(distinct)
        return self._select_impl(residue, hits)

    @abstractmethod
    def _select_impl(
        self, keys: List[int], tier_hits: int = 0
    ) -> MaskSelectionOutcome:
        """Cover ``keys`` — distinct and in range (``select`` checked)."""

    def _page_masks(self, okeys: List[int]) -> Dict[int, int]:
        """page → mask of the ``okeys`` it holds (bit i = ``okeys[i]``)."""
        full = self._full
        masks: Dict[int, int] = {}
        get = masks.get
        bit = 1
        for key in okeys:
            for page in full[key]:
                masks[page] = get(page, 0) | bit
            bit <<= 1
        return masks


class OnePassSelector(_PageMaskSelector):
    """MaxEmbed's one-pass selection (paper §6.1).

    ❶ Sort the queried keys ascending by replica count, so keys with a
    single candidate page are placed first and highly replicated keys get
    to hitchhike on earlier reads.  ❷ For each key still uncovered, fetch
    its candidate pages from the (possibly shrunk) Forward Index, ❸ pick
    the candidate covering the most still-uncovered keys via the Invert
    Index, ❹ emit the read and drop the covered keys.

    Each key contributes at most ``k`` candidate examinations (``k`` =
    index limit), giving O(|S| + |Q|) mask operations per query.
    """

    def __init__(self, forward: ForwardIndex, invert: InvertIndex) -> None:
        super().__init__(forward, invert)
        span = self._num_keys
        # count * span + key orders exactly like (count, key) since
        # key < span, without a tuple per key.
        self._rank = [
            count * span + key
            for key, count in enumerate(forward.replica_counts())
        ]

    def _select_impl(
        self, keys: List[int], tier_hits: int = 0
    ) -> MaskSelectionOutcome:
        """Cover ``keys`` — distinct and in range (``select`` checked)."""
        keys.sort(key=self._rank.__getitem__)
        masks = self._page_masks(keys)
        entries = self._entries
        rem = (1 << len(keys)) - 1
        pages: List[int] = []
        step_masks: List[int] = []
        step_cands: List[int] = []
        while rem:
            # Lowest set bit: the first key in process order not yet
            # covered (hitchhikers on earlier reads are already cleared).
            candidates = entries[keys[(rem & -rem).bit_length() - 1]]
            best_page = candidates[0]
            best_mask = masks[best_page] & rem
            if len(candidates) > 1:
                best_count = best_mask.bit_count()
                for page in candidates[1:]:
                    mask = masks[page] & rem
                    count = mask.bit_count()
                    if count > best_count:
                        best_page = page
                        best_mask = mask
                        best_count = count
            rem ^= best_mask
            pages.append(best_page)
            step_masks.append(best_mask)
            step_cands.append(len(candidates))
        return MaskSelectionOutcome(
            pages, step_masks, step_cands, keys, len(keys), tier_hits
        )


class GreedySetCoverSelector(_PageMaskSelector):
    """Classic greedy set cover over *all* candidate pages (paper §6 baseline).

    Each step scans every page that contains at least one still-uncovered
    queried key and picks the one covering the most.  Near-optimal
    (ln-approximation) but each step costs O(|S|) mask intersections,
    which is why the paper measures selection at >56 % of end-to-end
    latency.

    The candidate set is maintained incrementally: each page carries a
    support count (how many still-uncovered keys list it in the forward
    index) and leaves the set when the count hits zero — the set's
    contents are identical to a from-scratch rebuild each step, without
    re-walking every remaining key's page list.
    """

    def _select_impl(
        self, keys: List[int], tier_hits: int = 0
    ) -> MaskSelectionOutcome:
        """Cover ``keys`` — distinct and in range (``select`` checked)."""
        masks = self._page_masks(keys)
        entries = self._entries
        support: Dict[int, int] = {}
        for key in keys:
            for page in entries[key]:
                support[page] = support.get(page, 0) + 1
        rem = (1 << len(keys)) - 1
        pages: List[int] = []
        step_masks: List[int] = []
        step_cands: List[int] = []
        while rem:
            step_cands.append(len(support))
            best_page = -1
            best_mask = 0
            best_count = 0
            for page in sorted(support):
                mask = masks[page] & rem
                count = mask.bit_count()
                if count > best_count:
                    best_page = page
                    best_mask = mask
                    best_count = count
            if not best_mask:  # pragma: no cover - every key has a page
                stranded = sorted(_mask_keys(rem, keys))
                raise ServingError(f"keys {stranded[:5]} are on no page")
            rem ^= best_mask
            pages.append(best_page)
            step_masks.append(best_mask)
            for key in _mask_keys(best_mask, keys):
                for page in entries[key]:
                    count = support[page] - 1
                    if count:
                        support[page] = count
                    else:
                        del support[page]
        return MaskSelectionOutcome(
            pages, step_masks, step_cands, keys, 0, tier_hits
        )


#: The selection axis: every ``selector`` name the configs, the CLI and
#: the static evaluator accept, and the class it builds.
SELECTORS = {"onepass": OnePassSelector, "greedy": GreedySetCoverSelector}


def _mask_keys(mask: int, okeys: List[int]) -> List[int]:
    """The keys of ``okeys`` whose bits are set in ``mask``, in bit order."""
    keys = []
    while mask:
        bit = mask & -mask
        keys.append(okeys[bit.bit_length() - 1])
        mask ^= bit
    return keys


def _key_pages(
    forward: ForwardIndex, invert: InvertIndex
) -> List[Tuple[int, ...]]:
    """The never-shrunk key → pages map: the invert index transposed.

    A forward index that kept every (key, page) pair *is* that map, so
    it is shared rather than rebuilt; only a shrunk index pays for a
    second copy.
    """
    pages = [invert.keys_of(p) for p in range(invert.num_pages)]
    if sum(map(len, pages)) == sum(forward.replica_counts()):
        return forward.entries()
    full: List[List[int]] = [[] for _ in range(forward.num_keys)]
    for page_id, page in enumerate(pages):
        for key in page:
            full[key].append(page_id)
    return [tuple(entry) for entry in full]
