"""Page selection (paper §6.1): MaxEmbed's one-pass selector.

The selector answers: *given the distinct keys of one query, which SSD
pages do we read, in what order?*  Besides the page list, it reports how
many candidate pages each step examined — the quantity the CPU cost model
charges for, and the thing the one-pass algorithm bounds.  The greedy
set-cover baseline it replaces (§6) and an exact cover are oracles in
:mod:`repro.reference`; ``benchmarks/bench_selector.py`` compares the
three.

The paper measures selection at >56 % of end-to-end latency (Fig. 15),
so the selector works from the *query* side: a page holds 16 slots but a
query wants little more than one of them, so walking page contents is
mostly misses.

Per query: sort the keys by rank (which bounds-checks them), give the
*i*-th key bit *i*, and walk each key's pages in the never-shrunk key→pages map (the
transpose of the invert index) to fill a ``page → int mask`` dict of
the query keys each page holds — O(Σ fan-out) dict updates.  The cover
loop is then plain ints: ``rem`` is the mask of still-uncovered keys,
a candidate's gain is ``(mask & rem).bit_count()``, covering is one
XOR.  Python ints are unbounded, so a 300-key gateway union takes the
same path as a 6-key cluster fragment.

One-pass processes keys in ascending replica count, then key (a
per-selector precomputed rank), so the keys stored once come
first and each one's read is forced: it takes that leading run by
lookup — one dict counting keys per home page, in first-appearance
order — and needs no mask for it.  The run ends at the first key whose
never-shrunk map holds two or more pages, even one the index limit cut
to a single candidate: that key may ride on a page chosen earlier.  The
keys after the run get bits, in process order, and one mask fill; each
forced read, in read order, then clears the bits of the keys it holds
(so a key is credited to the first chosen page holding it), and the
cover loop runs on the bits still set: ``rem & -rem`` is exactly the key
the next step starts from.

Candidates are examined in (shrunk) forward-index order with a
first-strict-max tie break, covers are counted through the never-shrunk
map, and covered keys are emitted ascending — outcome for outcome what
the set-algebra oracle in :mod:`repro.reference` produces, which the
differential suites enforce.  The selector keeps no per-query state, so
one instance may serve concurrent threads.  It returns one flat
:class:`SelectionOutcome` — pages, covered and candidate counts — and
builds :class:`SelectionStep` tuples only if ``.steps`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..errors import ServingError
from ..placement import ForwardIndex, InvertIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..tiering import PinnedTier


def unknown_key_error(keys: Sequence[int], num_keys: int) -> ServingError:
    """The error for the first of ``keys`` past a ``num_keys`` table."""
    bad = next(k for k in keys if k >= num_keys)
    return ServingError(f"key {bad} is not in the embedding table")


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


class SelectionOutcome:
    """Full selection for one query, flat.

    The selector returns one: the chosen :attr:`pages` in read order,
    the keys each read newly covers (:attr:`covered_counts`) and the
    candidate pages each step examined (:attr:`candidate_counts`) — the
    lists the executors and the cost model consume — plus the sort
    charge.  :attr:`steps` is derived on demand (and
    once): each covered key is credited to the first chosen page, in
    read order, that holds it in the never-shrunk key→pages map, which
    is the rule the selector and its oracles implement.
    """

    __slots__ = (
        "pages",
        "covered_counts",
        "candidate_counts",
        "sorted_keys",
        "_keys",
        "_key_pages",
        "_steps",
    )

    def __init__(
        self,
        pages: List[int],
        covered_counts: List[int],
        candidate_counts: List[int],
        sorted_keys: int,  # keys put through the sort (0 = no sort)
        keys: Sequence[int] = (),
        key_pages: Sequence[Tuple[int, ...]] = (),
    ) -> None:
        self.pages = pages
        self.covered_counts = covered_counts
        self.candidate_counts = candidate_counts
        self.sorted_keys = sorted_keys
        self._keys = keys  # the covered keys, any order
        self._key_pages = key_pages  # the never-shrunk key → pages map
        self._steps: Optional[Tuple[SelectionStep, ...]] = None

    @classmethod
    def from_steps(
        cls,
        steps: Sequence[SelectionStep],
        sorted_keys: int,
    ) -> "SelectionOutcome":
        """An outcome given as materialized steps (oracles, truncation)."""
        outcome = cls(
            [s.page_id for s in steps],
            [len(s.covered) for s in steps],
            [s.candidates_examined for s in steps],
            sorted_keys,
        )
        outcome._steps = tuple(steps)
        return outcome

    @property
    def num_steps(self) -> int:
        """Number of page reads chosen."""
        return len(self.pages)

    @property
    def total_candidates(self) -> int:
        """Total candidate-page examinations across steps."""
        return sum(self.candidate_counts)

    @property
    def steps(self) -> Tuple[SelectionStep, ...]:
        """Materialized steps, covered keys ascending."""
        if self._steps is None:
            step_of = {page: step for step, page in enumerate(self.pages)}
            covered: List[List[int]] = [[] for _ in self.pages]
            for key in sorted(self._keys):
                first = min(
                    step_of[page]
                    for page in self._key_pages[key]
                    if page in step_of
                )
                covered[first].append(key)
            self._steps = tuple(
                SelectionStep(page, tuple(keys), n_cand)
                for page, keys, n_cand in zip(
                    self.pages, covered, self.candidate_counts
                )
            )
        return self._steps


class OnePassSelector:
    """MaxEmbed's one-pass selection (paper §6.1), the one page selector.

    ❶ Sort the queried keys ascending by replica count, so keys with a
    single candidate page are placed first and highly replicated keys get
    to hitchhike on earlier reads.  ❷ For each key still uncovered, fetch
    its candidate pages from the (possibly shrunk) Forward Index, ❸ pick
    the candidate covering the most still-uncovered keys via the Invert
    Index, ❹ emit the read and drop the covered keys.

    Each key contributes at most ``k`` candidate examinations (``k`` =
    index limit), giving O(|S| + |Q|) mask operations per query.

    The selector holds the two indexes and nothing of a pinned DRAM
    tier: the engine splits a query against its tier before the cache,
    so the keys ``select`` gets are already the SSD residue.
    """

    def __init__(self, forward: ForwardIndex, invert: InvertIndex) -> None:
        self.forward = forward
        self.invert = invert
        self.tier: "Optional[PinnedTier]" = None
        self._num_keys = span = forward.num_keys
        self._entries = forward.entries()
        self._full = _key_pages(forward, invert)
        # count * span + key orders exactly like (count, key) since
        # key < span, without a tuple per key.
        self._rank = [
            count * span + key
            for key, count in enumerate(forward.replica_counts())
        ]
        # The one page of a key stored once, None for a replicated key.
        # From the never-shrunk map: a replicated key the index limit cut
        # to one candidate may still ride on another page.
        self._home = [
            pages[0] if len(pages) == 1 else None for pages in self._full
        ]

    def attach_tier(self, tier: "Optional[PinnedTier]") -> None:
        """Record ``tier`` as :attr:`tier`; selection never reads it.

        A seam of the end-to-end harness (ROADMAP item 6), which hands
        the selector its tracing proxy of the engine's tier; the engine
        itself splits queries against the tier and never calls this.
        """
        self.tier = tier

    def select(self, keys: Sequence[int]) -> SelectionOutcome:
        """Choose pages covering all ``keys``.

        Precondition: ``keys`` are distinct, non-negative key ids —
        what every caller passes (the engine's and the store's cache
        misses, a query's ``unique_keys()``, a hyperedge's pins); the
        checks run where a query enters (``Query``, the gateway's
        ``offer``, the router's scatter), not here.  A key past the
        table still raises :class:`~repro.errors.ServingError`, from
        its failed rank lookup.
        """
        try:
            # A fresh list, in process order; ``keys`` is left as given.
            ordered = sorted(keys, key=self._rank.__getitem__)
        except IndexError:
            raise unknown_key_error(keys, self._num_keys) from None
        return self._select_impl(ordered)

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

    def _select_impl(self, keys: List[int]) -> SelectionOutcome:
        """Cover ``keys`` — distinct, in range and in process order."""
        full = self._full
        # The sort puts the keys stored once first: each one's read is
        # forced, so a step is its home page and a count, not a mask.
        home = self._home
        forced: Dict[int, int] = {}
        for key in keys:
            page = home[key]
            if page is None:
                break
            if page in forced:
                forced[page] += 1
            else:
                forced[page] = 1
        else:
            return SelectionOutcome(
                list(forced),
                list(forced.values()),
                [1] * len(forced),
                len(keys),
                keys,
                full,
            )
        pages = list(forced)
        covered = list(forced.values())
        cands = [1] * len(pages)
        # The keys after the run get bits, in process order.  A forced
        # read covers those it holds that no earlier read did.
        okeys = keys[sum(covered) :]
        masks = self._page_masks(okeys)
        rem = (1 << len(okeys)) - 1
        for step, page in enumerate(pages):
            if page in masks:
                mask = masks[page] & rem
                covered[step] += mask.bit_count()
                rem ^= mask
        entries = self._entries
        while rem:
            # Lowest set bit: the first key in process order not yet
            # covered (hitchhikers on earlier reads are already cleared).
            candidates = entries[okeys[(rem & -rem).bit_length() - 1]]
            best_page = candidates[0]
            best_mask = masks[best_page] & rem
            best_count = best_mask.bit_count()
            if len(candidates) > 1:
                for page in candidates[1:]:
                    mask = masks[page] & rem
                    count = mask.bit_count()
                    if count > best_count:
                        best_page = page
                        best_mask = mask
                        best_count = count
            rem ^= best_mask
            pages.append(best_page)
            covered.append(best_count)
            cands.append(len(candidates))
        return SelectionOutcome(
            pages, covered, cands, len(keys), keys, full
        )


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
