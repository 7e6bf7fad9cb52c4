"""Invert Index: SSD page → embedding keys it contains.

The second DRAM index of the online phase.  The one-pass selector uses it
to count, for each candidate page, how many still-uncovered query keys the
page would serve.  Crucially (paper Figure 7) the invert index is *never*
shrunk: even when a key's forward-index entry omits a page, a read of that
page still serves the key because the invert index knows it is there.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from ..errors import PlacementError
from .layout import PageLayout


class InvertIndex:
    """page id → keys stored on the page (set-like for fast intersection)."""

    def __init__(self, pages: List[Tuple[int, ...]]) -> None:
        self._pages = pages
        self._sets: Optional[List[FrozenSet[int]]] = None
        self._sorted: Optional[List[Tuple[int, ...]]] = None

    @classmethod
    def from_layout(cls, layout: PageLayout) -> "InvertIndex":
        """Build the index mirroring the layout's page contents."""
        return cls([layout.page(pid) for pid in range(layout.num_pages)])

    @property
    def num_pages(self) -> int:
        """Number of indexed pages."""
        return len(self._pages)

    def keys_of(self, page_id: int) -> Tuple[int, ...]:
        """Keys on ``page_id`` in storage order."""
        if not 0 <= page_id < len(self._pages):
            raise PlacementError(f"page id {page_id} out of range")
        return self._pages[page_id]

    def key_set(self, page_id: int) -> FrozenSet[int]:
        """Keys on ``page_id`` as a frozenset (for intersections), memoized.

        The set-typed copy of every page is built on the first call: the
        serving hot path never asks for it (fault recovery and the
        set-algebra oracle do).
        """
        if self._sets is None:
            self._sets = [frozenset(p) for p in self._pages]
        if not 0 <= page_id < len(self._sets):
            raise PlacementError(f"page id {page_id} out of range")
        return self._sets[page_id]

    def sorted_keys_of(self, page_id: int) -> Tuple[int, ...]:
        """Keys on ``page_id`` in ascending key order, memoized.

        Selectors emit covered keys in this order by filtering the presorted
        tuple, which avoids a per-step ``sorted()`` call.
        """
        if self._sorted is None:
            self._sorted = [tuple(sorted(p)) for p in self._pages]
        if not 0 <= page_id < len(self._sorted):
            raise PlacementError(f"page id {page_id} out of range")
        return self._sorted[page_id]

    def covered(self, page_id: int, wanted: set) -> int:
        """How many of ``wanted`` keys a read of ``page_id`` would serve."""
        return len(self.key_set(page_id) & wanted)
