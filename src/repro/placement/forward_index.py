"""Forward Index: embedding key → SSD pages holding it.

This is the first of the two DRAM-resident indexes of the paper's online
phase (§6).  Page lists preserve layout order, so entry 0 is always the
key's *home* (base partition) page; replica pages follow.  Index shrinking
(§6.1) keeps only the first ``k`` entries per key, trading a marginal
bandwidth loss for bounded selection cost and a smaller index.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import PlacementError
from .layout import PageLayout


class ForwardIndex:
    """key → tuple of page ids (home page first)."""

    def __init__(self, entries: List[Tuple[int, ...]]) -> None:
        for key, pages in enumerate(entries):
            if not pages:
                raise PlacementError(f"key {key} has no pages in forward index")
        self._entries = entries
        self._counts: Optional[List[int]] = None

    @classmethod
    def from_layout(
        cls, layout: PageLayout, limit: "int | None" = None
    ) -> "ForwardIndex":
        """Build the index from a layout, optionally shrunk to ``limit`` pages.

        Pages are recorded in page-id order; base pages have lower ids than
        replica pages, so the home page always survives shrinking.
        """
        if limit is not None and limit < 1:
            raise PlacementError(f"index limit must be >= 1, got {limit}")
        lists: List[List[int]] = [[] for _ in range(layout.num_keys)]
        for page_id in range(layout.num_pages):
            for key in layout.page(page_id):
                pages = lists[key]
                if limit is None or len(pages) < limit:
                    pages.append(page_id)
        return cls([tuple(pages) for pages in lists])

    @property
    def num_keys(self) -> int:
        """Number of indexed keys."""
        return len(self._entries)

    def pages_of(self, key: int) -> Tuple[int, ...]:
        """Pages containing ``key`` (home page first)."""
        if not 0 <= key < len(self._entries):
            raise PlacementError(f"key {key} out of range")
        return self._entries[key]

    def home_page(self, key: int) -> int:
        """The key's base (partition) page."""
        return self.pages_of(key)[0]

    def entries(self) -> List[Tuple[int, ...]]:
        """All per-key page tuples, indexed by key (shared, do not mutate)."""
        return self._entries

    def replica_counts(self) -> List[int]:
        """Per-key page counts, memoized — the one-pass sort key reads this
        once per query key, so it must not re-walk the entry tuples."""
        if self._counts is None:
            self._counts = [len(p) for p in self._entries]
        return self._counts

    def total_entries(self) -> int:
        """Total (key, page) pairs stored — the index's memory footprint."""
        return sum(len(p) for p in self._entries)
