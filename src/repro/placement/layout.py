"""Page layout: the offline phase's placement artifact.

A layout maps every page to the keys stored on it.  Replication shows up
as a key appearing on more than one page.  Invariants enforced here:

* every page holds between 1 and ``capacity`` keys, with no duplicate key
  on the same page;
* every key of the table (``[0, num_keys)``) appears on at least one page
  — otherwise it would be unservable.

Page ids index into ``pages`` and are, by convention, ordered with the
base (partition) pages first and replica pages appended after them; the
forward index relies on that ordering so that index shrinking always keeps
the home page.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from ..errors import PlacementError

Page = Tuple[int, ...]


class PageLayout:
    """Immutable page → keys mapping with replication accounting."""

    def __init__(
        self,
        num_keys: int,
        capacity: int,
        pages: Iterable[Sequence[int]],
        num_base_pages: "int | None" = None,
    ) -> None:
        if num_keys <= 0:
            raise PlacementError(f"num_keys must be positive, got {num_keys}")
        if capacity <= 0:
            raise PlacementError(f"capacity must be positive, got {capacity}")
        self._num_keys = num_keys
        self._capacity = capacity
        self._pages: List[Page] = []
        seen = [False] * num_keys
        for page in pages:
            keys = tuple(page)
            if not keys:
                raise PlacementError("pages must hold at least one key")
            if len(keys) > capacity:
                raise PlacementError(
                    f"page holds {len(keys)} keys, capacity is {capacity}"
                )
            if len(set(keys)) != len(keys):
                raise PlacementError(f"page {len(self._pages)} repeats a key")
            for k in keys:
                if not 0 <= k < num_keys:
                    raise PlacementError(
                        f"key {k} out of range [0, {num_keys})"
                    )
                seen[k] = True
            self._pages.append(keys)
        missing = seen.count(False)
        if missing:
            first = seen.index(False)
            raise PlacementError(
                f"{missing} keys are on no page (first missing: {first})"
            )
        if num_base_pages is None:
            num_base_pages = len(self._pages)
        if not 0 < num_base_pages <= len(self._pages):
            raise PlacementError(
                f"num_base_pages {num_base_pages} out of range "
                f"(1..{len(self._pages)})"
            )
        self._num_base_pages = num_base_pages

    # -- geometry -----------------------------------------------------------

    @property
    def num_keys(self) -> int:
        """Size of the embedding table."""
        return self._num_keys

    @property
    def capacity(self) -> int:
        """Maximum keys per page (``d``)."""
        return self._capacity

    @property
    def num_pages(self) -> int:
        """Total pages, base + replica."""
        return len(self._pages)

    @property
    def num_base_pages(self) -> int:
        """Pages holding the primary (partition) copy of each key."""
        return self._num_base_pages

    @property
    def num_replica_pages(self) -> int:
        """Pages appended by the replication pass."""
        return len(self._pages) - self._num_base_pages

    def page(self, page_id: int) -> Page:
        """Keys stored on ``page_id``."""
        if not 0 <= page_id < len(self._pages):
            raise PlacementError(f"page id {page_id} out of range")
        return self._pages[page_id]

    def pages(self) -> List[Page]:
        """All pages in id order (shallow copy)."""
        return list(self._pages)

    # -- replication accounting -----------------------------------------------

    def total_slots_used(self) -> int:
        """Total key placements across all pages (replicas counted)."""
        return sum(len(p) for p in self._pages)

    def extra_page_ratio(self) -> float:
        """Replica pages as a fraction of base pages — the paper's ``r``."""
        return self.num_replica_pages / self._num_base_pages

    def space_overhead(self) -> float:
        """Total pages versus the minimum an unreplicated layout needs.

        Unlike :meth:`extra_page_ratio` this is strategy-agnostic: RPP and
        FPR fold replicas into their base clusters (no appended pages), but
        still consume more pages than ``ceil(N / d)``.
        """
        import math

        minimum = math.ceil(self._num_keys / self._capacity)
        return self.num_pages / minimum - 1.0

    def replica_counts(self) -> List[int]:
        """Number of pages each key appears on."""
        counts = [0] * self._num_keys
        for page in self._pages:
            for k in page:
                counts[k] += 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PageLayout(num_keys={self._num_keys}, capacity={self._capacity},"
            f" pages={self.num_pages}, replicas={self.num_replica_pages})"
        )


def layout_from_partition(result, extra_pages: Iterable[Sequence[int]] = ()):
    """Build a :class:`PageLayout` from a partition plus replica pages.

    Args:
        result: a :class:`~repro.partition.PartitionResult`; each non-empty
            cluster becomes one base page.
        extra_pages: replica pages appended after the base pages.
    """
    base = [tuple(c) for c in result.clusters() if c]
    pages = base + [tuple(p) for p in extra_pages]
    return PageLayout(
        num_keys=result.num_vertices,
        capacity=result.capacity,
        pages=pages,
        num_base_pages=len(base),
    )
