"""Byte-accurate page store.

Holds the actual page contents (embedding vectors packed into fixed-size
pages).  Kept separate from the timing model so the serving engine can run
purely on page ids when vector payloads are not needed (bandwidth
experiments) and with real payloads when they are
(:meth:`~repro.core.MaxEmbedStore.lookup`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import StorageError
from ..placement import PageLayout
from ..types import EmbeddingSpec


class PageStore:
    """page id → raw page bytes, with embedding pack/unpack helpers."""

    def __init__(self, page_size: int, num_pages: int) -> None:
        if page_size <= 0:
            raise StorageError(f"page_size must be positive, got {page_size}")
        if num_pages <= 0:
            raise StorageError(f"num_pages must be positive, got {num_pages}")
        self._page_size = page_size
        self._num_pages = num_pages
        self._pages: Dict[int, bytes] = {}

    @property
    def page_size(self) -> int:
        """Bytes per page."""
        return self._page_size

    @property
    def num_pages(self) -> int:
        """Capacity of the store in pages."""
        return self._num_pages

    def _check_page_id(self, page_id: int) -> None:
        if not 0 <= page_id < self._num_pages:
            raise StorageError(
                f"page id {page_id} out of range [0, {self._num_pages})"
            )

    def write_page(self, page_id: int, data: bytes) -> None:
        """Store up to ``page_size`` bytes on ``page_id`` (zero padded)."""
        self._check_page_id(page_id)
        if len(data) > self._page_size:
            raise StorageError(
                f"payload of {len(data)} B exceeds page size {self._page_size}"
            )
        self._pages[page_id] = bytes(data).ljust(self._page_size, b"\x00")

    def read_page(self, page_id: int) -> bytes:
        """Return the full page (zero page if never written)."""
        self._check_page_id(page_id)
        return self._pages.get(page_id, b"\x00" * self._page_size)


def pack_embeddings(vectors: np.ndarray, spec: EmbeddingSpec) -> bytes:
    """Pack float32 embedding vectors into one page payload."""
    arr = np.ascontiguousarray(vectors, dtype=np.float32)
    if arr.ndim != 2 or arr.shape[1] != spec.dim:
        raise StorageError(
            f"expected shape (n, {spec.dim}), got {arr.shape}"
        )
    if arr.shape[0] > spec.slots_per_page:
        raise StorageError(
            f"{arr.shape[0]} embeddings exceed page capacity "
            f"{spec.slots_per_page}"
        )
    return arr.tobytes()


def materialize_layout(
    layout: PageLayout,
    table: np.ndarray,
    spec: EmbeddingSpec,
) -> Tuple[PageStore, List[Tuple[int, ...]]]:
    """Write an embedding table onto a store following ``layout``.

    Args:
        layout: page → keys placement.
        table: ``(num_keys, dim)`` float32 embedding table.
        spec: embedding geometry (must match ``layout.capacity``).

    Returns:
        ``(store, page_keys)`` where ``page_keys[p]`` records the key order
        within page ``p`` (needed to slice vectors back out of a page).
    """
    if table.shape != (layout.num_keys, spec.dim):
        raise StorageError(
            f"table shape {table.shape} != ({layout.num_keys}, {spec.dim})"
        )
    if spec.slots_per_page < layout.capacity:
        raise StorageError(
            f"spec fits {spec.slots_per_page} embeddings per page but the "
            f"layout packs up to {layout.capacity}"
        )
    store = PageStore(spec.page_size, layout.num_pages)
    page_keys: List[Tuple[int, ...]] = []
    for page_id in range(layout.num_pages):
        keys = layout.page(page_id)
        store.write_page(page_id, pack_embeddings(table[list(keys)], spec))
        page_keys.append(keys)
    return store, page_keys


def extract_embedding(
    payload: bytes,
    page_keys: Iterable[int],
    key: int,
    spec: EmbeddingSpec,
) -> Optional[np.ndarray]:
    """Slice one embedding out of a page payload, or None if absent."""
    keys = list(page_keys)
    try:
        slot = keys.index(key)
    except ValueError:
        return None
    start = slot * spec.embedding_bytes
    end = start + spec.embedding_bytes
    flat = np.frombuffer(payload[start:end], dtype=np.float32)
    return flat.copy()
