"""Shared value types used across the MaxEmbed reproduction.

The library deals with three identifier spaces:

* **keys** (``int``) — embedding identifiers, the vertices of the
  co-occurrence hypergraph.  Keys are dense integers in ``[0, num_keys)``.
* **pages** (``int``) — SSD page identifiers.  A page holds up to ``d``
  embeddings, where ``d = page_size // embedding_bytes``.
* **queries** — an ordered collection of keys requested together by one
  inference request.  Queries may contain duplicates in raw traces; the
  serving path deduplicates them.

The dataclasses here are deliberately small and immutable so they can be
shared freely between the offline (partitioning/replication) and online
(serving) phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence, Tuple

from .errors import ConfigError

Key = int
PageId = int
EdgeId = int


@dataclass(frozen=True)
class Query:
    """One embedding lookup request: an immutable tuple of keys.

    ``keys`` preserves the raw request order (and duplicates); use
    :meth:`unique_keys` for the deduplicated set the serving path operates
    on.
    """

    keys: Tuple[Key, ...]

    def __post_init__(self) -> None:
        if not self.keys:
            raise ConfigError("a query must contain at least one key")
        if min(self.keys) < 0:
            raise ConfigError("query keys must be non-negative")

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[Key]:
        return iter(self.keys)

    def unique_keys(self) -> Tuple[Key, ...]:
        """Return the distinct keys in first-appearance order."""
        return tuple(dict.fromkeys(self.keys))

    @staticmethod
    def of(keys: Iterable[Key]) -> "Query":
        """Build a query from any iterable of keys."""
        return Query(tuple(keys))


@dataclass(frozen=True)
class EmbeddingSpec:
    """Geometry of the embedding table as stored on SSD.

    Attributes:
        dim: number of float32 elements per embedding vector.
        page_size: SSD page size in bytes (typically 4096).
    """

    dim: int = 64
    page_size: int = 4096

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ConfigError(f"embedding dim must be positive, got {self.dim}")
        if self.page_size <= 0:
            raise ConfigError(
                f"page size must be positive, got {self.page_size}"
            )
        if self.embedding_bytes > self.page_size:
            raise ConfigError(
                "one embedding does not fit in a page: "
                f"{self.embedding_bytes} B > {self.page_size} B"
            )

    @property
    def embedding_bytes(self) -> int:
        """Size of one embedding vector in bytes (float32 elements)."""
        return self.dim * 4

    @property
    def slots_per_page(self) -> int:
        """``d`` in the paper: embeddings that fit in one SSD page."""
        return self.page_size // self.embedding_bytes


@dataclass(frozen=True)
class ReplicationConfig:
    """Parameters of the offline replication pass.

    Attributes:
        ratio: ``r`` in the paper — extra storage as a fraction of the
            un-replicated table (0.1 means 10 % additional pages).
        index_limit: ``k`` in the paper — maximum forward-index entries kept
            per key (``None`` keeps all entries; §6.1 index shrinking).
    """

    ratio: float = 0.1
    index_limit: "int | None" = None

    def __post_init__(self) -> None:
        if self.ratio < 0:
            raise ConfigError(f"replication ratio must be >= 0, got {self.ratio}")
        if self.index_limit is not None and self.index_limit < 1:
            raise ConfigError(
                f"index limit must be >= 1 or None, got {self.index_limit}"
            )


@dataclass
class QueryTrace:
    """A sequence of queries plus the key universe they draw from.

    ``num_keys`` is the size of the embedding table; all query keys must be
    strictly below it.  Traces are the common currency between the workload
    generators, the hypergraph builder, and the serving benchmarks.
    """

    num_keys: int
    queries: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_keys <= 0:
            raise ConfigError("num_keys must be positive")
        for q in self.queries:
            self._check(q)

    def _check(self, query: Query) -> None:
        if not isinstance(query, Query):
            raise ConfigError(f"expected Query, got {type(query).__name__}")
        bad = [k for k in query.keys if k >= self.num_keys]
        if bad:
            raise ConfigError(
                f"query keys {bad[:5]} out of range for num_keys={self.num_keys}"
            )

    def append(self, query: Query) -> None:
        """Validate and append one query."""
        self._check(query)
        self.queries.append(query)

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[Query]:
        return iter(self.queries)

    def mean_query_length(self) -> float:
        """Average raw query length (duplicates included)."""
        if not self.queries:
            return 0.0
        return sum(len(q) for q in self.queries) / len(self.queries)

    def split(self, fraction: float) -> Tuple["QueryTrace", "QueryTrace"]:
        """Split into (head, tail) traces at ``fraction`` of the queries.

        Used to partition on historical queries and serve on held-out ones.
        """
        if not 0.0 < fraction < 1.0:
            raise ConfigError(f"split fraction must be in (0, 1), got {fraction}")
        cut = int(len(self.queries) * fraction)
        head = QueryTrace(self.num_keys, list(self.queries[:cut]))
        tail = QueryTrace(self.num_keys, list(self.queries[cut:]))
        return head, tail


def as_queries(raw: Iterable[Sequence[Key]]) -> list:
    """Convert an iterable of key sequences into a list of :class:`Query`."""
    return [Query(tuple(keys)) for keys in raw]
