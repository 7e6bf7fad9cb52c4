"""Shared value types used across the MaxEmbed reproduction.

The library deals with three identifier spaces:

* **keys** (``int``) — embedding identifiers, the vertices of the
  co-occurrence hypergraph.  Keys are dense integers in ``[0, num_keys)``.
* **pages** (``int``) — SSD page identifiers.  A page holds up to ``d``
  embeddings, where ``d = page_size // embedding_bytes``.
* **queries** — an ordered collection of keys requested together by one
  inference request.  Queries may contain duplicates in raw traces; the
  serving path deduplicates them once, where a query enters it, and
  the queries it builds inside (scatter fragments, a gateway batch's
  key union) are :class:`DistinctQuery` values that skip the checks.

The dataclasses here are deliberately small and immutable so they can be
shared freely between the offline (partitioning/replication) and online
(serving) phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence, Tuple

from .errors import ConfigError

Key = int
PageId = int
EdgeId = int


def distinct_keys(keys: Sequence[Key]) -> Sequence[Key]:
    """``keys`` itself when no key repeats, else its distinct keys.

    The fallback is a tuple in first-appearance order.  Generated traces
    carry no repeated key, so the common case copies nothing; callers
    that mutate the result must copy it first.
    """
    if len(set(keys)) == len(keys):
        return keys
    return tuple(dict.fromkeys(keys))


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

    def __eq__(self, other: object) -> bool:
        # A DistinctQuery is the same query as a Query of its keys.
        if isinstance(other, Query):
            return self.keys == other.keys
        return NotImplemented

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[Key]:
        return iter(self.keys)

    def unique_keys(self) -> Tuple[Key, ...]:
        """Return the distinct keys in first-appearance order.

        A query without a repeated key returns its own ``keys`` tuple.
        """
        return distinct_keys(self.keys)


class DistinctQuery(Query):
    """A query built from keys already known to be distinct, non-negative
    and at least one: nothing is checked, and :meth:`unique_keys` is the
    ``keys`` tuple itself.

    Only code that made the keys so builds one — the router's scatter
    fragments (from a query's distinct keys) and the gateway's batch
    union (from keys :meth:`~repro.service.GatewayCore.offer` checked)
    — so each key is checked once, where its query entered.
    """

    def __init__(self, keys: Tuple[Key, ...]) -> None:
        object.__setattr__(self, "keys", keys)

    def unique_keys(self) -> Tuple[Key, ...]:
        """The keys themselves: they are distinct by construction."""
        return self.keys


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
