"""Adapters for the real public datasets of the paper's Table 3.

The synthetic presets stand in for the raw logs, but a user with the
actual files (Criteo Kaggle/Terabyte TSV, Avazu CSV) needs a path from
those formats to a :class:`~repro.types.QueryTrace`.  These parsers
implement the standard preprocessing for both:

* every categorical feature value is hashed into a per-feature bucket
  space (the universal trick for billion-cardinality ID columns), and
* each record's categorical values become one query — the exact
  "embeddings fetched together for one inference" semantics the paper's
  hypergraph construction assumes.

Each parse keeps one :class:`~repro.types.KeyInterner`, so a trace holds
one int object per key id however often the id recurs.

Both parsers are streaming (line iterators in, queries out) so terabyte
logs never need to fit in memory; `max_records` caps ingestion for
sampling runs.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, List, Optional, Sequence

from ..errors import WorkloadError
from ..types import KeyInterner, Query, QueryTrace

# Criteo Kaggle / Terabyte row: label, 13 integer features, 26 categorical.
CRITEO_NUM_INTEGER = 13
CRITEO_NUM_CATEGORICAL = 26

# Avazu columns (header names) that are categorical id features.
AVAZU_CATEGORICAL = (
    "site_id",
    "site_domain",
    "site_category",
    "app_id",
    "app_domain",
    "app_category",
    "device_id",
    "device_ip",
    "device_model",
)


def _stable_hash(value: str) -> int:
    """Deterministic cross-run 64-bit hash (Python's builtin is salted)."""
    digest = hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def hash_feature(feature_index: int, raw_value: str, buckets: int) -> int:
    """Map one (feature, value) pair into the feature's bucket space."""
    if buckets <= 0:
        raise WorkloadError(f"buckets must be positive, got {buckets}")
    return _stable_hash(f"{feature_index}\x1f{raw_value}") % buckets


def parse_criteo_tsv(
    lines: Iterable[str],
    buckets_per_feature: int = 1000,
    max_records: Optional[int] = None,
    skip_empty: bool = True,
) -> QueryTrace:
    """Parse Criteo click-log TSV lines into a query trace.

    Each categorical column gets its own contiguous key range of
    ``buckets_per_feature`` keys, so the trace's key space is
    ``26 × buckets_per_feature``.

    Args:
        lines: raw TSV lines (label + 13 ints + 26 categoricals).
        buckets_per_feature: hash-bucket count per categorical feature.
        max_records: stop after this many parsed records.
        skip_empty: drop empty categorical values (Criteo leaves blanks)
            rather than hashing the empty string.
    """
    if buckets_per_feature <= 0:
        raise WorkloadError(
            f"buckets_per_feature must be positive, got {buckets_per_feature}"
        )
    num_keys = CRITEO_NUM_CATEGORICAL * buckets_per_feature
    trace = QueryTrace(num_keys)
    interner = KeyInterner()
    expected = 1 + CRITEO_NUM_INTEGER + CRITEO_NUM_CATEGORICAL
    for record_index, line in enumerate(_bounded(lines, max_records)):
        fields = line.rstrip("\n").split("\t")
        if len(fields) != expected:
            raise WorkloadError(
                f"criteo record {record_index}: expected {expected} fields, "
                f"got {len(fields)}"
            )
        keys: List[int] = []
        categoricals = fields[1 + CRITEO_NUM_INTEGER :]
        for feature_index, raw in enumerate(categoricals):
            if skip_empty and not raw:
                continue
            bucket = hash_feature(feature_index, raw, buckets_per_feature)
            keys.append(feature_index * buckets_per_feature + bucket)
        if keys:
            trace.append(Query(interner.keys(keys)))
    if not len(trace):
        raise WorkloadError("no usable criteo records were parsed")
    return trace


def parse_avazu_csv(
    lines: Iterable[str],
    buckets_per_feature: int = 1000,
    max_records: Optional[int] = None,
    categorical_columns: Sequence[str] = AVAZU_CATEGORICAL,
) -> QueryTrace:
    """Parse Avazu CTR CSV (with header) into a query trace."""
    if buckets_per_feature <= 0:
        raise WorkloadError(
            f"buckets_per_feature must be positive, got {buckets_per_feature}"
        )
    iterator = iter(lines)
    try:
        header = next(iterator).rstrip("\n").split(",")
    except StopIteration:
        raise WorkloadError("avazu input is empty")
    positions = []
    for column in categorical_columns:
        try:
            positions.append(header.index(column))
        except ValueError:
            raise WorkloadError(f"avazu header missing column {column!r}")
    num_keys = len(categorical_columns) * buckets_per_feature
    trace = QueryTrace(num_keys)
    interner = KeyInterner()
    for record_index, line in enumerate(_bounded(iterator, max_records)):
        fields = line.rstrip("\n").split(",")
        if len(fields) != len(header):
            raise WorkloadError(
                f"avazu record {record_index}: expected {len(header)} "
                f"fields, got {len(fields)}"
            )
        keys: List[int] = []
        for feature_index, position in enumerate(positions):
            raw = fields[position]
            if not raw:
                continue
            bucket = hash_feature(feature_index, raw, buckets_per_feature)
            keys.append(feature_index * buckets_per_feature + bucket)
        if keys:
            trace.append(Query(interner.keys(keys)))
    if not len(trace):
        raise WorkloadError("no usable avazu records were parsed")
    return trace


def _bounded(
    lines: Iterable[str], max_records: Optional[int]
) -> Iterator[str]:
    if max_records is not None and max_records <= 0:
        raise WorkloadError(
            f"max_records must be positive or None, got {max_records}"
        )
    for index, line in enumerate(lines):
        if max_records is not None and index >= max_records:
            return
        if line.strip():
            yield line
