"""Trace file I/O.

Format: plain text, one query per line as space-separated key ids, with a
single header line ``#keys <num_keys>``.  The format is deliberately the
same shape as the public Criteo/Avazu click logs after ID densification,
so users can convert real logs with a one-line awk script.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from ..errors import WorkloadError
from ..types import KeyInterner, Query, QueryTrace

PathLike = Union[str, Path]


def save_trace(trace: QueryTrace, path: PathLike) -> None:
    """Write ``trace`` to ``path``."""
    lines = [f"#keys {trace.num_keys}"]
    for query in trace:
        lines.append(" ".join(str(k) for k in query.keys))
    Path(path).write_text("\n".join(lines) + "\n")


def load_trace(path: PathLike) -> QueryTrace:
    """Read a trace previously written by :func:`save_trace`.

    The trace holds one int object per key id
    (:class:`~repro.types.KeyInterner`).
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise WorkloadError(f"cannot read trace {path}: {exc}")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#keys "):
        raise WorkloadError(f"trace {path} missing '#keys N' header")
    try:
        num_keys = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise WorkloadError(f"trace {path} has a malformed header")
    trace = QueryTrace(num_keys)
    interner = KeyInterner()
    for line_no, line in enumerate(lines[1:], start=2):
        try:
            keys = interner.keys(map(int, line.split()))
        except ValueError:
            raise WorkloadError(
                f"trace {path}:{line_no}: non-integer key"
            )
        trace.append(Query(keys))
    return trace
