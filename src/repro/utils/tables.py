"""Plain-text table rendering for experiment reports.

The benchmark harness regenerates each of the paper's tables and figures as
text; these helpers produce aligned, monospace tables that read well both
in a terminal and in EXPERIMENTS.md code blocks.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.3f}".rstrip("0").rstrip(".")
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render rows under headers as an aligned ASCII table."""
    str_rows: List[List[str]] = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [
        " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
        sep,
    ]
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_mapping(title: str, mapping: Mapping[str, object]) -> str:
    """Render a flat key/value mapping with a title line."""
    width = max((len(k) for k in mapping), default=0)
    lines = [title]
    for key, value in mapping.items():
        lines.append(f"  {key.ljust(width)} : {_fmt(value)}")
    return "\n".join(lines)
