"""Docs that name code are checked (ROADMAP 6(d)).

Every backticked ``repro.…`` dotted name in ``docs/paper_mapping.md``,
DESIGN.md §3 (the module map) and README's "What's in the box" table
must import: the longest importable module prefix, then attributes.  A
rename or a deletion that leaves a pointer behind fails here instead of
being found by a reader.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOTTED = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)")


def _section(path: str, start: str, end: str) -> str:
    text = (ROOT / path).read_text()
    return text[text.index(start) : text.index(end)]


SOURCES = {
    "docs/paper_mapping.md": (ROOT / "docs/paper_mapping.md").read_text(),
    "DESIGN.md §3": _section(
        "DESIGN.md", "## 3. System inventory", "## 4. Per-experiment index"
    ),
    "README.md table": _section(
        "README.md", "## What's in the box", "## Install"
    ),
}
POINTERS = sorted(
    (source, name)
    for source, text in SOURCES.items()
    for name in set(DOTTED.findall(text))
)


def resolve(dotted: str):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            target = getattr(target, attribute)
        return target
    raise ModuleNotFoundError(dotted)


def test_every_source_names_code():
    for source in SOURCES:
        assert any(s == source for s, _ in POINTERS), source


@pytest.mark.parametrize("source,name", POINTERS)
def test_pointer_resolves(source, name):
    resolve(name)


def test_a_stale_pointer_would_fail():
    with pytest.raises(AttributeError):
        resolve(
            "repro.replication.ConnectivityPriorityStrategy"
            "._replica_page_for"  # the pointer PR 19 left behind
        )
    with pytest.raises(AttributeError):
        resolve("repro.partition.fast_shp")
