"""Embedding placement: page layouts and the online-phase indexes.

A :class:`PageLayout` is the offline phase's output — which keys live on
which SSD page, possibly with replicas.  The online phase consumes it
through two DRAM-resident indexes (paper §6):

* :class:`ForwardIndex` — key → pages containing it (optionally shrunk to
  the first ``k`` entries, §6.1);
* :class:`InvertIndex` — page → keys it contains.
"""

from .layout import PageLayout, layout_from_partition
from .forward_index import ForwardIndex
from .invert_index import InvertIndex
from .build import build_indexes
from .serialize import load_layout, save_layout
from .diagnostics import LayoutReport, hot_pair_coverage, layout_report

__all__ = [
    "PageLayout",
    "layout_from_partition",
    "ForwardIndex",
    "InvertIndex",
    "build_indexes",
    "save_layout",
    "load_layout",
    "LayoutReport",
    "layout_report",
    "hot_pair_coverage",
]
