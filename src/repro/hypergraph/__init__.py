"""Hypergraph substrate.

Queries become hyperedges, embedding keys become vertices.  The offline
phase (partitioning + replication) operates entirely on this structure.
"""

from .hypergraph import Hypergraph
from .builder import build_hypergraph, build_weighted_hypergraph
from .csr import HypergraphCsr, gather_rows
from .stats import HypergraphStats, compute_stats, vertex_cooccurrence
from .sampling import sample_trace

__all__ = [
    "Hypergraph",
    "HypergraphCsr",
    "gather_rows",
    "build_hypergraph",
    "build_weighted_hypergraph",
    "HypergraphStats",
    "compute_stats",
    "vertex_cooccurrence",
    "sample_trace",
]
