"""Small shared utilities: seeded RNG, percentile, Zipf, tables."""

from .rng import make_rng, spawn_rngs
from .percentile import percentile
from .zipf import ZipfSampler, zipf_weights
from .tables import format_table

__all__ = [
    "make_rng",
    "spawn_rngs",
    "percentile",
    "ZipfSampler",
    "zipf_weights",
    "format_table",
]
