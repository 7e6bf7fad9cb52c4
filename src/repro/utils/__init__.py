"""Small shared utilities: validation, seeded RNG, percentile, Zipf, tables."""

from .validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability,
)
from .rng import make_rng, spawn_rngs
from .percentile import percentile
from .zipf import ZipfSampler, zipf_weights
from .tables import format_table, format_series

__all__ = [
    "check_fraction",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "make_rng",
    "spawn_rngs",
    "percentile",
    "ZipfSampler",
    "zipf_weights",
    "format_table",
    "format_series",
]
