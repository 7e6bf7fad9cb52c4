"""Bounded Zipf sampling.

Recommendation traces are heavily skewed: item popularity follows an
approximate power law.  The generators in :mod:`repro.workloads` sample
items from a *bounded* Zipf distribution over ``n`` ranks with exponent
``alpha`` — unlike :func:`numpy.random.Generator.zipf`, which is unbounded
and only supports ``alpha > 1``.

Sampling uses the inverse-CDF method over a precomputed cumulative weight
table, which is O(log n) per draw and exact for any ``alpha >= 0``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .rng import RngLike, make_rng


def zipf_weights(n: int, alpha: float) -> np.ndarray:
    """Return normalized Zipf weights ``w[i] ∝ 1/(i+1)^alpha`` for n ranks."""
    if n <= 0:
        raise ConfigError(f"n must be positive, got {n}")
    if alpha < 0:
        raise ConfigError(f"alpha must be >= 0, got {alpha}")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    return weights / weights.sum()


class ZipfSampler:
    """Draw ranks in ``[0, n)`` with probability proportional to 1/rank^alpha.

    ``alpha = 0`` degenerates to the uniform distribution; larger alpha
    concentrates mass on low ranks (hot items).
    """

    def __init__(self, n: int, alpha: float, seed: RngLike = None) -> None:
        self._cdf = np.cumsum(zipf_weights(n, alpha))
        # Guard against floating-point round-off leaving the last entry
        # fractionally below 1.0, which would make searchsorted return n.
        self._cdf[-1] = 1.0
        self._rng = make_rng(seed)
        self.n = n
        self.alpha = alpha

    def sample(self, size: int = 1) -> np.ndarray:
        """Draw ``size`` independent ranks as an int64 array."""
        if size < 0:
            raise ConfigError(f"size must be >= 0, got {size}")
        u = self._rng.random(size)
        return np.searchsorted(self._cdf, u, side="right").astype(np.int64)

    def sample_one(self) -> int:
        """Draw a single rank."""
        return int(self.sample(1)[0])
