"""Bounded latency reservoir and the shared percentile helper.

Device and serving stats used to keep one float per observed latency for
the lifetime of a device — unbounded memory on long traces.  The
:class:`LatencyReservoir` replaces those lists with classic reservoir
sampling (Algorithm R): the first ``capacity`` samples are kept exactly,
and every later sample replaces a uniformly random retained one, so the
retained set stays a uniform sample of the whole stream at O(capacity)
memory.  The RNG is seeded per reservoir, so runs are deterministic.

:func:`percentile` is the one percentile implementation shared by
:class:`~repro.serving.stats.ServingReport`, the open-loop report, and
the device reservoirs — all three quote the same ``numpy.percentile``
(linear interpolation) semantics.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, List, Sequence

import numpy as np

DEFAULT_CAPACITY = 4096
_RESERVOIR_SEED = 0x5EED


def percentile(values: "Sequence[float] | np.ndarray", pct: float) -> float:
    """``float(np.percentile(values, pct))`` with an empty-input guard.

    The single percentile definition every report in the library quotes;
    0.0 on an empty sample, matching the historical report behaviour.
    """
    if len(values) == 0:
        return 0.0
    return float(np.percentile(values, pct))


class LatencyReservoir:
    """Bounded uniform sample of a latency stream (Algorithm R).

    Behaves like a read-only sequence of the retained samples (``len``,
    iteration, indexing), plus ``append``/``extend`` on the write side —
    a drop-in for the unbounded lists it replaces.  ``observed`` counts
    every sample ever offered; ``len`` is bounded by ``capacity``.
    """

    __slots__ = ("_capacity", "_values", "_observed", "_rng")

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        seed: int = _RESERVOIR_SEED,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._values: List[float] = []
        self._observed = 0
        self._rng = random.Random(seed)

    @property
    def capacity(self) -> int:
        """Maximum retained samples."""
        return self._capacity

    @property
    def observed(self) -> int:
        """Samples offered over the reservoir's lifetime."""
        return self._observed

    def append(self, value: float) -> None:
        """Offer one sample."""
        self.extend((value,))

    def extend(self, values: Iterable[float]) -> None:
        """Offer an iterable of samples in order (Algorithm R).

        A full reservoir draws the slot by rejection over
        ``getrandbits`` — the draws ``randrange(observed)`` makes on
        CPython, without its three calls per sample.
        """
        retained = self._values
        capacity = self._capacity
        observed = self._observed
        getrandbits = self._rng.getrandbits
        for value in values:
            observed += 1
            if len(retained) < capacity:
                retained.append(float(value))
                continue
            bits = observed.bit_length()
            slot = getrandbits(bits)
            while slot >= observed:
                slot = getrandbits(bits)
            if slot < capacity:
                retained[slot] = float(value)
        self._observed = observed

    def values(self) -> List[float]:
        """A copy of the retained samples (insertion/replacement order)."""
        return list(self._values)

    def percentile(self, pct: float) -> float:
        """Percentile over the retained sample (0.0 when empty)."""
        return percentile(self._values, pct)

    # -- sequence protocol (read side) --------------------------------------

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[float]:
        return iter(self._values)

    def __getitem__(self, index):
        return self._values[index]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LatencyReservoir(capacity={self._capacity}, "
            f"retained={len(self._values)}, observed={self._observed})"
        )
