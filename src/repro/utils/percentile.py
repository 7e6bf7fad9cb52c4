"""The one percentile helper every report in the library quotes."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def percentile(values: "Sequence[float] | np.ndarray", pct: float) -> float:
    """``float(np.percentile(values, pct))`` with an empty-input guard.

    Linear interpolation, as ``numpy.percentile``; 0.0 on an empty
    sample, matching the historical report behaviour.  Shared by
    :class:`~repro.serving.stats.ServingReport`, the replica groups'
    hedge delay and :class:`~repro.ssd.tracing.TracingDevice`.
    """
    if len(values) == 0:
        return 0.0
    return float(np.percentile(values, pct))
