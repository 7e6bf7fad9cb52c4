"""Time-varying arrival-rate profiles.

Production recommendation traffic is not a constant-rate Poisson stream:
it spikes on events.  A profile is a rate function ``qps(t_us)`` that
:func:`sample_arrivals` follows via thinning (non-homogeneous Poisson
sampling), so capacity planning can be done against the *peak*, not the
average.
"""

from __future__ import annotations

from typing import Callable, List

from ..errors import WorkloadError
from ..utils.rng import RngLike, make_rng

RateFn = Callable[[float], float]


def burst_rate(
    base_qps: float,
    burst_factor: float = 4.0,
    burst_start_us: float = 0.0,
    burst_duration_us: float = 1e5,
) -> RateFn:
    """A flat profile with one rectangular burst (flash-sale traffic)."""
    if base_qps <= 0:
        raise WorkloadError(f"base_qps must be positive, got {base_qps}")
    if burst_factor < 1.0:
        raise WorkloadError(
            f"burst_factor must be >= 1, got {burst_factor}"
        )
    if burst_duration_us <= 0:
        raise WorkloadError(
            f"burst_duration_us must be positive, got {burst_duration_us}"
        )
    burst_end = burst_start_us + burst_duration_us

    def rate(t_us: float) -> float:
        if burst_start_us <= t_us < burst_end:
            return base_qps * burst_factor
        return base_qps

    return rate


def sample_arrivals(
    rate_fn: RateFn,
    count: int,
    peak_qps: float,
    seed: RngLike = 0,
) -> List[float]:
    """Draw ``count`` arrival times from a non-homogeneous Poisson process.

    Uses thinning: candidate arrivals are drawn at the ``peak_qps``
    envelope rate and accepted with probability ``rate(t) / peak``.

    Args:
        rate_fn: instantaneous rate in qps at simulated time t (µs).
        count: arrivals to produce.
        peak_qps: an upper bound on ``rate_fn`` (violations raise).
    """
    if count <= 0:
        raise WorkloadError(f"count must be positive, got {count}")
    if peak_qps <= 0:
        raise WorkloadError(f"peak_qps must be positive, got {peak_qps}")
    rng = make_rng(seed)
    arrivals: List[float] = []
    t = 0.0
    mean_gap_us = 1e6 / peak_qps
    while len(arrivals) < count:
        t += float(rng.exponential(mean_gap_us))
        rate = rate_fn(t)
        if rate > peak_qps * (1 + 1e-9):
            raise WorkloadError(
                f"rate {rate} exceeds the declared peak {peak_qps} at t={t}"
            )
        if rng.random() < rate / peak_qps:
            arrivals.append(t)
    return arrivals
