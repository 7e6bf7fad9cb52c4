"""Configuration of the self-healing refresh daemon."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError


@dataclass(frozen=True)
class RefreshConfig:
    """Knobs of the drift-watch → repair-ladder → hot-swap loop.

    Attributes:
        window_size: live queries kept in the sliding traffic window the
            drift probe evaluates against.
        min_window: observed queries required before the daemon acts at
            all (probing a near-empty window is noise).
        probe_max_queries: cap on window queries each staleness probe
            evaluates (None = the whole window).
        interval_s: background-thread period; ``None`` disables the
            thread entirely — the daemon only moves when ``step()`` is
            called (deterministic mode, used by tests and benches).
        trigger_share: drift fires when the active layout's
            share-of-best on the probe window falls below this
            (single-engine mode, where registered rebuilds give the
            probe alternatives to compare against).
        clear_share: hysteresis re-arm: drift clears only once the share
            recovers above this (must be >= ``trigger_share``).
        drop_fraction: the page-read drift signal — drift also fires
            when the active layout's effective-bandwidth fraction on the
            window drops by at least this fraction below its baseline
            (the value recorded when the layout was installed).
        tier_first: take the cheap tier re-plan rung before any rebuild
            (only when the engine runs a pinned/hybrid DRAM tier).
        full_replace_fraction: cluster mode — when at least this
            fraction of shards is simultaneously stale past the tier
            rung, escalate to one full re-placement instead of N
            single-shard rebuilds.
        max_retries: rebuild/swap attempts per repair before the repair
            is abandoned (counts one watchdog failure).
        backoff_s: base sleep between retry attempts (doubles per
            attempt; kept tiny by default so tests stay fast).
        shadow_margin: swap gate — the candidate layout must score at
            least ``margin ×`` the active layout's effective bandwidth
            on the probe window, or the swap is rejected.
        max_failures: consecutive abandoned repairs before the watchdog
            marks the daemon degraded-but-serving (repairs stop, the
            engine keeps serving untouched).
        keep_cache: carry warm DRAM caches across hot swaps.
        staging_dir: directory for CRC-validated staged artifacts
            (``None`` = a temporary directory per artifact, removed
            with it).
    """

    window_size: int = 2048
    min_window: int = 128
    probe_max_queries: Optional[int] = 400
    interval_s: Optional[float] = 1.0
    trigger_share: float = 0.92
    clear_share: float = 0.97
    drop_fraction: float = 0.15
    tier_first: bool = True
    full_replace_fraction: float = 0.5
    max_retries: int = 3
    backoff_s: float = 0.05
    shadow_margin: float = 1.0
    max_failures: int = 5
    keep_cache: bool = True
    staging_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.window_size <= 0:
            raise ConfigError(
                f"window_size must be positive, got {self.window_size}"
            )
        if not 0 < self.min_window <= self.window_size:
            raise ConfigError(
                f"min_window must be in (0, window_size], got "
                f"{self.min_window}"
            )
        if self.probe_max_queries is not None and self.probe_max_queries <= 0:
            raise ConfigError(
                f"probe_max_queries must be positive, got "
                f"{self.probe_max_queries}"
            )
        if self.interval_s is not None and self.interval_s <= 0:
            raise ConfigError(
                f"interval_s must be positive (or None), got "
                f"{self.interval_s}"
            )
        if not 0.0 < self.trigger_share <= 1.0:
            raise ConfigError(
                f"trigger_share must be in (0, 1], got {self.trigger_share}"
            )
        if not self.trigger_share <= self.clear_share <= 1.0:
            raise ConfigError(
                f"clear_share must be in [trigger_share, 1], got "
                f"{self.clear_share}"
            )
        if not 0.0 <= self.drop_fraction < 1.0:
            raise ConfigError(
                f"drop_fraction must be in [0, 1), got {self.drop_fraction}"
            )
        if not 0.0 < self.full_replace_fraction <= 1.0:
            raise ConfigError(
                f"full_replace_fraction must be in (0, 1], got "
                f"{self.full_replace_fraction}"
            )
        if self.max_retries <= 0:
            raise ConfigError(
                f"max_retries must be positive, got {self.max_retries}"
            )
        if self.backoff_s < 0:
            raise ConfigError(
                f"backoff_s must be >= 0, got {self.backoff_s}"
            )
        if self.shadow_margin <= 0:
            raise ConfigError(
                f"shadow_margin must be positive, got {self.shadow_margin}"
            )
        if self.max_failures <= 0:
            raise ConfigError(
                f"max_failures must be positive, got {self.max_failures}"
            )
