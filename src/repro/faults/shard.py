"""Deterministic fault schedules for whole shard replicas.

The device-level :class:`~repro.faults.FaultPlan` kills *reads*; the
refresh plan kills *repairs*.  With R-way replica groups there is a
third failure grain — an entire replica process/device — and the
:class:`ShardFaultPlan` schedules those: crash windows (a replica goes
dark for a stretch of simulated time), flaps (a replica that fails a
random subset of dispatches), and degrades (a replica that serves
correctly but slower, the classic gray failure hedging exists for).

The determinism contract matches the other plans: every decision is a
pure function of (seed, salt, coordinates), so a chaos run replays
identically under a fixed seed.  Crash/flap/degrade *membership* draws
key on (shard, replica) only — a crashed replica is crashed no matter
how the trace interleaves — while flap failures additionally key on the
group's dispatch sequence number.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Tuple

from ..errors import ConfigError
from .plan import unit_draw

# Distinct salts decorrelate the per-fault-kind draws (same scheme as
# the device-plan salts in faults/plan.py).
_SALT_CRASH = 0xDEADBEA7
_SALT_CRASH_AT = 0x0A11D0E5
_SALT_FLAP = 0xF1A9F1A9
_SALT_FLAP_AT = 0xF1A9A77E
_SALT_DEGRADE = 0xDE96ADE5

_RATE_FIELDS = ("crash_rate", "flap_rate", "flap_failure_rate", "degrade_rate")


@dataclass(frozen=True)
class ShardFaultPlan:
    """A deterministic schedule of replica-grain faults.

    Attributes:
        seed: root of every draw; identical plans produce identical
            fault sequences on identical dispatch sequences.
        crash_rate: fraction of (shard, replica) units that crash.  A
            crashed replica fails every dispatch inside its window.
        crash_after_us: earliest possible crash start.
        horizon_us: crash starts are drawn uniformly in
            ``[crash_after_us, horizon_us)`` — size it to the trace's
            simulated makespan so crashes land mid-serve.
        crash_duration_us: length of each crash window (``inf`` =
            the replica never comes back; resyncs keep failing their
            probes until the window ends).
        flap_rate: fraction of replicas that flap.
        flap_failure_rate: per-dispatch failure probability on a
            flapping replica.
        degrade_rate: fraction of replicas that are gray-degraded.
        degrade_factor: latency multiplier on a degraded replica
            (must be >= 1; this is the straggler hedging targets).
    """

    seed: int = 0
    crash_rate: float = 0.0
    crash_after_us: float = 0.0
    horizon_us: float = 1_000_000.0
    crash_duration_us: float = math.inf
    flap_rate: float = 0.0
    flap_failure_rate: float = 0.5
    degrade_rate: float = 0.0
    degrade_factor: float = 3.0

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.horizon_us <= 0:
            raise ConfigError(
                f"horizon_us must be positive, got {self.horizon_us}"
            )
        if not 0.0 <= self.crash_after_us < self.horizon_us:
            raise ConfigError(
                f"crash_after_us must be in [0, horizon_us), got "
                f"{self.crash_after_us}"
            )
        if self.crash_duration_us <= 0:
            raise ConfigError(
                f"crash_duration_us must be positive, got "
                f"{self.crash_duration_us}"
            )
        if self.degrade_factor < 1.0:
            raise ConfigError(
                f"degrade_factor must be >= 1, got {self.degrade_factor}"
            )

    # -- queries --------------------------------------------------------------

    def crash_window(
        self, shard: int, replica: int
    ) -> Optional[Tuple[float, float]]:
        """The replica's ``(start_us, end_us)`` crash window, or None."""
        if self.crash_rate <= 0.0:
            return None
        if unit_draw(self.seed, _SALT_CRASH, shard, replica) >= self.crash_rate:
            return None
        span = self.horizon_us - self.crash_after_us
        start = self.crash_after_us + span * unit_draw(
            self.seed, _SALT_CRASH_AT, shard, replica
        )
        return start, start + self.crash_duration_us

    def crashed(self, shard: int, replica: int, now_us: float) -> bool:
        """True when ``now_us`` falls inside the replica's crash window."""
        window = self.crash_window(shard, replica)
        if window is None:
            return False
        start, end = window
        return start <= now_us < end

    def draw_flap(self, shard: int, replica: int, seq: int) -> bool:
        """Transient-failure draw for one dispatch on a flapping replica."""
        if self.flap_rate <= 0.0 or self.flap_failure_rate <= 0.0:
            return False
        if unit_draw(self.seed, _SALT_FLAP, shard, replica) >= self.flap_rate:
            return False
        draw = unit_draw(self.seed, _SALT_FLAP_AT, shard, replica, seq)
        return draw < self.flap_failure_rate

    def degrade_multiplier(self, shard: int, replica: int) -> float:
        """Latency multiplier for this replica (1.0 = not degraded)."""
        if self.degrade_rate <= 0.0:
            return 1.0
        draw = unit_draw(self.seed, _SALT_DEGRADE, shard, replica)
        return self.degrade_factor if draw < self.degrade_rate else 1.0

    # -- (de)serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain JSON-able representation (``inf`` durations as null)."""
        duration = (
            None
            if math.isinf(self.crash_duration_us)
            else self.crash_duration_us
        )
        return {
            "seed": self.seed,
            "crash_rate": self.crash_rate,
            "crash_after_us": self.crash_after_us,
            "horizon_us": self.horizon_us,
            "crash_duration_us": duration,
            "flap_rate": self.flap_rate,
            "flap_failure_rate": self.flap_failure_rate,
            "degrade_rate": self.degrade_rate,
            "degrade_factor": self.degrade_factor,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardFaultPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown shard fault plan fields {unknown}")
        kwargs = dict(data)
        if kwargs.get("crash_duration_us") is None:
            kwargs.pop("crash_duration_us", None)
        return cls(**kwargs)

    @classmethod
    def from_spec(cls, spec: str) -> "ShardFaultPlan":
        """Parse an inline ``key=value,...`` spec or a JSON file path.

        Examples::

            ShardFaultPlan.from_spec("crash=0.1,horizon_us=200000")
            ShardFaultPlan.from_spec("flap=0.25,seed=3")
            ShardFaultPlan.from_spec("plans/replica-chaos.json")

        Short aliases ``crash``, ``flap``, ``degrade`` map to the
        ``*_rate`` fields.
        """
        text = spec.strip()
        if not text:
            raise ConfigError("empty shard fault plan spec")
        path = Path(text)
        if text.endswith(".json") or path.is_file():
            try:
                return cls.from_dict(json.loads(path.read_text()))
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(
                    f"cannot load shard fault plan {text}: {exc}"
                )
        aliases = {
            "crash": "crash_rate",
            "flap": "flap_rate",
            "degrade": "degrade_rate",
        }
        field_names = {f.name for f in fields(cls)}
        kwargs: dict = {}
        for item in text.split(","):
            if "=" not in item:
                raise ConfigError(
                    f"shard fault plan item {item!r} is not key=value"
                )
            key, _, value = item.partition("=")
            key = aliases.get(key.strip(), key.strip())
            value = value.strip()
            if key not in field_names:
                raise ConfigError(f"unknown shard fault plan key {key!r}")
            try:
                kwargs[key] = int(value) if key == "seed" else float(value)
            except ValueError:
                raise ConfigError(
                    f"shard fault plan value {value!r} for {key} is not "
                    f"numeric"
                )
        return cls(**kwargs)
