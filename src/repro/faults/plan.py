"""Deterministic, seeded fault schedules for the simulated device layer.

A :class:`FaultPlan` is pure configuration: *what* can go wrong and how
often.  Every fault decision is a pure function of the plan's seed plus
the read's coordinates (page id, retry attempt, submission sequence), so
a given (plan, trace) pair always produces the same fault sequence —
reruns, CI seeds, and differential tests are exactly reproducible.

Fault taxonomy (mirrors what NVMe deployments actually see):

* **transient read errors** — the command fails, an immediate retry may
  succeed (media retries, link CRC errors);
* **dead pages** — a fixed subset of pages fails *every* read (grown
  media defects); only a replica on another page can serve those keys;
* **latency spikes** — the read succeeds but takes far longer than the
  service model predicts (internal GC, thermal throttling);
* **corrupted payloads** — the read "succeeds" but the data fails its
  integrity check; the full read latency was paid before discovery;
* **brown-outs** — wall-clock windows during which the whole device
  rejects every submission (controller resets, firmware stalls).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Tuple

from ..errors import ConfigError

_MASK64 = (1 << 64) - 1

# Distinct salts decorrelate the per-fault-kind draws.
_SALT_DEAD = 0xD15EA5E0
_SALT_ERROR = 0x0BADF00D
_SALT_CORRUPT = 0xC0FFEE11
_SALT_SPIKE = 0x5EED5EED

_RATE_FIELDS = (
    "read_error_rate",
    "dead_page_rate",
    "corrupt_rate",
    "latency_spike_rate",
)


def _splitmix64(x: int) -> int:
    """SplitMix64 finalizer: a cheap, well-mixed 64-bit hash."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def unit_draw(seed: int, salt: int, *coords: int) -> float:
    """Deterministic uniform draw in [0, 1) from (seed, salt, coords)."""
    x = seed & _MASK64
    for c in coords:
        x = _splitmix64(x ^ ((c + salt) & _MASK64))
    return _splitmix64(x ^ salt) / 2.0**64


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of device faults.

    Attributes:
        seed: root of every fault draw; two plans with the same fields
            inject identical fault sequences on identical workloads.
        read_error_rate: per-attempt probability of a transient read
            failure (retries re-draw and may succeed).
        dead_page_rate: fraction of page ids that fail permanently; the
            draw depends only on (seed, page id), so a dead page is dead
            for every attempt of every query.
        corrupt_rate: per-attempt probability that a read returns a
            payload failing its integrity check; the full device latency
            is paid before the corruption is discovered.
        latency_spike_rate: per-attempt probability of a slow read.
        latency_spike_us: extra completion latency of a spiked read.
        brownouts: ``(start_us, end_us)`` windows during which every
            submission to the device fails (retried reads that back off
            past the window's end succeed again).
    """

    seed: int = 0
    read_error_rate: float = 0.0
    dead_page_rate: float = 0.0
    corrupt_rate: float = 0.0
    latency_spike_rate: float = 0.0
    latency_spike_us: float = 500.0
    brownouts: Tuple[Tuple[float, float], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.latency_spike_us < 0:
            raise ConfigError(
                f"latency_spike_us must be >= 0, got {self.latency_spike_us}"
            )
        windows = tuple(
            (float(start), float(end)) for start, end in self.brownouts
        )
        for start, end in windows:
            if start < 0 or end <= start:
                raise ConfigError(
                    f"brownout window ({start}, {end}) must satisfy "
                    f"0 <= start < end"
                )
        object.__setattr__(self, "brownouts", windows)

    # -- queries --------------------------------------------------------------

    def in_brownout(self, now_us: float) -> bool:
        """True when ``now_us`` falls inside a brown-out window."""
        return any(start <= now_us < end for start, end in self.brownouts)

    def brownout_end(self, now_us: float) -> float:
        """End of the window containing ``now_us`` (``now_us`` if none)."""
        for start, end in self.brownouts:
            if start <= now_us < end:
                return end
        return now_us

    def page_is_dead(self, page_id: int) -> bool:
        """Persistent-failure draw: depends only on (seed, page id)."""
        if self.dead_page_rate <= 0.0:
            return False
        return unit_draw(self.seed, _SALT_DEAD, page_id) < self.dead_page_rate

    def draw_read_error(self, page_id: int, attempt: int, seq: int) -> bool:
        """Transient-failure draw for one submission attempt."""
        if self.read_error_rate <= 0.0:
            return False
        draw = unit_draw(self.seed, _SALT_ERROR, page_id, attempt, seq)
        return draw < self.read_error_rate

    def draw_corrupt(self, page_id: int, attempt: int, seq: int) -> bool:
        """Corrupted-payload draw for one submission attempt."""
        if self.corrupt_rate <= 0.0:
            return False
        draw = unit_draw(self.seed, _SALT_CORRUPT, page_id, attempt, seq)
        return draw < self.corrupt_rate

    def draw_spike(self, page_id: int, attempt: int, seq: int) -> bool:
        """Latency-spike draw for one submission attempt."""
        if self.latency_spike_rate <= 0.0:
            return False
        draw = unit_draw(self.seed, _SALT_SPIKE, page_id, attempt, seq)
        return draw < self.latency_spike_rate

    # -- (de)serialization -----------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """A plan from its fields as JSON holds them (a ``--fault-plan``
        file): ``brownouts`` as a list of ``[start, end]`` pairs."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown fault plan fields {unknown}")
        kwargs = dict(data)
        if "brownouts" in kwargs:
            kwargs["brownouts"] = tuple(
                tuple(w) for w in kwargs["brownouts"]
            )
        return cls(**kwargs)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse an inline ``key=value,...`` spec or a JSON file path.

        Examples::

            FaultPlan.from_spec("read_error=0.05,seed=3")
            FaultPlan.from_spec("dead_page=0.01,brownout=1000:2500")
            FaultPlan.from_spec("plans/chaos.json")

        Short rate aliases (``read_error``, ``dead_page``, ``corrupt``,
        ``latency_spike``) map to the ``*_rate`` fields; ``brownout``
        takes ``start:end`` microseconds and may repeat.
        """
        text = spec.strip()
        if not text:
            raise ConfigError("empty fault plan spec")
        path = Path(text)
        if text.endswith(".json") or path.is_file():
            try:
                return cls.from_dict(json.loads(path.read_text()))
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot load fault plan {text}: {exc}")
        aliases = {
            "read_error": "read_error_rate",
            "dead_page": "dead_page_rate",
            "corrupt": "corrupt_rate",
            "latency_spike": "latency_spike_rate",
        }
        kwargs: dict = {}
        brownouts = []
        for item in text.split(","):
            if "=" not in item:
                raise ConfigError(
                    f"fault plan item {item!r} is not key=value"
                )
            key, _, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "brownout":
                start, _, end = value.partition(":")
                try:
                    brownouts.append((float(start), float(end)))
                except ValueError:
                    raise ConfigError(
                        f"brownout must be start:end, got {value!r}"
                    )
                continue
            key = aliases.get(key, key)
            field_types = {f.name: f.type for f in fields(cls)}
            if key not in field_types:
                raise ConfigError(f"unknown fault plan key {key!r}")
            try:
                kwargs[key] = int(value) if key == "seed" else float(value)
            except ValueError:
                raise ConfigError(
                    f"fault plan value {value!r} for {key} is not numeric"
                )
        if brownouts:
            kwargs["brownouts"] = tuple(brownouts)
        return cls(**kwargs)
