"""Deterministic fault schedules for the refresh daemon's repair paths.

The device-level :class:`~repro.faults.FaultPlan` injects faults into
*reads*; a refresh daemon has two more places to die — the offline
**rebuild** (a build crashes, or the staged artifact is torn/corrupted
on disk) and the **swap** (the process fails between installing a new
engine and committing the activation).  :class:`RefreshFaultPlan`
schedules those, with the same determinism contract as the device plan:
every draw is a pure function of (seed, salt, attempt coordinates), so
a chaos run replays identically under a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from .plan import unit_draw

# Distinct salts decorrelate the per-path draws (same scheme as the
# device-plan salts in faults/plan.py).
_SALT_REBUILD = 0xBADC0DE5
_SALT_STAGE = 0x70A57ED1
_SALT_SWAP = 0x51AB5EED

_RATE_FIELDS = (
    "rebuild_failure_rate",
    "corrupt_artifact_rate",
    "swap_failure_rate",
)


@dataclass(frozen=True)
class RefreshFaultPlan:
    """A deterministic schedule of refresh-loop faults.

    Attributes:
        seed: root of every draw; identical plans inject identical fault
            sequences for identical repair attempt sequences.
        rebuild_failure_rate: per-attempt probability that an offline
            rebuild dies before producing an artifact.
        corrupt_artifact_rate: per-attempt probability that the staged
            artifact is torn on disk — the CRC validation at load time
            must catch it (the layout never reaches the engine).
        swap_failure_rate: per-attempt probability that the swap step
            fails mid-flight, after at least one engine was installed —
            the rollback path must restore the previous version.
    """

    seed: int = 0
    rebuild_failure_rate: float = 0.0
    corrupt_artifact_rate: float = 0.0
    swap_failure_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")

    def draw_rebuild_failure(self, shard: int, attempt: int) -> bool:
        """Should this rebuild attempt crash before staging?"""
        if self.rebuild_failure_rate <= 0.0:
            return False
        draw = unit_draw(self.seed, _SALT_REBUILD, shard, attempt)
        return draw < self.rebuild_failure_rate

    def draw_corrupt_artifact(self, shard: int, attempt: int) -> bool:
        """Should this attempt's staged artifact be torn on disk?"""
        if self.corrupt_artifact_rate <= 0.0:
            return False
        draw = unit_draw(self.seed, _SALT_STAGE, shard, attempt)
        return draw < self.corrupt_artifact_rate

    def draw_swap_failure(self, shard: int, attempt: int) -> bool:
        """Should this swap attempt die mid-flight?"""
        if self.swap_failure_rate <= 0.0:
            return False
        draw = unit_draw(self.seed, _SALT_SWAP, shard, attempt)
        return draw < self.swap_failure_rate
