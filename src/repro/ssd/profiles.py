"""SSD device profiles.

Each profile captures the service parameters the simulation uses —
per-read latency, aggregate sequential bandwidth, submission queue depth,
and the host-side cost of issuing one command.  The presets follow the
devices in the paper's evaluation:

* **P5800X** — Intel Optane: ~5 µs read latency, > 7 GB/s bandwidth
  (paper §2.2 quotes exactly these figures);
* **P4510** — Intel NAND TLC: ~80 µs read latency, ~3.2 GB/s;
* **RAID0_2X_P5800X** — two P5800X striped, doubling bandwidth at equal
  latency (paper Figure 17b);
* **GENERIC_NAND** — a conservative commodity drive for examples;
* **P5800X_NDP** — a P5800X with an in-device gather engine (RecSSD-style
  near-data processing, see :class:`NdpSsdProfile`).

``submit_overhead_us`` models the per-command host cost of a submission
(doorbell write, SQE build — SPDK measures this at a fraction of a µs to
a few µs depending on the stack).  All presets keep it at 0.0 so default
serving is bit-identical to earlier releases; the batched command path
exists to amortize it once it is turned on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from ..errors import ConfigError


@dataclass(frozen=True)
class SsdProfile:
    """Service parameters of one simulated drive.

    Attributes:
        name: human-readable identifier.
        read_latency_us: fixed per-read access latency (µs).
        bandwidth_gb_s: aggregate transfer ceiling (GB/s, decimal GB).
        queue_depth: maximum in-flight reads accepted before submit blocks.
        submit_overhead_us: host CPU charged per submitted command
            (0.0 = free submission, the historical behaviour).  Batched
            submission charges it once per batch instead of once per
            page — that amortization is the whole point of the batched
            command path.
    """

    name: str
    read_latency_us: float
    bandwidth_gb_s: float
    queue_depth: int = 128
    submit_overhead_us: float = 0.0

    def __post_init__(self) -> None:
        if self.read_latency_us <= 0:
            raise ConfigError(
                f"read latency must be positive, got {self.read_latency_us}"
            )
        if self.bandwidth_gb_s <= 0:
            raise ConfigError(
                f"bandwidth must be positive, got {self.bandwidth_gb_s}"
            )
        if self.queue_depth <= 0:
            raise ConfigError(
                f"queue depth must be positive, got {self.queue_depth}"
            )
        if self.submit_overhead_us < 0:
            raise ConfigError(
                f"submit overhead must be >= 0, got "
                f"{self.submit_overhead_us}"
            )

    @property
    def supports_gather(self) -> bool:
        """Whether the device executes in-device multi-key gathers."""
        return False

    def transfer_time_us(self, num_bytes: int) -> float:
        """Time to move ``num_bytes`` through the device at full bandwidth."""
        if num_bytes < 0:
            raise ConfigError(f"num_bytes must be >= 0, got {num_bytes}")
        return num_bytes / (self.bandwidth_gb_s * 1e9) * 1e6

    def scaled(
        self,
        name: str,
        bandwidth_factor: float,
        queue_depth: Optional[int] = None,
    ) -> "SsdProfile":
        """Derived profile with bandwidth multiplied by ``bandwidth_factor``.

        ``queue_depth`` overrides the submission-queue depth of the
        derived profile; omitted, the base depth is kept — so a profile
        whose bandwidth was scaled to stand in for an N-drive array
        (like the ``RAID0_2X_P5800X`` preset) models the array's
        bandwidth but only a single drive's queue, unless the depth is
        scaled along with it here.

        Subclass fields (e.g. the NDP gather parameters) are preserved.
        """
        if bandwidth_factor <= 0:
            raise ConfigError(
                f"bandwidth_factor must be positive, got {bandwidth_factor}"
            )
        return replace(
            self,
            name=name,
            bandwidth_gb_s=self.bandwidth_gb_s * bandwidth_factor,
            queue_depth=(
                self.queue_depth if queue_depth is None else queue_depth
            ),
        )


@dataclass(frozen=True)
class NdpSsdProfile(SsdProfile):
    """A drive with an in-device gather engine (near-data processing).

    Models a RecSSD-style device: a :class:`~repro.ssd.commands.
    GatherCommand` is executed entirely inside the drive — pages move
    from media to the controller at the *internal* bandwidth, the
    controller CPU parses them and scans the slot candidates, and only
    the valid embedding bytes cross the host bus.

    Attributes:
        gather_setup_us: fixed controller cost to start one gather
            (command parse, mapping-table lookups).
        scan_us_per_candidate: controller CPU per slot candidate scanned
            while filtering the parsed pages.
        internal_bandwidth_gb_s: media → controller bandwidth (``None``
            = same as the bus bandwidth; real devices are usually
            somewhat faster internally than their host link).
    """

    gather_setup_us: float = 2.0
    scan_us_per_candidate: float = 0.02
    internal_bandwidth_gb_s: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.gather_setup_us < 0:
            raise ConfigError(
                f"gather_setup_us must be >= 0, got {self.gather_setup_us}"
            )
        if self.scan_us_per_candidate < 0:
            raise ConfigError(
                f"scan_us_per_candidate must be >= 0, got "
                f"{self.scan_us_per_candidate}"
            )
        if (
            self.internal_bandwidth_gb_s is not None
            and self.internal_bandwidth_gb_s <= 0
        ):
            raise ConfigError(
                f"internal bandwidth must be positive, got "
                f"{self.internal_bandwidth_gb_s}"
            )

    @property
    def supports_gather(self) -> bool:
        """NDP profiles execute gathers in-device."""
        return True

    @property
    def media_bandwidth_gb_s(self) -> float:
        """Effective media → controller bandwidth for gathers."""
        if self.internal_bandwidth_gb_s is not None:
            return self.internal_bandwidth_gb_s
        return self.bandwidth_gb_s

    def internal_transfer_time_us(self, num_bytes: int) -> float:
        """Time to move ``num_bytes`` from media to the controller."""
        if num_bytes < 0:
            raise ConfigError(f"num_bytes must be >= 0, got {num_bytes}")
        return num_bytes / (self.media_bandwidth_gb_s * 1e9) * 1e6

    @classmethod
    def from_base(
        cls, base: SsdProfile, name: Optional[str] = None, **overrides
    ) -> "NdpSsdProfile":
        """An NDP profile inheriting ``base``'s timing parameters."""
        return cls(
            name=name or f"{base.name} (NDP)",
            read_latency_us=base.read_latency_us,
            bandwidth_gb_s=base.bandwidth_gb_s,
            queue_depth=base.queue_depth,
            submit_overhead_us=base.submit_overhead_us,
            **overrides,
        )


P5800X = SsdProfile(
    name="Intel Optane P5800X",
    read_latency_us=5.0,
    bandwidth_gb_s=7.2,
    queue_depth=128,
)

P4510 = SsdProfile(
    name="Intel P4510",
    read_latency_us=80.0,
    bandwidth_gb_s=3.2,
    queue_depth=256,
)

RAID0_2X_P5800X = P5800X.scaled("RAID0 2x P5800X", bandwidth_factor=2.0)

GENERIC_NAND = SsdProfile(
    name="Generic NAND",
    read_latency_us=100.0,
    bandwidth_gb_s=2.0,
    queue_depth=64,
)

# An internal bandwidth above the host link (Optane media is not the
# bottleneck) and a few hundredths of a µs of controller time per slot
# scanned — a wimpy-core controller parsing fixed-stride float32 slots.
P5800X_NDP = NdpSsdProfile.from_base(
    P5800X,
    name="Intel Optane P5800X (NDP gather)",
    gather_setup_us=2.0,
    scan_us_per_candidate=0.02,
    internal_bandwidth_gb_s=9.0,
)

PROFILES: Dict[str, SsdProfile] = {
    "p5800x": P5800X,
    "p4510": P4510,
    "raid0": RAID0_2X_P5800X,
    "nand": GENERIC_NAND,
    "p5800x-ndp": P5800X_NDP,
}
