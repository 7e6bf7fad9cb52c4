"""Exception hierarchy for the MaxEmbed reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class at API boundaries.  Subclasses are split
by subsystem to keep error handling precise without forcing users to
import deep modules.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied (bad ratio, size, …)."""


class HypergraphError(ReproError):
    """Structural problem with a hypergraph (unknown vertex, empty edge, …)."""


class PartitionError(ReproError):
    """A partitioner produced or received an invalid partition."""


class PlacementError(ReproError):
    """A page layout or index violates its invariants."""


class StorageError(ReproError):
    """The simulated SSD rejected a request (bad page id, closed device, …)."""


class DeviceInterfaceError(StorageError):
    """A device wrapper was mounted over an incompatible inner device.

    Raised at *mount* time (wrapper construction), not mid-query: e.g.
    :class:`~repro.faults.device.FaultySsd` around an object that lacks
    the batched command interface (``submit_batch``).
    """


class DeviceFault(StorageError):
    """An injected device fault: a read failed, timed out, or corrupted.

    Carries enough context for retry/recovery machinery to account the
    failure in simulated time:

    Attributes:
        page_id: the page whose read faulted.
        kind: fault taxonomy — ``"read_error"`` (transient command
            failure), ``"dead_page"`` (persistent media failure),
            ``"brownout"`` (device-wide unavailability window), or
            ``"corrupt"`` (payload failed its integrity check).
        failed_at_us: simulated time at which the failure was observed;
            callers resume their clock from here before retrying.
    """

    def __init__(
        self,
        message: str,
        *,
        page_id: "int | None" = None,
        kind: str = "read_error",
        failed_at_us: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.page_id = page_id
        self.kind = kind
        self.failed_at_us = failed_at_us


class CorruptArtifactError(PlacementError, ConfigError):
    """A persisted artifact failed its integrity check.

    Raised when a checksummed artifact (layout, store bundle, sharded
    layout) is truncated, bit-flipped, or carries the
    wrong magic/version.  Subclasses both :class:`PlacementError` and
    :class:`ConfigError` so pre-checksum call sites that catch those
    (layout loads / bundle loads respectively) keep working unchanged.
    """


class CacheError(ReproError):
    """The DRAM cache was misused (non-positive capacity, …)."""


class ServingError(ReproError):
    """The online serving engine could not satisfy a query."""


class ShardUnavailableError(ServingError):
    """A cluster shard failed hard while serving a scattered fragment.

    Attributes:
        shard: id of the failing shard.
    """

    def __init__(self, message: str, *, shard: "int | None" = None) -> None:
        super().__init__(message)
        self.shard = shard


class ReplicaFault(ServingError):
    """An injected replica-level fault (crash window or flap draw).

    Raised by a :class:`~repro.cluster.replicas.ReplicaGroup` attempt
    when the :class:`~repro.faults.ShardFaultPlan` says the targeted
    replica is down; the group's failover loop catches it and retries
    on the next-healthiest replica.

    Attributes:
        shard: logical shard the replica belongs to.
        replica: replica index within the group.
        kind: ``"crash"`` (inside a crash window) or ``"flap"``
            (per-dispatch transient failure).
    """

    def __init__(
        self,
        message: str,
        *,
        shard: int = 0,
        replica: int = 0,
        kind: str = "crash",
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.replica = replica
        self.kind = kind


class ReplicaExhaustedError(ServingError):
    """Every replica of a shard failed to serve a fragment.

    The replica group's failover loop ran out of candidates: each
    live replica either raised or blew the per-attempt deadline.  The
    router maps this onto the existing shard-grain outcome taxonomy
    (``kind == "timeout"`` → ``SHARD_TIMEOUT``, else ``SHARD_ERROR``).

    Attributes:
        shard: logical shard whose group was exhausted.
        kind: ``"timeout"`` when every attempt timed out, ``"error"``
            otherwise.
        attempts: replicas tried before giving up.
        elapsed_us: simulated time burned across the failed attempts
            (deadline waits; instant-failure attempts cost nothing).
    """

    def __init__(
        self,
        message: str,
        *,
        shard: "int | None" = None,
        kind: str = "error",
        attempts: int = 0,
        elapsed_us: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.kind = kind
        self.attempts = attempts
        self.elapsed_us = elapsed_us


class RefreshError(ServingError):
    """A refresh-daemon repair step failed (rebuild, staging, or swap).

    Attributes:
        stage: where the failure happened — ``"rebuild"``, ``"stage"``
            (artifact staging / CRC validation), or ``"swap"``.
    """

    def __init__(self, message: str, *, stage: str = "rebuild") -> None:
        super().__init__(message)
        self.stage = stage


class WorkloadError(ReproError):
    """A trace or synthetic workload specification is invalid."""


class ExperimentError(ReproError):
    """An experiment harness was configured inconsistently."""
