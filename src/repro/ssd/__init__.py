"""Simulated NVMe SSD substrate.

The paper issues reads to real Optane/NAND drives through SPDK.  This
package substitutes a discrete-event device model that preserves the two
properties every result in the paper depends on:

* a fixed **page granularity** — a read always transfers a whole page, so
  read amplification is what the placement layer controls;
* a calibrated **service model** — per-read latency plus an aggregate
  bandwidth ceiling, per device profile (P5800X, P4510, RAID-0).

The API mirrors an SPDK queue pair: ``submit_read`` is asynchronous and
returns a ticket; ``poll`` retires completions.  All time is simulated
(microseconds as floats) so experiments are deterministic and fast.
"""

from .commands import (
    DeviceCommand,
    GatherCommand,
    PacedReadCommand,
    ReadCommand,
)
from .profiles import (
    GENERIC_NAND,
    NdpSsdProfile,
    P4510,
    P5800X,
    P5800X_NDP,
    PROFILES,
    RAID0_2X_P5800X,
    SsdProfile,
)
from .page_store import PageStore
from .device import Completion, DeviceStats, SimulatedSsd
from .tracing import IoRecord, TracingDevice

__all__ = [
    "SsdProfile",
    "NdpSsdProfile",
    "P5800X",
    "P4510",
    "RAID0_2X_P5800X",
    "GENERIC_NAND",
    "P5800X_NDP",
    "PROFILES",
    "PageStore",
    "SimulatedSsd",
    "Completion",
    "DeviceStats",
    "TracingDevice",
    "IoRecord",
    "ReadCommand",
    "GatherCommand",
    "PacedReadCommand",
    "DeviceCommand",
]
