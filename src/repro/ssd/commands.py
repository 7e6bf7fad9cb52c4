"""Device command vocabulary: what the host asks a drive to do.

Splitting the *command set* from the *timing model* lets every device in
the stack (single drive, RAID-0 array, fault wrapper, tracing wrapper)
accept the same batched submissions while keeping its own service-time
rules.  Three commands cover the serving paths:

* :class:`ReadCommand` — transfer one whole page over the bus (the
  classic path; fault recovery submits a query's reads as these, one
  by one, so each can be retried on its own).
* :class:`GatherCommand` — a near-data-processing multi-key gather: the
  device reads the named pages internally, parses them, scans the slot
  candidates with its controller CPU, and puts only the valid embedding
  payload on the bus (the RecSSD-style path behind
  ``--executor ndp``).  Requires a profile with
  ``supports_gather`` (see
  :class:`~repro.ssd.profiles.NdpSsdProfile`).
* :class:`PacedReadCommand` — a whole query's page reads with the host
  CPU gap that precedes each submission, answered by **one**
  completion.  It is what the serial, pipelined and batched executors
  send (once per query); its meaning is the per-page loop
  :func:`~repro.ssd.device.run_paced_reads`, which a leaf drive fuses
  into one pass and wrappers run as written.

Read and gather commands are pure descriptions — they carry no timing;
a paced read carries only *host* time (the gaps), never device time.
Devices answer each command with one
:class:`~repro.ssd.device.Completion`, in submission order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

from ..errors import StorageError


@dataclass(frozen=True)
class ReadCommand:
    """Transfer one whole page over the bus."""

    page_id: int

    def __post_init__(self) -> None:
        if self.page_id < 0:
            raise StorageError(
                f"page id must be >= 0, got {self.page_id}"
            )


@dataclass(frozen=True)
class GatherCommand:
    """In-device multi-key gather over a set of pages.

    Attributes:
        page_ids: pages the device must read from media (internally; they
            never cross the bus whole).
        wanted_keys: embeddings the gather must deliver.
        candidates: slot candidates the controller CPU scans while
            parsing the pages (drives the modeled controller cost).
        payload_bytes: valid bytes put on the bus — the gathered
            embeddings only, not the raw pages.
    """

    page_ids: Tuple[int, ...]
    wanted_keys: int
    candidates: int
    payload_bytes: int

    def __post_init__(self) -> None:
        if not self.page_ids:
            raise StorageError("a gather must name at least one page")
        for page_id in self.page_ids:
            if page_id < 0:
                raise StorageError(
                    f"page id must be >= 0, got {page_id}"
                )
        if self.wanted_keys < 0:
            raise StorageError(
                f"wanted_keys must be >= 0, got {self.wanted_keys}"
            )
        if self.candidates < 0:
            raise StorageError(
                f"candidates must be >= 0, got {self.candidates}"
            )
        if self.payload_bytes < 0:
            raise StorageError(
                f"payload_bytes must be >= 0, got {self.payload_bytes}"
            )

    @property
    def num_pages(self) -> int:
        """Pages read from media by this gather."""
        return len(self.page_ids)


@dataclass
class PacedReadCommand:
    """One query's page reads, paced by the host CPU between them.

    The host clock starts at the batch's ``now_us``; before read ``i``
    it advances by ``gaps_us[i]`` (selection CPU, submission overhead),
    stalls while the submission queue is full, and submits
    ``page_ids[i]``.  After the last read the host waits for them all:
    it polls once at the later of its clock and the latest completion.
    Built once per query for one device, so a plain dataclass (DESIGN.md,
    "Values and records"); :class:`ReadCommand` / :class:`GatherCommand`
    stay frozen, hashable descriptions (a test pins that).

    Attributes:
        page_ids: pages to read, in submission order.
        gaps_us: host CPU spent before each submission (same length).
    """

    page_ids: Sequence[int]
    gaps_us: Sequence[float]

    def __post_init__(self) -> None:
        if not self.page_ids:
            raise StorageError("a paced read must name at least one page")
        if len(self.gaps_us) != len(self.page_ids):
            raise StorageError(
                f"{len(self.page_ids)} pages but {len(self.gaps_us)} gaps"
            )
        if min(self.page_ids) < 0:
            raise StorageError(
                f"page id must be >= 0, got {min(self.page_ids)}"
            )


DeviceCommand = Union[ReadCommand, GatherCommand, PacedReadCommand]
