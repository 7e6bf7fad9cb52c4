"""Host-side readings: CPU pinning, RSS, steal time.

Everything here reads ``/proc`` or ``os``; nothing imports ``repro``, so
``run.py`` can pin the process before numpy starts its own threads.
"""

from __future__ import annotations

import os
from typing import Tuple


def pin_to_last_cpu() -> int:
    """Pin this thread (and every thread started later) to one CPU.

    Threads inherit the affinity of the thread that starts them, so
    pinning the main thread before anything else runs covers the
    gateway's serve thread and the cluster's scatter pool too.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _status_kb(field: str) -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/self/status has no {field}")


def peak_rss_kb() -> int:
    """High-water mark of the resident set (``VmHWM``)."""
    return _status_kb("VmHWM")


def rss_kb() -> int:
    """Current resident set (``VmRSS``)."""
    return _status_kb("VmRSS")


def cpu_ticks(cpu: int) -> Tuple[int, int]:
    """(steal, total) jiffies of ``cpu`` since boot, from ``/proc/stat``."""
    prefix = f"cpu{cpu} "
    with open("/proc/stat") as stat:
        for line in stat:
            if line.startswith(prefix):
                fields = [int(x) for x in line.split()[1:]]
                # user nice system idle iowait irq softirq steal [guest ...]
                return fields[7], sum(fields[:8])
    raise RuntimeError(f"/proc/stat has no line for cpu{cpu}")
