"""The MaxEmbed system facade — the paper's primary contribution, end to end.

:class:`MaxEmbedStore` is the one-stop API: feed it a historical query
trace (offline phase: SHP partition + connectivity-priority replication),
then serve live queries (online phase: one-pass selection, pipelined
simulated SSD reads, DRAM cache).
"""

from .config import MaxEmbedConfig
from .store import MaxEmbedStore, build_offline_layout
from .deploy import LayoutManager, LayoutVersion

__all__ = [
    "MaxEmbedConfig",
    "MaxEmbedStore",
    "build_offline_layout",
    "LayoutManager",
    "LayoutVersion",
]
