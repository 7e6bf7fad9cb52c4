"""Offline replication strategies (paper §5).

Three strategies for the Rep-MBEP problem (max-bandwidth embedding
placement with replication), all producing a
:class:`~repro.placement.PageLayout`:

* :class:`RppStrategy` — strawman 1, replication prior to partition
  (replicate the hottest vertices, let SHP place the copies);
* :class:`FprStrategy` — strawman 2, finer partition + fill with replicas;
* :class:`ConnectivityPriorityStrategy` — the MaxEmbed solution: partition
  with vanilla SHP first, then replicate the vertices scoring highest on
  ``Σ_{e ∋ v} (λ(e) − 1)`` together with their most frequent co-appearing
  neighbours.

Scores and replica pages are computed over the hypergraph's CSR pin
arrays; :func:`replica_page` is the single-base step
:class:`IncrementalReplicator` shares with the offline build.  The
loop-based oracles live in :mod:`repro.reference`, which nothing here
imports.
"""

from .base import ReplicationStrategy, build_layout
from .scoring import connectivity_scores, hotness_scores
from .connectivity import ConnectivityPriorityStrategy, replica_page
from .rpp import RppStrategy
from .fpr import FprStrategy
from .benefit import GreedyBenefitStrategy
from .incremental import IncrementalReplicator

__all__ = [
    "ReplicationStrategy",
    "build_layout",
    "ConnectivityPriorityStrategy",
    "RppStrategy",
    "FprStrategy",
    "GreedyBenefitStrategy",
    "IncrementalReplicator",
    "connectivity_scores",
    "hotness_scores",
    "replica_page",
]
