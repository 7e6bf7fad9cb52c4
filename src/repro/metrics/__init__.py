"""Placement- and serving-quality metrics.

Two families:

* **static** (this package) — evaluate a page layout against a trace
  without simulating time or cache: reads per query, valid embeddings per
  read, effective-bandwidth fraction (the reciprocal of read
  amplification).  These drive the paper's bandwidth figures (3, 8, 14,
  16, 17).
* **dynamic** — throughput/latency come from
  :class:`repro.serving.ServingReport` (figures 10–13, 15).
"""

from .bandwidth import PlacementEvaluation, evaluate_placement

__all__ = [
    "PlacementEvaluation",
    "evaluate_placement",
]
