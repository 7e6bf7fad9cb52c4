"""Drift detection: live traffic windows and hysteresis triggers.

The daemon's evidence comes from two signals, both computed on a
sliding window of recent live queries:

* **share-of-best** — the ``staleness_probe`` signal: the active
  layout's effective bandwidth divided by the best any retained layout
  scores on the same window.  Well below 1.0 means a registered rebuild
  would serve current traffic better;
* **page-read drift** — the ``bench_drift.py`` signal: the active
  layout's effective-bandwidth *fraction* on the window, compared
  against the baseline recorded when the layout was installed.  A
  placement whose mined combinations went stale reads more pages for
  the same bytes, so the fraction sags even with no alternative layout
  to compare against (this is the only signal available per shard in
  cluster mode).

Both run through one :class:`DriftWatcher` with trigger/clear
hysteresis, so a window that hovers at the threshold cannot flap the
repair ladder.
"""

from __future__ import annotations

import threading
from typing import Iterable, List, Optional, Sequence

from ..types import Query, QueryTrace

#: DriftWatcher states.
HEALTHY = "healthy"
DRIFTING = "drifting"


class TrafficWindow:
    """Thread-safe bounded window of recent live queries.

    ``observe`` is called from the serving path (the gateway's batch
    completion hook) with a served query's keys, already checked where
    the query entered, and costs one append under a lock; ``snapshot``
    materializes the window as a :class:`QueryTrace` for probing and
    rebuilds, building each :class:`Query` there.
    """

    def __init__(self, num_keys: int, capacity: int) -> None:
        self.num_keys = num_keys
        self.capacity = capacity
        self._queries: List[Sequence[int]] = []
        self._start = 0
        self._observed = 0
        self._lock = threading.Lock()

    def observe(self, keys: Sequence[int]) -> None:
        """Append one served query's keys (oldest drops past capacity)."""
        with self._lock:
            self._queries.append(keys)
            self._observed += 1
            if len(self._queries) - self._start > self.capacity:
                self._start += 1
                # Compact lazily so the ring never holds more than 2x.
                if self._start >= self.capacity:
                    self._queries = self._queries[self._start:]
                    self._start = 0

    def observe_many(self, batch: Iterable[Sequence[int]]) -> None:
        """Append a batch of served queries' keys."""
        for keys in batch:
            self.observe(keys)

    def __len__(self) -> int:
        with self._lock:
            return len(self._queries) - self._start

    @property
    def total_observed(self) -> int:
        """Queries ever observed (not just those still in the window)."""
        with self._lock:
            return self._observed

    def snapshot(self) -> QueryTrace:
        """The current window as a trace (copies under the lock)."""
        with self._lock:
            window = self._queries[self._start:]
        return QueryTrace(self.num_keys, [Query(keys) for keys in window])


class DriftWatcher:
    """Hysteresis state machine over the two drift signals.

    One watcher per repair target (the single engine, or each shard).
    ``assess`` folds a fresh probe into the state and answers "is this
    target stale right now?"; the trigger/clear split keeps a target
    from flapping between stale and healthy at the threshold.
    """

    def __init__(
        self,
        trigger_share: float,
        clear_share: float,
        drop_fraction: float,
    ) -> None:
        self.trigger_share = trigger_share
        self.clear_share = clear_share
        self.drop_fraction = drop_fraction
        self.state = HEALTHY
        self.baseline_bw: Optional[float] = None
        self.last_share: Optional[float] = None
        self.last_bw: Optional[float] = None

    def rebaseline(self, bw: float) -> None:
        """Record a fresh layout's bandwidth as the new drift baseline."""
        self.baseline_bw = bw
        self.state = HEALTHY

    def assess(
        self, active_bw: float, share_of_best: Optional[float] = None
    ) -> bool:
        """Fold one probe in; True while the target is considered stale.

        ``share_of_best`` is optional — cluster shards have no layout
        registry to rank against, so they run on the bandwidth-drop
        signal alone.
        """
        self.last_share = share_of_best
        self.last_bw = active_bw
        if self.baseline_bw is None:
            self.baseline_bw = active_bw
        dropped = active_bw < self.baseline_bw * (1.0 - self.drop_fraction)
        if self.state == HEALTHY:
            low_share = (
                share_of_best is not None
                and share_of_best < self.trigger_share
            )
            if low_share or dropped:
                self.state = DRIFTING
        else:
            share_ok = (
                share_of_best is None or share_of_best >= self.clear_share
            )
            if share_ok and not dropped:
                self.state = HEALTHY
        return self.state == DRIFTING
