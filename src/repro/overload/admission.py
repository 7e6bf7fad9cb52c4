"""Admission control: a bounded arrival queue with shed policies.

The open-loop simulator models production ingress: requests arrive on
their own schedule and wait for a worker.  Without a bound the queue
absorbs any overload and every request is eventually served — late.
:class:`AdmissionQueue` bounds the backlog and *sheds* instead:

* ``tail`` — a full queue rejects the incoming request (classic
  tail-drop, the cheapest policy and the baseline);
* ``deadline`` — a full queue first evicts waiting requests that can no
  longer meet their queue deadline (they are dead weight: serving them
  would be too late anyway), then admits the newcomer if space opened;
* ``priority`` — a full queue evicts the coldest waiting request (by
  query hotness — mean replica count of its keys, the same signal
  selective replication optimizes for) when the newcomer is hotter,
  otherwise rejects the newcomer.

Independently of the policy, a configured ``queue_deadline_us`` is also
enforced at dispatch: a request whose wait already exceeds the deadline
when a worker frees up is dropped as a *deadline miss* rather than
served uselessly late.

Everything operates on simulated time through explicit ``now_us``
arguments, so shedding decisions are bit-reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Tuple

from ..errors import ConfigError
from ..types import Query

ADMISSION_POLICIES = ("tail", "deadline", "priority")

#: (shed entry, reason) pairs returned by queue operations.
ShedEvent = Tuple["QueueEntry", str]


@dataclass(frozen=True)
class AdmissionConfig:
    """Tuning knobs for one admission queue.

    Attributes:
        capacity: maximum waiting requests (excludes the ones being
            served); arrivals beyond this are shed per ``policy``.
        policy: ``tail``, ``deadline``, or ``priority`` (see module
            docstring).
        queue_deadline_us: maximum simulated queue wait; a request
            waiting longer is dropped at dispatch time (and the
            ``deadline`` policy evicts already-doomed waiters early).
            Required by the ``deadline`` policy, optional otherwise.
    """

    capacity: int
    policy: str = "tail"
    queue_deadline_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigError(
                f"admission capacity must be >= 1, got {self.capacity}"
            )
        if self.policy not in ADMISSION_POLICIES:
            raise ConfigError(
                f"unknown admission policy {self.policy!r}; "
                f"choose from {ADMISSION_POLICIES}"
            )
        if self.queue_deadline_us is not None and self.queue_deadline_us <= 0:
            raise ConfigError(
                f"queue_deadline_us must be positive, got "
                f"{self.queue_deadline_us}"
            )
        if self.policy == "deadline" and self.queue_deadline_us is None:
            raise ConfigError(
                "the deadline policy needs queue_deadline_us set"
            )


@dataclass
class QueueEntry:
    """One waiting request."""

    arrival_us: float
    index: int
    query: Query
    priority: float = 0.0


class AdmissionQueue:
    """Bounded FIFO of :class:`QueueEntry` with a shed policy.

    With ``config=None`` the queue is unbounded and deadline-free — the
    legacy queue-forever behaviour, kept so the simulator can share one
    code path.
    """

    def __init__(self, config: "AdmissionConfig | None" = None) -> None:
        self.config = config
        self._queue: Deque[QueueEntry] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def depth(self) -> int:
        """Current backlog (the brownout controller's pressure signal)."""
        return len(self._queue)

    # -- enqueue ---------------------------------------------------------------

    def offer(self, entry: QueueEntry, now_us: float) -> List[ShedEvent]:
        """Admit ``entry`` at ``now_us``, shedding per policy when full.

        Returns the shed (entry, reason) events this admission caused —
        empty when the entry was queued without casualties.
        """
        config = self.config
        if config is None or len(self._queue) < config.capacity:
            self._queue.append(entry)
            return []
        if config.policy == "tail":
            return [(entry, "tail")]
        if config.policy == "deadline":
            return self._offer_deadline(entry, now_us)
        return self._offer_priority(entry)

    def _offer_deadline(
        self, entry: QueueEntry, now_us: float
    ) -> List[ShedEvent]:
        """Evict waiters that already missed their queue deadline."""
        deadline = self.config.queue_deadline_us
        shed: List[ShedEvent] = []
        kept: Deque[QueueEntry] = deque()
        for waiting in self._queue:
            if now_us - waiting.arrival_us > deadline:
                shed.append((waiting, "deadline"))
            else:
                kept.append(waiting)
        self._queue = kept
        if len(self._queue) < self.config.capacity:
            self._queue.append(entry)
        else:
            shed.append((entry, "tail"))
        return shed

    def _offer_priority(self, entry: QueueEntry) -> List[ShedEvent]:
        """Evict the coldest waiter when the newcomer is hotter."""
        victim_pos = -1
        victim: Optional[QueueEntry] = None
        for pos, waiting in enumerate(self._queue):
            # <= prefers the youngest among equally cold waiters, so the
            # oldest work keeps its place in line.
            if victim is None or waiting.priority <= victim.priority:
                victim_pos, victim = pos, waiting
        if victim is not None and entry.priority > victim.priority:
            del self._queue[victim_pos]
            self._queue.append(entry)
            return [(victim, "priority")]
        return [(entry, "priority")]

    # -- inspection ------------------------------------------------------------

    def peek(self) -> Optional[QueueEntry]:
        """The next entry :meth:`take_run` would consider (None when empty).

        Combined with :meth:`expire`, this lets a dispatcher group the
        head of the line into batches (e.g. by tenant) without popping
        entries it cannot serve yet.
        """
        return self._queue[0] if self._queue else None

    def expire(self, now_us: float) -> List[QueueEntry]:
        """Pop head entries whose queue wait already exceeds the deadline.

        Arrivals are appended in time order, so deadline-missed waiters
        form a prefix of the queue; after this call :meth:`peek` returns
        an entry that is still dispatchable at ``now_us`` (or None).
        The popped entries are deadline misses — the caller accounts
        them exactly as :meth:`take_run` would have.
        """
        deadline = (
            self.config.queue_deadline_us if self.config is not None else None
        )
        if deadline is None:
            return []
        missed: List[QueueEntry] = []
        while self._queue and now_us - self._queue[0].arrival_us > deadline:
            missed.append(self._queue.popleft())
        return missed

    def drain(self) -> List[QueueEntry]:
        """Remove and return every waiting entry (shutdown shedding).

        A gateway draining on shutdown sheds its waiting room instead of
        serving it; the caller is responsible for accounting the
        returned entries as shed.
        """
        drained = list(self._queue)
        self._queue.clear()
        return drained

    # -- dispatch --------------------------------------------------------------

    def take_run(
        self, free_at_us: float, limit: int
    ) -> Tuple[List[QueueEntry], List[QueueEntry]]:
        """Pop the next run of dispatchable entries for a worker free at
        ``free_at_us``.

        Returns ``(run, deadline_missed)``.  The run is the first
        dispatchable entry and the entries right behind it with its
        ``tenant``, at most ``limit`` of them (empty when the queue
        drained); it ends at the first entry of another tenant.  The
        waiters popped on the way whose queue wait would already exceed
        the deadline at dispatch are skipped into ``deadline_missed``.
        With ``limit`` 1 no ``tenant`` is read, so any entry will do.
        """
        queue = self._queue
        deadline = (
            self.config.queue_deadline_us if self.config is not None else None
        )
        run: List[QueueEntry] = []
        missed: List[QueueEntry] = []
        while queue:
            if run and queue[0].tenant != run[0].tenant:
                break
            entry = queue.popleft()
            if (
                deadline is not None
                and max(entry.arrival_us, free_at_us) - entry.arrival_us
                > deadline
            ):
                missed.append(entry)
                continue
            run.append(entry)
            if len(run) == limit:
                break
        return run, missed


def engine_hotness(engine) -> Callable[[Query], float]:
    """Query-hotness scorer for the ``priority`` shed policy.

    Hotness is the mean replica count of the query's distinct keys —
    the offline phase replicates exactly the keys it judged hot, so the
    forward index doubles as a free popularity signal at serving time.
    A key outside the table scores zero replicas: the request is
    admitted and the engine's bounds check sheds it, as under every
    other policy.  Works over a single
    :class:`~repro.serving.ServingEngine` (one forward index) or a
    :class:`~repro.cluster.ClusterEngine` (per-shard indexes through
    the shard plan); both are duck-typed to keep this package
    import-free of the serving layers.
    """
    if hasattr(engine, "engines"):  # cluster: shard-local lookups
        plan = engine.plan
        num_keys = len(plan.assignment)
        shard_counts = [e.forward.replica_counts() for e in engine.engines]

        def hotness(query: Query) -> float:
            keys = query.unique_keys()
            total = sum(
                shard_counts[plan.shard_of(k)][plan.local_id(k)]
                for k in keys
                if k < num_keys
            )
            return total / len(keys)

        return hotness

    counts = engine.forward.replica_counts()
    num_keys = len(counts)

    def hotness(query: Query) -> float:
        keys = query.unique_keys()
        return sum(counts[k] for k in keys if k < num_keys) / len(keys)

    return hotness
