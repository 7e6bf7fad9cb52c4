"""Per-replica health tracking: an EWMA error score and a state machine.

The :class:`ReplicaHealthMonitor` is the control plane of a replica
group.  Every real fragment outcome (and every probe) feeds a
per-replica EWMA error score; the score drives a state machine::

    healthy ──(errors)──> suspect ──(more errors)──> dead
       ^                     │                        │
       └──(score clears)─────┘      (resync delay elapses, group
       ^                             rebuilds the engine)
       └──(probe promotion)── recovering <────────────┘

*Healthy* replicas take primary traffic; *suspect* replicas are
deprioritized but still dispatchable (and probed); *dead* replicas are
never dispatched — after ``resync_delay_us`` the group rebuilds them
through the staged-artifact path and they rejoin as *recovering*,
serving probes only until ``promote_successes`` consecutive successes
promote them back to healthy.

Everything here is pure bookkeeping on simulated time — no wall-clock,
no randomness — so chaos runs replay deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ...errors import ConfigError

#: Replica lifecycle states, in increasing order of distrust.
HEALTHY = "healthy"
SUSPECT = "suspect"
RECOVERING = "recovering"
DEAD = "dead"

REPLICA_STATES = (HEALTHY, SUSPECT, RECOVERING, DEAD)

#: Dispatch preference per state (lower serves first); DEAD is absent —
#: dead replicas are never candidates.
_DISPATCH_RANK = {HEALTHY: 0, SUSPECT: 1, RECOVERING: 2}


@dataclass(frozen=True)
class HealthConfig:
    """Tuning knobs of the replica health state machine.

    Attributes:
        ewma_alpha: weight of the newest outcome in the error score
            (score → 1 under failures, → 0 under successes).
        suspect_error_score: healthy → suspect threshold.
        dead_error_score: suspect → dead threshold.
        clear_error_score: suspect → healthy threshold (hysteresis:
            must be below ``suspect_error_score``).
        suspect_failures: consecutive failures that force healthy →
            suspect regardless of the score.
        dead_failures: consecutive failures that force suspect → dead.
        promote_successes: consecutive successes (probes or traffic)
            that promote recovering → healthy.
        probe_interval_us: minimum simulated time between probes of a
            suspect/recovering replica.
        resync_delay_us: how long a replica stays dead before the
            group rebuilds and re-syncs it.
    """

    ewma_alpha: float = 0.35
    suspect_error_score: float = 0.5
    dead_error_score: float = 0.85
    clear_error_score: float = 0.2
    suspect_failures: int = 2
    dead_failures: int = 4
    promote_successes: int = 2
    probe_interval_us: float = 20_000.0
    resync_delay_us: float = 50_000.0

    def __post_init__(self) -> None:
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )
        if not (
            0.0
            <= self.clear_error_score
            < self.suspect_error_score
            <= self.dead_error_score
            <= 1.0
        ):
            raise ConfigError(
                "error thresholds must satisfy 0 <= clear < suspect <= "
                f"dead <= 1, got clear={self.clear_error_score}, "
                f"suspect={self.suspect_error_score}, "
                f"dead={self.dead_error_score}"
            )
        for name in ("suspect_failures", "dead_failures", "promote_successes"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        for name in ("probe_interval_us", "resync_delay_us"):
            if getattr(self, name) < 0:
                raise ConfigError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )


@dataclass(frozen=True)
class HealthTransition:
    """One state-machine edge, recorded for post-mortems.

    Attributes:
        replica: replica index within the group.
        from_state / to_state: the edge taken.
        at_us: simulated time of the transition.
        reason: what drove it (``"fault"``, ``"timeout"``, ``"probe"``,
            ``"cleared"``, ``"promoted"``, ``"resync"``).
    """

    replica: int
    from_state: str
    to_state: str
    at_us: float
    reason: str


class ReplicaHealthMonitor:
    """EWMA-scored health state machine over one group's replicas."""

    def __init__(
        self, num_replicas: int, config: "HealthConfig | None" = None
    ) -> None:
        if num_replicas < 1:
            raise ConfigError(
                f"num_replicas must be >= 1, got {num_replicas}"
            )
        self.config = config or HealthConfig()
        self.num_replicas = num_replicas
        self.states: List[str] = [HEALTHY] * num_replicas
        self.error_score: List[float] = [0.0] * num_replicas
        self.consecutive_failures: List[int] = [0] * num_replicas
        self.consecutive_successes: List[int] = [0] * num_replicas
        self.dispatched: List[int] = [0] * num_replicas
        self.failures: List[int] = [0] * num_replicas
        self.dead_since_us: List[Optional[float]] = [None] * num_replicas
        self.last_probe_us: List[float] = [float("-inf")] * num_replicas
        self.transitions: List[HealthTransition] = []
        #: Replicas that are not healthy or whose error score is above the
        #: clear bar — the only ones maintenance (probes, resyncs) can
        #: concern.  Empty in steady state.
        self.attention: Set[int] = set()

    # -- outcome feed ---------------------------------------------------------

    def record_dispatch(self, replica: int) -> None:
        """Account one dispatch (primary, failover, hedge, or probe)."""
        self.dispatched[replica] += 1

    def record_success(
        self, replica: int, now_us: float, reason: str = "cleared"
    ) -> None:
        """Feed one successful outcome; may clear suspect / promote."""
        alpha = self.config.ewma_alpha
        self.error_score[replica] *= 1.0 - alpha
        self.consecutive_failures[replica] = 0
        self.consecutive_successes[replica] += 1
        if replica not in self.attention:
            # Healthy and untainted: a decayed score can change neither
            # the state nor attention membership.
            return
        state = self.states[replica]
        if (
            state == SUSPECT
            and self.error_score[replica] <= self.config.clear_error_score
        ):
            self._transition(replica, HEALTHY, now_us, reason)
        elif (
            state == RECOVERING
            and self.consecutive_successes[replica]
            >= self.config.promote_successes
        ):
            self._transition(replica, HEALTHY, now_us, "promoted")
        self._watch(replica)

    def record_failure(
        self, replica: int, now_us: float, reason: str = "fault"
    ) -> None:
        """Feed one failed outcome; may suspect / kill the replica."""
        alpha = self.config.ewma_alpha
        score = (1.0 - alpha) * self.error_score[replica] + alpha
        self.error_score[replica] = score
        self.consecutive_failures[replica] += 1
        self.consecutive_successes[replica] = 0
        self.failures[replica] += 1
        state = self.states[replica]
        failures = self.consecutive_failures[replica]
        if state == RECOVERING:
            # A recovering replica gets no benefit of the doubt: one
            # failed probe sends it straight back to dead.
            self._transition(replica, DEAD, now_us, reason)
        elif state == HEALTHY and (
            score >= self.config.suspect_error_score
            or failures >= self.config.suspect_failures
        ):
            self._transition(replica, SUSPECT, now_us, reason)
        elif state == SUSPECT and (
            score >= self.config.dead_error_score
            or failures >= self.config.dead_failures
        ):
            self._transition(replica, DEAD, now_us, reason)
        self._watch(replica)

    def record_probe(self, replica: int, ok: bool, now_us: float) -> None:
        """Feed one probe outcome (success path may promote)."""
        self.last_probe_us[replica] = now_us
        if ok:
            self.record_success(replica, now_us, reason="probe")
        else:
            self.record_failure(replica, now_us, reason="probe")

    def mark_recovering(self, replica: int, now_us: float) -> None:
        """A dead replica was resynced; it rejoins on probation."""
        if self.states[replica] != DEAD:
            return
        self.error_score[replica] = 0.0
        self.consecutive_failures[replica] = 0
        self.consecutive_successes[replica] = 0
        self._transition(replica, RECOVERING, now_us, "resync")
        self._watch(replica)

    # -- dispatch / maintenance queries --------------------------------------

    def tainted(self, replica: int) -> bool:
        """True while a replica's error score is above the clear bar.

        Tainted replicas are deprioritized for dispatch and probed even
        while nominally healthy — successful probes decay the score, so
        a replica with one transient blip re-enters load balancing
        instead of being benched forever by a raw-score ordering.
        """
        return self.error_score[replica] > self.config.clear_error_score

    def dispatch_order(self) -> List[int]:
        """Live replicas, healthiest first.

        Orders by state rank, then the tainted flag (score above the
        clear threshold), then total dispatches (least-loaded tiebreak),
        then score and replica id for determinism.  The tainted *flag*
        — not the raw score — keeps cleared replicas load-balanced with
        never-failed ones.  Dead replicas are excluded entirely.

        With ``attention`` empty every replica is healthy and untainted,
        so the first two keys tie and the order is by (dispatches,
        score, id) alone: an insertion sort of the few replicas, each
        placed after every earlier one it does not beat.
        """
        if not self.attention:
            dispatched, scores = self.dispatched, self.error_score
            order = [0]
            for r in range(1, self.num_replicas):
                load, score = dispatched[r], scores[r]
                at = len(order)
                while at:
                    prev = order[at - 1]
                    if dispatched[prev] < load or (
                        dispatched[prev] == load and scores[prev] <= score
                    ):
                        break
                    at -= 1
                order.insert(at, r)
            return order
        states, scores = self.states, self.error_score
        dispatched, clear = self.dispatched, self.config.clear_error_score
        ranked = [
            (
                _DISPATCH_RANK[states[r]],
                scores[r] > clear,
                dispatched[r],
                scores[r],
                r,
            )
            for r in range(self.num_replicas)
            if states[r] != DEAD
        ]
        ranked.sort()
        return [key[4] for key in ranked]

    def resync_due(self, replica: int, now_us: float) -> bool:
        """True when a dead replica has served out its resync delay."""
        dead_since = self.dead_since_us[replica]
        return (
            self.states[replica] == DEAD
            and dead_since is not None
            and now_us - dead_since >= self.config.resync_delay_us
        )

    def probe_due(self, replica: int, now_us: float) -> bool:
        """True when a replica under observation has waited out its interval.

        Suspect and recovering replicas are always probed; healthy
        replicas are probed only while tainted, so their score decays
        back under the clear bar and they rejoin load balancing.  That
        is every live member of ``attention``.
        """
        return (
            replica in self.attention
            and self.states[replica] != DEAD
            and now_us - self.last_probe_us[replica]
            >= self.config.probe_interval_us
        )

    def state_counts(self) -> Dict[str, int]:
        """Replica count per state (all states present, zeros kept)."""
        counts = {state: 0 for state in REPLICA_STATES}
        for state in self.states:
            counts[state] += 1
        return counts

    # -- internals ------------------------------------------------------------

    def _watch(self, replica: int) -> None:
        """Re-derive ``replica``'s ``attention`` membership.

        Called wherever a score or a state changes, so the set always
        equals its definition.
        """
        if self.states[replica] != HEALTHY or self.tainted(replica):
            self.attention.add(replica)
        else:
            self.attention.discard(replica)

    def _transition(
        self, replica: int, to_state: str, now_us: float, reason: str
    ) -> None:
        from_state = self.states[replica]
        if from_state == to_state:
            return
        self.states[replica] = to_state
        self.dead_since_us[replica] = now_us if to_state == DEAD else None
        self.transitions.append(
            HealthTransition(
                replica=replica,
                from_state=from_state,
                to_state=to_state,
                at_us=now_us,
                reason=reason,
            )
        )
