"""The serving gateway core: admission → coalescing → engine, async.

:class:`GatewayCore` is the transport-independent heart of the live
front-end (:mod:`repro.service.http` wraps it in HTTP/1.1).  It takes
concurrent ``await submit(keys, tenant)`` calls and runs each through
the pipeline the docs diagram as *gateway → admission → coalescer →
engine*:

1. **quota** — the tenant's token bucket is charged; an over-quota
   request is shed immediately (``quota``, HTTP 429) before it can
   displace other tenants' admitted work;
2. **admission** — the request enters the *existing*
   :class:`~repro.overload.AdmissionQueue` (there is deliberately no
   separate HTTP-level limiter): a full queue sheds per the configured
   policy, and queue deadlines turn stale waiters into deadline misses;
3. **coalescing** — a flush drains the waiting room into batches.
   Same-tenant neighbours merge: their deduplicated key union is served
   as *one* engine query, so overlapping keys share page reads (the
   batched-selection fast path the engine already has).  Batches never
   mix tenants — a tenant's quota boundary is also its blast radius.
   The flush policy is classic max-batch/max-wait, with an idle bypass:
   when nothing is in flight a batch flushes immediately, so coalescing
   adds no latency to an unloaded gateway;
4. **brownout** — every completion feeds the *existing*
   :class:`~repro.overload.BrownoutController`; when it steps the
   ladder up, subsequent batches are served at the degraded rung (and
   are then served member-by-member, because degraded shedding must be
   attributed to individual requests).

One thread, one flush per loop tick: everything runs on the event loop's
thread — no dispatcher task, no serve thread.  ``submit`` queues its
entry and schedules :meth:`GatewayCore._flush` once per tick
(``loop.call_soon``, de-duplicated by a flag), so one tick's arrivals
meet the admission policy and then flush together; the flush calls the
engine inline and — unpaced — records the batch and resolves its futures
before returning.  ``coalescer.max_wait_us`` is one ``loop.call_later``
handle on the same flush; a paced batch's completion calls it directly.
Dispatching straight from ``submit`` was measured and rejected: each
flush then finds one request, the mean batch halves to 1.0, the engine
runs twice as often and ``gateway-single`` is slower (7 905–8 291
against 8 541–8 749 wall qps; docs/architecture.md).  Declared
consequence: an engine call blocks the loop for its ≈ 50–100 µs, so an
unpaced batch is never "in flight" while the loop runs —
``max_concurrent_batches``, queue ageing, deadline misses and
``in_flight_batches > 0`` arise only under ``pace_service``.

Time: arrivals and queue waits are wall-clock microseconds from the
gateway's monotonic clock; service time is the engine's simulated
microseconds.  Both feed one latency signal, so the brownout controller
sees real queueing plus modeled service — and with ``pace_service`` set
the gateway additionally *sleeps* each batch's simulated service time
(in the batch's own task, the only one the gateway creates), making the
wall-clock throughput ceiling track the device model.

Accounting invariant (the tests and ``/metrics`` pin it): every offered
request is exactly one of *completed*, *shed* (quota / admission policy
/ drain), or *deadline-missed*.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ServingError
from ..overload import (
    AdmissionQueue,
    BrownoutController,
    QueueEntry,
    default_ladder,
    engine_hotness,
)
from ..serving.openloop import OpenLoopReport, OpenLoopResult
from ..serving.stats import QueryResult, aggregate_results
from ..types import Query
from .config import ServiceConfig
from .quota import TokenBucket

#: Shed reasons the gateway adds on top of the admission policies.
SHED_QUOTA = "quota"
SHED_DRAIN = "drain"

#: How many recent flushed batches keep their (tenant, size) record for
#: introspection (tests assert tenant purity on this log).
BATCH_LOG_LIMIT = 4096


class WallClock:
    """Monotonic wall clock in microseconds since construction."""

    def __init__(self) -> None:
        self._t0 = time.monotonic()

    def now_us(self) -> float:
        """Microseconds elapsed since the clock was created."""
        return (time.monotonic() - self._t0) * 1e6


@dataclass
class ServeOutcome:
    """What one submitted request got back from the gateway.

    ``status`` is ``ok`` (served), ``shed`` (rejected by quota, an
    admission policy, or drain — ``shed_reason`` names which), or
    ``miss`` (admitted but dropped at dispatch because its queue wait
    blew the deadline).
    """

    status: str
    tenant: str
    keys: Tuple[int, ...]
    arrival_us: float
    served: int = 0
    missing: int = 0
    degrade_level: int = 0
    start_us: float = 0.0
    finish_us: float = 0.0
    shed_reason: Optional[str] = None
    coalesced: int = 1
    batch_pages_read: int = 0

    @property
    def ok(self) -> bool:
        """True when the request was served (possibly degraded)."""
        return self.status == "ok"

    @property
    def latency_us(self) -> float:
        """Arrival-to-completion latency (0 for rejected requests)."""
        if not self.ok:
            return 0.0
        return self.finish_us - self.arrival_us

    def http_status(self) -> int:
        """The HTTP status this outcome maps to."""
        if self.ok:
            return 200
        if self.shed_reason == SHED_QUOTA:
            return 429
        return 503

    def payload(self) -> Dict[str, object]:
        """JSON-ready response body for this outcome."""
        body: Dict[str, object] = {
            "status": self.status,
            "tenant": self.tenant,
            "keys": list(self.keys),
            "served": self.served,
            "missing": self.missing,
            "degrade_level": self.degrade_level,
        }
        if self.ok:
            body["latency_us"] = round(self.latency_us, 3)
            body["coalesced"] = self.coalesced
            body["batch_pages_read"] = self.batch_pages_read
        else:
            body["reason"] = self.shed_reason
        return body


@dataclass
class _Pending:
    """Book-keeping for one admitted-but-unfinished request."""

    entry: QueueEntry
    tenant: str
    future: "asyncio.Future[ServeOutcome]"


@dataclass
class _BatchServed:
    """What the engine returned for one flushed batch (pure data)."""

    #: (entry, requested keys, missing keys, engine result) per served
    #: member; a member whose engine call raised is shed, not listed.
    members: List[Tuple[QueueEntry, int, int, QueryResult]]
    query_results: List[QueryResult]
    finish_us: float
    pages_read: int
    duplicate_keys: int = 0
    unattributed_missing: int = 0


class GatewayCore:
    """Async request front-end over one serving or cluster engine.

    Args:
        engine: a :class:`~repro.serving.ServingEngine` or
            :class:`~repro.cluster.ClusterEngine` (anything with
            ``serve_query(query, start_us, degrade)`` and a ``config``);
            a :class:`~repro.core.deploy.LayoutManager` also qualifies —
            mount one when the refresh daemon should hot-swap layouts
            under the gateway.
        config: service knobs; defaults to coalescing on, no admission
            bound, no brownout.
        clock: microsecond clock (tests inject deterministic ones).
        refresh: optional :class:`~repro.refresh.RefreshDaemon` mounted
            on this gateway's engine.  The gateway feeds every served
            query into the daemon's drift window, starts/stops its
            thread with its own lifecycle, pauses repairs while
            draining (a swap must never race shutdown), and surfaces
            ``daemon.status()`` under ``/metrics`` and ``/refresh``.
    """

    def __init__(
        self,
        engine,
        config: "ServiceConfig | None" = None,
        clock: "WallClock | None" = None,
        refresh=None,
    ) -> None:
        self.engine = engine
        self.refresh = refresh
        self.config = config or ServiceConfig()
        self.clock = clock or WallClock()
        self.ladder = self.config.ladder or default_ladder()
        self.queue = AdmissionQueue(self.config.admission)
        self.controller: Optional[BrownoutController] = (
            BrownoutController(
                self.config.brownout, max_level=self.ladder.max_level
            )
            if self.config.brownout is not None
            else None
        )
        self._hotness = (
            engine_hotness(engine)
            if (
                self.config.admission is not None
                and self.config.admission.policy == "priority"
            )
            else None
        )
        self._buckets: Dict[str, TokenBucket] = {
            t.name: TokenBucket(t.rate_qps, t.burst)
            for t in self.config.tenants
            if t.rate_qps is not None
        }
        # Per-query fault/deadline/breaker losses can only be attributed
        # to individual requests, so those engines skip key-union merging
        # (coalescing still batches the flush; members serve one by one).
        engine_cfg = getattr(engine, "config", None)
        self._exact_per_query = engine_cfg is not None and (
            getattr(engine_cfg, "fault_plan", None) is not None
            or getattr(engine_cfg, "breaker", None) is not None
            or getattr(engine_cfg, "shard_deadline_us", None) is not None
            or getattr(engine_cfg, "shard_fault_plan", None) is not None
        )
        # Engine work runs inline on the loop's thread: the simulated
        # device is shared mutable state and serve_trace's model is
        # simulated workers over one real thread — the gateway keeps that
        # contract, overlapping batches only in (paced) completion.
        self._pending: Dict[int, _Pending] = {}
        self._seq = 0
        self._offered = 0
        self._shed: Dict[str, int] = {}
        self._deadline_misses = 0
        self._results: List[OpenLoopResult] = []
        self._query_results: List[QueryResult] = []
        self._batch_log: List[Tuple[str, int]] = []
        self._batches = 0
        self._batch_errors: List[str] = []
        self._batch_errors_total = 0
        self._last_batch_error = ""
        self._merged_batches = 0
        self._coalesced_queries = 0
        self._duplicate_keys_merged = 0
        self._unattributed_missing = 0
        self._in_flight = 0
        self._batch_tasks: set = set()
        self._draining = False
        self._stopped = False
        self._engine_close_calls = 0
        self._started_at_us = 0.0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._flush_scheduled = False
        self._max_wait_timer: Optional[asyncio.TimerHandle] = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind to the running loop and open for requests (idempotent)."""
        if self._loop is not None:
            return
        self._loop = asyncio.get_running_loop()
        self._started_at_us = self.clock.now_us()
        if self.refresh is not None:
            self.refresh.resume()
            self.refresh.start()

    async def stop(self) -> None:
        """Graceful drain: finish in-flight work, shed the waiting room.

        In-flight coalesced batches run to completion (bounded by
        ``drain_timeout_s``); entries still waiting for dispatch are
        shed with reason ``drain`` — every one of them resolves, so the
        offered == completed + shed + missed invariant survives
        shutdown.  The engine is closed exactly once, no matter how many
        times ``stop`` is called.
        """
        if self._stopped:
            return
        self._draining = True
        if self.refresh is not None:
            # Repairs pause before the drain begins: a hot swap must
            # never race in-flight batches that are being run down.
            self.refresh.pause()
            self.refresh.stop()
        self._cancel_max_wait()
        for entry in self.queue.drain():
            self._resolve_shed(entry, SHED_DRAIN)
        if self._batch_tasks:
            await asyncio.wait(
                set(self._batch_tasks), timeout=self.config.drain_timeout_s
            )
        self._stopped = True
        self._close_engine_once()

    async def __aenter__(self) -> "GatewayCore":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    def _close_engine_once(self) -> None:
        """Invoke the engine's (idempotent) close exactly once."""
        if self._engine_close_calls:
            return
        self._engine_close_calls = 1
        close = getattr(self.engine, "close", None)
        if callable(close):
            close()

    @property
    def draining(self) -> bool:
        """True once graceful shutdown has begun."""
        return self._draining

    # -- request path ----------------------------------------------------------

    async def submit(
        self, keys: Iterable[int], tenant: str = "default"
    ) -> ServeOutcome:
        """Run one request through quota → admission → coalescer → engine.

        Raises :class:`~repro.errors.ConfigError` for malformed keys
        (the HTTP layer maps that to 400) — malformed requests are not
        *offered* and do not enter the accounting.
        """
        if self._loop is None:
            raise ServingError("gateway not started; call start() first")
        query = Query(tuple(keys))
        now = self.clock.now_us()
        self._offered += 1
        if self._draining:
            return self._immediate_shed(query, tenant, now, SHED_DRAIN)
        bucket = self._buckets.get(tenant)
        if bucket is not None and not bucket.try_take(now):
            return self._immediate_shed(query, tenant, now, SHED_QUOTA)
        priority = self.config.tenant(tenant).priority
        if self._hotness is not None:
            # Tenant priority breaks ties between tenants; query hotness
            # (mean replica count) orders requests within one.
            priority += self._hotness(query)
        self._seq += 1
        entry = QueueEntry(
            arrival_us=now, index=self._seq, query=query, priority=priority
        )
        loop = self._loop
        future: "asyncio.Future[ServeOutcome]" = loop.create_future()
        self._pending[entry.index] = _Pending(entry, tenant, future)
        for victim, reason in self.queue.offer(entry, now):
            self._resolve_shed(victim, reason)
        if not self._flush_scheduled:
            # One flush per loop tick: every arrival of this tick is in
            # the queue (and has met the admission policy) when it runs.
            self._flush_scheduled = True
            loop.call_soon(self._flush)
        return await future

    def _count_shed(self, reason: str) -> None:
        self._shed[reason] = self._shed.get(reason, 0) + 1

    def _immediate_shed(
        self, query: Query, tenant: str, now: float, reason: str
    ) -> ServeOutcome:
        self._count_shed(reason)
        return ServeOutcome(
            status="shed",
            tenant=tenant,
            keys=query.keys,
            arrival_us=now,
            shed_reason=reason,
        )

    def _resolve_shed(
        self, entry: QueueEntry, reason: str, status: str = "shed"
    ) -> None:
        """Resolve a queued request as shed (or, ``miss``, deadline-missed)."""
        pending = self._pending.pop(entry.index, None)
        if pending is None:
            return
        if status == "miss":
            self._deadline_misses += 1
        else:
            self._count_shed(reason)
        outcome = ServeOutcome(
            status=status,
            tenant=pending.tenant,
            keys=entry.query.keys,
            arrival_us=entry.arrival_us,
            shed_reason=reason,
        )
        if not pending.future.done():
            pending.future.set_result(outcome)

    # -- dispatcher ------------------------------------------------------------

    def _tenant_of(self, entry: QueueEntry) -> str:
        pending = self._pending.get(entry.index)
        return pending.tenant if pending is not None else "default"

    def _take_batch(self, now: float) -> List[QueueEntry]:
        """Pop the head run of same-tenant entries, up to ``max_batch``.

        The caller has just expired the queue at ``now`` and found a head,
        so the batch is never empty.
        """
        tenant = self._tenant_of(self.queue.peek())
        limit = (
            self.config.coalescer.max_batch
            if self.config.coalescer.enabled
            else 1
        )
        batch: List[QueueEntry] = []
        while len(batch) < limit:
            head = self.queue.peek()
            if head is None or self._tenant_of(head) != tenant:
                break
            entry, skipped = self.queue.take(now)
            for missed in skipped:
                self._resolve_shed(missed, "deadline-miss", status="miss")
            if entry is None:
                break
            batch.append(entry)
        return batch

    def _cancel_max_wait(self) -> None:
        if self._max_wait_timer is not None:
            self._max_wait_timer.cancel()
            self._max_wait_timer = None

    def _flush(self) -> None:
        """Drain the admission queue into coalesced batches, synchronously.

        Runs once per loop tick that saw a ``submit``, when the
        ``max_wait_us`` timer fires and when a paced batch completes.
        """
        self._flush_scheduled = False
        self._cancel_max_wait()
        coalescer = self.config.coalescer
        slots = self.config.max_concurrent_batches
        queue = self.queue
        while len(queue) and self._in_flight < slots:
            now = self.clock.now_us()
            for missed in queue.expire(now):
                self._resolve_shed(missed, "deadline-miss", status="miss")
            head = queue.peek()
            if head is None:
                break
            ready = (
                not coalescer.enabled
                or len(queue) >= coalescer.max_batch
                or now - head.arrival_us >= coalescer.max_wait_us
                # Idle bypass: with nothing in flight, waiting to
                # coalesce would only manufacture latency.
                or self._in_flight == 0
            )
            if not ready:
                wait_us = head.arrival_us + coalescer.max_wait_us - now
                self._max_wait_timer = self._loop.call_later(
                    wait_us * 1e-6, self._flush
                )
                break
            self._dispatch(self._take_batch(now), now)

    # -- batch execution -------------------------------------------------------

    def _shed_error(self, batch: List[QueueEntry], exc: Exception) -> None:
        """Resolve ``batch`` as shed("error") and keep ``exc`` for /metrics.

        A request must never wedge its submitter: an engine error becomes
        a 503 instead of a hung connection, and the accounting invariant
        (offered == completed + shed + missed) holds.  The error is kept
        rather than re-raised — nothing awaits a flush.
        """
        for entry in batch:
            self._resolve_shed(entry, "error")
        self._batch_errors_total += 1
        self._last_batch_error = f"{type(exc).__name__}: {exc}"
        if len(self._batch_errors) < 16:
            self._batch_errors.append(self._last_batch_error)

    def _serve_merged(
        self, batch: List[QueueEntry], start_us: float
    ) -> _BatchServed:
        """One engine query over the batch's deduplicated key union.

        Overlapping keys across the batch's members are read once — the
        shared-page-read path.  Only used when per-request loss
        attribution cannot arise (no degradation, faults, breakers, or
        shard deadlines), so members' own keys are all served whenever
        the union's are; a union-level loss is surfaced as
        ``unattributed_missing`` rather than silently dropped.
        """
        union: Dict[int, None] = {}
        requested: List[int] = []
        for entry in batch:
            member_keys = entry.query.unique_keys()
            requested.append(len(member_keys))
            union.update(dict.fromkeys(member_keys))
        result = self.engine.serve_query(Query(tuple(union)), start_us)
        return _BatchServed(
            members=[
                (entry, keys, 0, result)
                for entry, keys in zip(batch, requested)
            ],
            query_results=[result],
            finish_us=result.finish_us,
            pages_read=result.pages_read,
            duplicate_keys=sum(requested) - len(union),
            unattributed_missing=result.missing_keys,
        )

    def _serve_each(
        self, batch: List[QueueEntry], start_us: float, degrade
    ) -> _BatchServed:
        """Serve batch members individually (exact per-request results).

        Used when a degradation rung is active or the engine can lose
        keys (faults / breakers / shard deadlines): shed and missing
        keys must land on the request that owns them — and so must an
        engine error, which sheds the member that raised it and nobody
        else.  Members share the batch's dispatch time, mirroring
        ``serve_trace``'s simulated worker model.
        """
        served = _BatchServed([], [], finish_us=start_us, pages_read=0)
        for entry in batch:
            try:
                result = self.engine.serve_query(
                    entry.query, start_us, degrade
                )
            except Exception as exc:
                self._shed_error([entry], exc)
                continue
            requested = len(entry.query.unique_keys())
            served.members.append(
                (entry, requested, result.missing_keys, result)
            )
            served.query_results.append(result)
            served.finish_us = max(served.finish_us, result.finish_us)
            served.pages_read += result.pages_read
        return served

    def _dispatch(self, batch: List[QueueEntry], start_us: float) -> None:
        """Serve ``batch`` on this thread; complete it now or after pacing."""
        tenant = self._tenant_of(batch[0])
        degrade = None
        if self.controller is not None and self.controller.level > 0:
            degrade = self.ladder.level(self.controller.level)
        served = None
        if (
            self.config.coalescer.enabled
            and degrade is None
            and not self._exact_per_query
            and len(batch) > 1
        ):
            try:
                served = self._serve_merged(batch, start_us)
                self._merged_batches += 1
            except Exception:
                # One member's keys broke the union; serving each member
                # alone lands the error on its owner.
                pass
        if served is None:
            served = self._serve_each(batch, start_us, degrade)
        if not served.members:
            return  # every member raised and is already shed
        if self.config.pace_service:
            self._in_flight += 1
            task = self._loop.create_task(
                self._complete_paced(tenant, len(batch), served, start_us)
            )
            self._batch_tasks.add(task)
            task.add_done_callback(self._batch_tasks.discard)
        else:
            self._complete(tenant, len(batch), served, start_us)

    async def _complete_paced(
        self, tenant: str, size: int, served: _BatchServed, start_us: float
    ) -> None:
        """Sleep the batch's simulated service time, then complete it."""
        try:
            await asyncio.sleep(
                (served.finish_us - start_us) * self.config.time_scale * 1e-6
            )
            self._complete(tenant, size, served, start_us)
        finally:
            self._in_flight -= 1
        self._flush()

    def _complete(
        self, tenant: str, size: int, served: _BatchServed, start_us: float
    ) -> None:
        """Record a served batch; a failure there sheds its members."""
        try:
            self._record_batch(tenant, size, served, start_us)
        except Exception as exc:
            self._shed_error([member[0] for member in served.members], exc)

    def _record_batch(
        self, tenant: str, size: int, served: _BatchServed, start_us: float
    ) -> None:
        """Account one served batch and resolve its members' futures."""
        self._batches += 1
        self._coalesced_queries += size
        self._duplicate_keys_merged += served.duplicate_keys
        self._unattributed_missing += served.unattributed_missing
        if len(self._batch_log) < BATCH_LOG_LIMIT:
            self._batch_log.append((tenant, size))
        self._query_results.extend(served.query_results)
        if self.refresh is not None:
            # Completed requests are the drift evidence: the daemon's
            # window sees exactly what the engine actually served.
            self.refresh.observe_many(
                member[0].query for member in served.members
            )
        depth = self.queue.depth
        controller = self.controller
        pages_read = served.pages_read
        for entry, requested, missing, result in served.members:
            arrival_us = entry.arrival_us
            finish_us = result.finish_us
            if controller is not None:
                controller.observe(finish_us - arrival_us, depth, start_us)
            self._results.append(
                OpenLoopResult(
                    arrival_us=arrival_us,
                    start_us=start_us,
                    finish_us=finish_us,
                    requested_keys=requested,
                    missing_keys=missing,
                    degrade_level=result.degrade_level,
                    retries=result.retries,
                    recovered_keys=result.recovered_keys,
                )
            )
            pending = self._pending.pop(entry.index, None)
            if pending is None or pending.future.done():
                continue
            pending.future.set_result(
                ServeOutcome(
                    status="ok",
                    tenant=pending.tenant,
                    keys=entry.query.keys,
                    arrival_us=arrival_us,
                    served=requested - missing,
                    missing=missing,
                    degrade_level=result.degrade_level,
                    start_us=start_us,
                    finish_us=finish_us,
                    coalesced=size,
                    batch_pages_read=pages_read,
                )
            )

    # -- introspection ---------------------------------------------------------

    @property
    def brownout_level(self) -> int:
        """Current degradation rung (0 = full service)."""
        return self.controller.level if self.controller is not None else 0

    @property
    def batch_log(self) -> List[Tuple[str, int]]:
        """(tenant, size) of recent flushed batches (bounded history)."""
        return list(self._batch_log)

    def open_loop_report(self) -> OpenLoopReport:
        """Live counters folded into the simulator's report type.

        Identical shape to :class:`~repro.serving.OpenLoopReport`, so
        ``/metrics`` output reconciles field-by-field with offline
        simulator runs (offered == completed + shed + misses).
        """
        results = list(self._results)
        span = 0.0
        if len(results) >= 2:
            span = max(r.finish_us for r in results) - min(
                r.arrival_us for r in results
            )
        offered_qps = self._offered / (span * 1e-6) if span > 0 else 0.0
        return OpenLoopReport(
            offered_qps=offered_qps,
            results=results,
            offered=self._offered,
            shed=dict(self._shed),
            deadline_misses=self._deadline_misses,
            brownout_transitions=(
                list(self.controller.transitions)
                if self.controller is not None
                else []
            ),
            final_degrade_level=self.brownout_level,
        )

    def health(self) -> Dict[str, object]:
        """Liveness summary for ``/health``."""
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(
                (self.clock.now_us() - self._started_at_us) * 1e-6, 3
            )
            if self._loop is not None
            else 0.0,
            "queue_depth": self.queue.depth,
            "in_flight_batches": self._in_flight,
            "brownout_level": self.brownout_level,
            "shards": getattr(self.engine, "num_shards", 1),
        }

    def metrics(self) -> Dict[str, object]:
        """Full counter dump for ``/metrics``.

        ``service`` holds the gateway's own accounting (the invariant
        fields), ``open_loop`` the request-level report, ``serving`` the
        engine-level trace report (tier/cache hit counters included),
        ``tier`` the pinned-DRAM-tier configuration when one is active,
        ``refresh`` the mounted refresh daemon's state and counters
        (when one is mounted), ``cluster`` per-shard device
        counters when serving a sharded engine, and ``replicas``
        replica-group health states and failover/hedge counters when
        replica groups are active.
        """
        completed = len(self._results)
        shed_total = sum(self._shed.values())
        batches = self._batches
        data: Dict[str, object] = {
            "service": {
                "offered": self._offered,
                "completed": completed,
                "shed": dict(self._shed),
                "shed_total": shed_total,
                "deadline_misses": self._deadline_misses,
                "accounted": completed + shed_total + self._deadline_misses,
                "queue_depth": self.queue.depth,
                "in_flight_batches": self._in_flight,
                "draining": self._draining,
                "batch_errors": list(self._batch_errors),
                "batch_errors_total": self._batch_errors_total,
                "last_batch_error": self._last_batch_error,
                "brownout_level": self.brownout_level,
                "tenant_tokens": {
                    name: round(bucket.tokens, 3)
                    for name, bucket in sorted(self._buckets.items())
                },
                "coalescer": {
                    "batches": batches,
                    "merged_batches": self._merged_batches,
                    "coalesced_queries": self._coalesced_queries,
                    "duplicate_keys_merged": self._duplicate_keys_merged,
                    "mean_batch_size": round(
                        self._coalesced_queries / batches, 3
                    )
                    if batches
                    else 0.0,
                    "unattributed_missing": self._unattributed_missing,
                },
            },
            "open_loop": self.open_loop_report().as_dict(),
        }
        if self._query_results:
            spec = self.engine.config.spec
            data["serving"] = aggregate_results(
                list(self._query_results),
                page_size=spec.page_size,
                embedding_bytes=spec.embedding_bytes,
            ).as_dict()
        tier_info = getattr(self.engine, "tier_info", None)
        if callable(tier_info):
            info = tier_info()
            if info is not None:
                data["tier"] = info
        if self.refresh is not None:
            data["refresh"] = self.refresh.status()
        shard_stats = getattr(self.engine, "shard_device_stats", None)
        if callable(shard_stats):
            stats = shard_stats()
            data["cluster"] = {
                "num_shards": self.engine.num_shards,
                "shard_reads": [
                    getattr(s, "reads", 0) for s in stats
                ],
                "shard_bytes_read": [
                    getattr(s, "bytes_read", 0) for s in stats
                ],
            }
        replica_info = getattr(self.engine, "replica_info", None)
        if callable(replica_info):
            info = replica_info()
            if info is not None:
                data["replicas"] = info
        return data
